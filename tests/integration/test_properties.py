"""Property-based tests over the core invariants (hypothesis).

Three families:

* **engine equivalence** -- any update/query script observed through the
  incremental engine matches every baseline engine and a from-scratch
  recomputation;
* **undo inversion** -- undoing N committed transactions restores the exact
  observable state from N transactions ago;
* **dependency-graph consistency** -- after any op sequence (primitives,
  undo, batch, subtype flips, schema extension, checkpoint + restore) the
  ``Database.depgraph`` view equals the test-side reference graph rebuilt
  from resolved rules x connections; the checkpoint goes through an image
  file, restores every piece of state the image carries, and an undo of a
  checkpointed transaction after it matches the same undo without it;
* **one record path** -- the same op sequence run durably, then recovered
  from its checkpoint and WAL, and then walked by a version checkout to
  the root and back, lands on the image of the in-memory run each time.
"""

import copy
import os
import tempfile
from collections import Counter

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.database import Database
from repro.core.schema import AttributeDef, ObjectClass
from repro.dsl import compile_schema
from repro.storage.codec import encode_record, load_database, save_database
from repro.versions import VersionStream
from tests.references import (
    breadth_first_factory,
    depth_first_factory,
    reference_depgraph,
    reference_edges,
)
from repro.workloads import (
    build_random_dag,
    run_update_script,
    sum_node_schema,
)

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=30,
)


def fresh_db(factory=None):
    return Database(
        sum_node_schema(), engine_factory=factory, pool_capacity=256
    )


@st.composite
def dag_and_script(draw, max_nodes=18, max_ops=25):
    n_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    edge_prob = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["set", "get"]),
                st.integers(min_value=0, max_value=max_nodes - 1),
                st.integers(min_value=0, max_value=50),
            ),
            max_size=max_ops,
        )
    )
    return n_nodes, edge_prob, seed, ops


def apply_ops(db, nodes, ops):
    observed = []
    for op, index, value in ops:
        iid = nodes[index % len(nodes)]
        if op == "set":
            db.set_attr(iid, "weight", value)
        else:
            observed.append(db.get_attr(iid, "total"))
    return observed


def full_state(db, nodes):
    return [(db.get_attr(n, "weight"), db.get_attr(n, "total")) for n in nodes]


class TestEngineEquivalence:
    @given(dag_and_script())
    @settings(**COMMON)
    def test_incremental_matches_eager_dfs(self, case):
        n_nodes, edge_prob, seed, ops = case
        results = []
        for factory in (None, depth_first_factory()):
            db = fresh_db(factory)
            nodes = build_random_dag(db, n_nodes, edge_prob, seed=seed)
            observed = apply_ops(db, nodes, ops)
            results.append((observed, full_state(db, nodes)))
        assert results[0] == results[1]

    @given(dag_and_script())
    @settings(**COMMON)
    def test_incremental_matches_eager_bfs(self, case):
        n_nodes, edge_prob, seed, ops = case
        results = []
        for factory in (None, breadth_first_factory()):
            db = fresh_db(factory)
            nodes = build_random_dag(db, n_nodes, edge_prob, seed=seed)
            observed = apply_ops(db, nodes, ops)
            results.append((observed, full_state(db, nodes)))
        assert results[0] == results[1]

    @given(dag_and_script())
    @settings(**COMMON)
    def test_totals_match_independent_recomputation(self, case):
        n_nodes, edge_prob, seed, ops = case
        db = fresh_db()
        nodes = build_random_dag(db, n_nodes, edge_prob, seed=seed)
        apply_ops(db, nodes, ops)
        # Recompute every total from intrinsics alone, by graph walk.
        memo = {}

        def total(iid):
            if iid not in memo:
                ins = db.view(iid).connections("inputs")
                memo[iid] = db.get_attr(iid, "weight") + sum(total(i) for i in ins)
            return memo[iid]

        for node in nodes:
            assert db.get_attr(node, "total") == total(node)


class TestUndoInversion:
    @given(dag_and_script(max_ops=12))
    @settings(**COMMON)
    def test_undo_all_restores_initial_state(self, case):
        n_nodes, edge_prob, seed, ops = case
        db = fresh_db()
        nodes = build_random_dag(db, n_nodes, edge_prob, seed=seed)
        initial = full_state(db, nodes)
        history_before = len(db.txn.history)
        committed = 0
        for op, index, value in ops:
            if op != "set":
                continue
            iid = nodes[index % len(nodes)]
            if db.get_attr(iid, "weight") == value:
                continue  # no-op set logs nothing
            db.set_attr(iid, "weight", value)
            committed += 1
        assert len(db.txn.history) == history_before + committed
        for __ in range(committed):
            db.undo()
        assert full_state(db, nodes) == initial

    @given(st.integers(min_value=1, max_value=6), st.integers(0, 9999))
    @settings(**COMMON)
    def test_undo_restores_structure_after_deletes(self, n_deletes, seed):
        db = fresh_db()
        nodes = build_random_dag(db, 12, 0.4, seed=seed)
        snapshot = {
            n: sorted(db.view(n).connections("inputs")) for n in nodes
        }
        initial = full_state(db, nodes)
        import random

        rng = random.Random(seed)
        victims = rng.sample(nodes, min(n_deletes, len(nodes)))
        for victim in victims:
            db.delete(victim)
        for __ in victims:
            db.undo()
        assert full_state(db, nodes) == initial
        assert {
            n: sorted(db.view(n).connections("inputs")) for n in nodes
        } == snapshot


OVERLAP_SRC = """
relationship dep is total : integer from plug; end;
object class node is
  relationships
    inputs  : dep multi socket;
    outputs : dep multi plug;
  attributes
    weight : integer;
    bias   : integer;
    total  : integer;
    label  : integer;
  rules
    total = begin
        acc : integer;
        acc := weight;
        for each src related to inputs do
            acc := acc + src.total;
        end for;
        return acc;
    end;
    label = weight;
    outputs total = total;
end;
/* Two predicate subtypes override the same slot, with different inputs:
 * local ones under `big`, received ones under `odd`. */
object class big subtype of node where weight > 20 is
  attributes
    extra : integer;
  rules
    label = total + bias;
    extra = total * 2;
end;
object class odd subtype of node where bias > 5 is
  rules
    label = begin
        acc : integer;
        acc := bias;
        for each src related to inputs do
            acc := acc + src.total;
        end for;
        return acc;
    end;
end;
"""

_idx = st.integers(min_value=0, max_value=7)
_graph_write = st.one_of(
    st.tuples(st.just("create"), st.integers(0, 40), st.integers(0, 10)),
    st.tuples(st.just("delete"), _idx),
    st.tuples(st.just("link"), _idx, _idx),
    st.tuples(st.just("set"), _idx, st.just("weight"), st.integers(0, 40)),
    st.tuples(st.just("set"), _idx, st.just("bias"), st.integers(0, 10)),
)
_graph_op = st.one_of(
    _graph_write,
    st.tuples(st.just("batch"), st.lists(_graph_write, max_size=4)),
    st.tuples(st.just("undo")),
    st.tuples(st.just("extend")),
    st.tuples(st.just("checkpoint")),
)


def _graph_write_one(db, op):
    live = db.instance_ids()
    if op[0] == "create":
        db.create("node", weight=op[1], bias=op[2])
    elif not live:
        return
    elif op[0] == "delete":
        db.delete(live[op[1] % len(live)])
    elif op[0] == "set":
        db.set_attr(live[op[1] % len(live)], op[2], op[3])
    else:  # link: toggle an edge from the older node into the younger one
        a, b = live[op[1] % len(live)], live[op[2] % len(live)]
        if a == b:
            return
        producer, consumer = min(a, b), max(a, b)
        if producer in db.view(consumer).connections("inputs"):
            db.disconnect(consumer, "inputs", producer, "outputs")
        else:
            db.connect(consumer, "inputs", producer, "outputs")


def through_file(db):
    """``db`` written to an image file and read back."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "image.jsonl")
        save_database(db, path)
        return load_database(path, db.schema)[0]


def image_state(db):
    """Everything an image promises to restore, in comparable form:
    records (values, subtypes, connection order), out-of-date marks,
    history, the id allocator, and which instances share a block."""
    storage = db.storage
    blocks = (storage.residents_of_block(b) for b in storage.disk.blocks)
    return (
        {
            iid: (inst.class_name, inst.attrs, inst.active_subtypes, inst.connections)
            for iid, inst in db._catalog.items()
        },
        db.engine.out_of_date,
        [
            (delta.txn_id, delta.label, [encode_record(r) for r in delta.records])
            for delta in db.txn.history
        ],
        db.next_instance_id,
        sorted(sorted(group) for group in blocks if group),
    )


def _graph_step(db, op):
    """Apply one op; returns the database to continue with."""
    if op[0] == "batch":
        with db.batch():
            for write in op[1]:
                _graph_write_one(db, write)
    elif op[0] == "undo":
        if db.txn.history:
            db.undo()
    elif op[0] == "extend":
        with db.extend_schema() as schema:
            schema.add_class(
                ObjectClass(
                    f"memo{len(schema.classes)}",
                    attributes=[AttributeDef("text", "string")],
                )
            )
    elif op[0] == "checkpoint":
        restored = through_file(db)
        assert image_state(restored) == image_state(db)
        if db.txn.history:
            # Undoing a checkpointed transaction after reopen does what
            # undoing it without the round trip does -- up to where an
            # undone delete re-places its instance: the open fill block is
            # not part of an image.
            twin = through_file(db)
            db.undo()
            twin.undo()
            assert image_state(twin)[:-1] == image_state(db)[:-1]
        db = restored
    else:
        _graph_write_one(db, op)
    return db


def assert_view_is_reference(db):
    """``db.depgraph`` (derived from slot plans) == the stored reference
    graph rebuilt from resolved rules x connections, mention for mention."""
    view = db.depgraph
    reference = Counter(reference_edges(db))
    edges = Counter((s, d) for s in view.slots() for d in view.dependents(s))
    assert edges == reference
    transpose = Counter((s, d) for d in view.slots() for s in view.dependencies(d))
    assert transpose == edges
    assert set(view.slots()) == set(reference_depgraph(db).slots())
    assert len(vars(view)) == 1  # a view: no per-slot state


class TestDependencyGraphConsistency:
    @given(st.lists(_graph_op, max_size=14))
    # Both subtypes attached, then the later-sorted one detached: `label`
    # must fall back to `big`'s override, not to the base rule.
    @example(
        [
            ("create", 1, 1),
            ("create", 30, 9),
            ("link", 0, 1),
            ("set", 1, "bias", 0),
            ("set", 1, "weight", 2),
            ("undo",),
            ("checkpoint",),
        ]
    )
    @settings(**COMMON)
    def test_depgraph_matches_reconstruction(self, ops):
        db = Database(compile_schema(OVERLAP_SRC), pool_capacity=256)
        for op in [("create", 25, 8), ("create", 3, 0), ("link", 0, 1)] + ops:
            db = _graph_step(db, op)
            assert_view_is_reference(db)
            # Reading membership evaluates the predicates: flips happen here.
            for iid in db.instance_ids():
                db.is_member(iid, "big")
                db.is_member(iid, "odd")
            assert_view_is_reference(db)


def settled_image(db):
    """A copy of :func:`image_state` with every membership and derived
    slot evaluated and without the block layout: the log carries neither
    cached derived values nor placement (DESIGN.md §5, invariant 5), so a
    replay is held to the state they are recomputed from."""
    for iid in db.instance_ids():
        db.is_member(iid, "big")
        db.is_member(iid, "odd")
    for iid in db.instance_ids():
        for name in db._plan(iid).names:
            db.engine.demand((iid, name))
    return copy.deepcopy(image_state(db)[:-1])


class TestEveryReplayPathLandsOnTheSameImage:
    @given(st.lists(_graph_op, max_size=14))
    @settings(**COMMON)
    def test_recovery_and_checkout_match_the_in_memory_run(self, ops):
        script = [("create", 25, 8), ("create", 3, 0), ("link", 0, 1)] + ops
        memory = Database(compile_schema(OVERLAP_SRC), pool_capacity=256)
        stream = VersionStream(memory)
        with tempfile.TemporaryDirectory() as directory:
            durable = Database.open(
                directory, compile_schema(OVERLAP_SRC), sync=False, pool_capacity=256
            )
            for op in script:
                if op[0] == "checkpoint":
                    durable.checkpoint()  # the in-memory run has no log to fold
                else:
                    _graph_step(memory, op)
                    _graph_step(durable, op)
            expected = settled_image(memory)
            assert settled_image(durable) == expected
            durable.close()
            # ``extend`` is not journalled: reopen under the extended schema.
            reopened = Database.open(directory, durable.schema, pool_capacity=256)
            assert settled_image(reopened) == expected
            reopened.close()
        stream.tag("tip")
        stream.checkout("root")
        assert memory.instance_ids() == []
        stream.checkout("tip")
        assert settled_image(memory) == expected
