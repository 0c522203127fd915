"""Property: the one engine path against its test-side references.

A random DAG over a schema with a contingent constraint, a provably-true
(foldable) constraint, and a predicate subtype is driven by a random
script of set / connect / disconnect / create / delete writes, some of
them grouped inside ``db.batch()``.  The database under test is drawn
compiled or interpreted (:func:`tests.references.interpreted`) and folded
or unfolded (:func:`tests.references.unfolded`); whichever it is,

(i)  every operation's outcome (ok / ``TransactionAborted``) and every
     observable value equals a recompute-everything database's, and
(ii) the first wave of every operation marks exactly
     ``Could_Change(seeds)`` of the dependency graph: one ``slots_marked``
     per derived slot of the region, one ``mark_edge_visits`` per edge.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.instance import Connection
from repro.dsl import compile_schema
from repro.errors import ConstraintViolation, TransactionAborted
from tests.references import (
    MarkingOracle,
    full_recompute_db,
    interpreted,
    reference_depgraph,
    unfolded,
)

SRC = """
relationship dep is total : integer from plug; end;
object class node is
  relationships
    inputs  : dep multi socket;
    outputs : dep multi plug;
  attributes
    weight : integer;
    total  : integer;
    level  : integer;
  rules
    total = begin
        acc : integer;
        acc := weight;
        for each src related to inputs do
            acc := acc + src.total;
        end for;
        return acc;
    end;
    level = begin
        if total > 50 then
            return 2;
        end if;
        return 1;
    end;
    outputs total = total;
  constraints
    cap      : total <= 100;
    level_ok : level >= 1 and level <= 2;
end;
object class heavy subtype of node where total > 40 is
  attributes
    load : integer;
  rules
    load = total * 2;
end;
"""

_index = st.integers(min_value=0, max_value=7)
_write = st.one_of(
    st.tuples(st.just("set"), _index, st.integers(min_value=0, max_value=60)),
    st.tuples(st.just("link"), _index, _index),
    st.tuples(st.just("create"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("delete"), _index),
)
_op = st.one_of(_write, st.tuples(st.just("batch"), st.lists(_write, max_size=5)))


def _write_one(db: Database, op) -> None:
    """One write, resolved against the instances alive right now."""
    live = db.instance_ids()
    if op[0] == "create":
        db.create("node", weight=op[1])
    elif not live:
        return
    elif op[0] == "set":
        db.set_attr(live[op[1] % len(live)], "weight", op[2])
    elif op[0] == "delete":
        db.delete(live[op[1] % len(live)])
    else:  # link: toggle an edge from the older node into the younger one
        a, b = live[op[1] % len(live)], live[op[2] % len(live)]
        if a == b:
            return
        producer, consumer = min(a, b), max(a, b)
        if Connection(producer, "outputs") in db.instance(consumer).connections_on(
            "inputs"
        ):
            db.disconnect(consumer, "inputs", producer, "outputs")
        else:
            db.connect(consumer, "inputs", producer, "outputs")


def _run(db: Database, op) -> str:
    try:
        if op[0] == "batch":
            with db.batch():
                for write in op[1]:
                    _write_one(db, write)
        else:
            _write_one(db, op)
    except (ConstraintViolation, TransactionAborted) as exc:
        # Which violating instance is reported first depends on evaluation
        # order; the verdict does not.
        return type(exc).__name__
    return "ok"


def _state(db: Database) -> list:
    out = []
    for iid in db.instance_ids():
        heavy = db.is_member(iid, "heavy")
        out.append(
            (
                iid,
                db.get_attr(iid, "weight"),
                db.get_attr(iid, "total"),
                db.get_attr(iid, "level"),
                db.get_transmitted(iid, "outputs", "total"),
                heavy,
                db.get_attr(iid, "load") if heavy else None,
                db.view(iid).connections("inputs"),
            )
        )
    return out


@given(
    weights=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=6),
    edges=st.sets(st.tuples(_index, _index), max_size=8),
    script=st.lists(_op, max_size=12),
    interp=st.booleans(),
    unfold=st.booleans(),
    clean_start=st.booleans(),
)
# A buffered seed whose instance is deleted before the batch flushes.
@example(
    weights=[1, 2, 3],
    edges={(0, 1), (1, 2)},
    script=[("batch", [("set", 1, 9), ("delete", 1), ("set", 0, 50)])],
    interp=False,
    unfold=False,
    clean_start=True,
)
@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_engine_matches_full_recompute_and_could_change(
    weights, edges, script, interp, unfold, clean_start
):
    with unfolded(unfold):
        schema = compile_schema(SRC)
    assert bool(schema.compile_stats["constraints_folded"]) is not unfold
    db = Database(interpreted(schema) if interp else schema)
    reference = full_recompute_db(compile_schema(SRC))
    oracle = MarkingOracle(db)

    build = [("create", w) for w in weights] + [("link", a, b) for a, b in edges]
    # A write to a node nothing has read yet: always a fresh, measured wave.
    closing = [("create", 1), ("set", -1, 2)]
    for op in build + script + closing:
        if clean_start:
            db.engine.evaluate_all_out_of_date()
        oracle.new_operation()
        assert _run(db, op) == _run(reference, op), op
        if clean_start:
            assert _state(db) == _state(reference), op
    assert _state(db) == _state(reference)
    assert oracle.checked > 0


TWO_PORTS_SRC = """
relationship feed is v : integer from plug; end;
object class source is
  relationships out : feed multi plug;
  attributes weight : integer;
  rules out v = weight;
end;
object class mixer is
  relationships
    left  : feed socket;
    right : feed socket;
  attributes total : integer;
  rules total = left.v + right.v;
end;
"""


def test_two_ports_wired_to_one_producer_port_are_two_edges():
    """One edge per mention: ``left.v`` and ``right.v`` are two mentions
    even when both ports reach the same producer slot.  The view, the
    engine's fan-out and the test-side reference all count two."""
    db = Database(compile_schema(TWO_PORTS_SRC))
    oracle = MarkingOracle(db)
    src = db.create("source", weight=3)
    mix = db.create("mixer")
    db.connect(mix, "left", src, "out")
    db.connect(mix, "right", src, "out")
    assert db.get_attr(mix, "total") == 6  # clean start

    sent, total = (src, "out>v"), (mix, "total")
    assert db.depgraph.dependents(sent) == [total, total]
    assert db.depgraph.dependencies(total) == [sent, sent]
    assert reference_depgraph(db).dependents(sent) == [total, total]

    before = db.engine.counters.snapshot()
    oracle.new_operation()
    db.set_attr(src, "weight", 5)
    delta = db.engine.counters.delta_since(before)
    assert oracle.checked == 1
    assert (delta.slots_marked, delta.mark_edge_visits) == (2, 3)
    assert db.get_attr(mix, "total") == 10
    assert db.engine.counters.delta_since(before).rule_evaluations == 2
