"""The count claims of EXPERIMENTS.md that no other test asserts.

Each test rebuilds the workload its EXPERIMENTS.md table was measured on
and asserts the *shape* the paper states -- an ordering, a growth law, a
quantity that must not move -- against the test-side references of
``tests/references.py`` where the claim is a comparison.  The counts are
deterministic (seeded workloads, hash-seed-independent traversal), so the
tables reproduce bit for bit; exact values are asserted only where the
paper's statement fixes them.
"""

import random

import pytest

from repro.core.database import Database
from repro.core.rules import Constraint, Local
from repro.env.flow import build_cfg, live_variables, parse_program, reaching_definitions
from repro.env.syntree import ExpressionTree
from repro.txn.manager import MultiUserScheduler
from repro.versions import VersionStream
from repro.workloads import (
    build_chain,
    build_fan,
    build_software_project,
    skewed_access_pattern,
    sum_node_schema,
)
from tests.references import ORDERS, db_in_order


def epoch_reads(db, accesses, update_every=5) -> int:
    """Disk reads of one cold pass: every fifth access writes, the rest read."""
    db.storage.buffer.clear()
    before = db.storage.disk.stats.snapshot()
    value = 1000
    for i, iid in enumerate(accesses):
        if update_every and i % update_every == update_every - 1:
            value += 1
            db.set_attr(iid, "weight", value)
        else:
            db.get_attr(iid, "total")
    return db.storage.disk.stats.delta_since(before).reads


def project_world(order="greedy", pool=6, decay=None):
    """The 10 x 12 project graph of E4 and the ablations: 512-byte blocks."""
    db = db_in_order(sum_node_schema(), order, block_capacity=512, pool_capacity=pool)
    if decay is not None:
        db.usage.decay = decay
    project = build_software_project(
        db, n_components=10, modules_per_component=12, cross_links=4, seed=0
    )
    return db, skewed_access_pattern(project, 300, seed=1)


def gather_reads(order: str) -> int:
    """Disk reads of E4's 64-way gather whose inputs sit block-interleaved."""
    db = db_in_order(sum_node_schema(), order, block_capacity=2048, pool_capacity=3)
    producers = [db.create("node", weight=i) for i in range(64)]
    hub = db.create("node")
    per_block = 64 // len({db.storage.block_of(p) for p in producers})
    # Connect block-interleaved: 0, k, 2k, ..., 1, k+1, ...
    for offset in range(per_block):
        for producer in producers[offset::per_block]:
            db.connect(hub, "inputs", producer, "outputs")
    for producer in producers:
        db.get_attr(producer, "total")  # everything clean on disk
    db.engine.invalidate_derived([(hub, "total")])
    db.storage.buffer.clear()
    before = db.storage.disk.stats.snapshot()
    assert db.get_attr(hub, "total") == sum(range(64))
    return db.storage.disk.stats.delta_since(before).reads


class TestE4GreedyScheduling:
    """Section 2.3: greedy I/O-aware order reads less than fixed orders."""

    def test_same_work_fewer_reads_than_fixed_orders(self):
        cold, warm, evaluations = {}, {}, {}
        for order in ORDERS:
            db, accesses = project_world(order)
            cold[order] = epoch_reads(db, accesses)  # also evaluates every total once
            warm[order] = epoch_reads(db, accesses)
            evaluations[order] = db.engine.counters.rule_evaluations
        assert len(set(evaluations.values())) == 1  # order never changes the work
        assert cold["greedy"] < cold["lifo"] < cold["fifo"]
        # Warm, greedy and depth-first are a wash on this mixed load (the
        # gather below is where promotion pays); breadth-first thrashes.
        assert abs(warm["greedy"] - warm["lifo"]) <= 0.01 * warm["lifo"]
        assert max(warm["greedy"], warm["lifo"]) < 0.9 * warm["fifo"]

    def test_learned_statistics_beat_worst_case_seeds(self):
        def warm_reads(decay=None, learn=True):
            db, accesses = project_world(decay=decay)
            if not learn:  # expected I/O stays at the cluster-time seeds
                db.usage.observe_io = lambda *args: None
            epoch_reads(db, accesses)
            return epoch_reads(db, accesses)

        seeds_only = warm_reads(learn=False)
        learned = [warm_reads(decay) for decay in (0.0, 0.5, 0.9)]
        assert max(learned) < seeds_only  # self-adaptive: observation pays
        # The factor tunes how fast, not where to: within ~1 % of each other.
        assert max(learned) - min(learned) <= 0.02 * min(learned)

    def test_interleaved_gather_promotion_dominates(self):
        reads = {order: gather_reads(order) for order in ORDERS}
        assert reads["greedy"] < reads["lifo"] < reads["fifo"]

    def test_exact_counts_where_order_matters(self):
        """Golden numbers: the orderings above survive a reordered heap tie
        or promotion list; these exact counts do not.  Re-baseline only in
        a change that means to move them, and say why."""
        db, accesses = project_world()
        cold = epoch_reads(db, accesses)
        warm = epoch_reads(db, accesses)
        counters = db.engine.counters
        assert (cold, warm) == (2923, 2686)
        assert counters.chunk_executions == 7807
        assert counters.fast_path_hits == 10499
        assert counters.rule_evaluations == 5592
        assert {order: gather_reads(order) for order in ORDERS} == {
            "greedy": 6,
            "lifo": 22,
            "fifo": 41,
        }


class TestE5Clustering:
    """Section 2.3: usage-driven reorganisation tightens locality."""

    def test_reorganize_recovers_the_locality_a_usage_blind_layout_loses(self):
        db = Database(sum_node_schema(), block_capacity=512, pool_capacity=4)
        project = build_software_project(
            db, n_components=12, modules_per_component=10, cross_links=3, seed=2
        )
        accesses = skewed_access_pattern(project, 400, hot_components=3, seed=3)

        def reads():
            return epoch_reads(db, accesses, update_every=0)

        reads()  # first evaluation of every total: not a layout measurement
        # The generator creates a component's modules together, so build
        # order is already the component-local layout the accesses want.
        build_order = reads()
        ids = db.instance_ids()
        sizes = {iid: db.instance(iid).record_size() for iid in ids}
        half = len(ids) // 2
        db.storage.apply_layout(  # usage-blind: pair instances half a project apart
            [[ids[i], ids[i + half]] for i in range(half)], sizes.__getitem__
        )
        striped = reads()
        db.reorganize()
        clustered = reads()
        assert build_order < striped
        assert clustered < striped
        # Most of what the striping cost comes back from usage counts alone.
        assert striped - clustered >= 0.75 * (striped - build_order)


class TestAblations:
    """What the design fixes, against the test-side alternative."""

    def test_reads_strictly_decrease_with_pool_size(self):
        reads = [
            epoch_reads(*project_world(pool=pool)) for pool in (2, 4, 8, 16, 32)
        ]
        assert all(small > large for small, large in zip(reads, reads[1:]))

    def test_laziness_pays_for_the_demanded_fraction_only(self):
        evaluations = {}
        for drain in (False, True):
            db = Database(sum_node_schema(), pool_capacity=4096)
            fan = build_fan(db, 200)
            for consumer in fan["consumers"]:
                db.get_attr(consumer, "total")
            before = db.engine.counters.snapshot()
            for step in range(5):
                db.set_attr(fan["hub"], "weight", 100 + step)
                if drain:  # the eager alternative: evaluate everything marked
                    db.engine.evaluate_all_out_of_date()
                db.get_attr(fan["consumers"][0], "total")
            evaluations[drain] = db.engine.counters.delta_since(before).rule_evaluations
        # Lazy: hub total + hub transmit + the one demanded consumer, per update.
        assert evaluations[False] == 5 * 3
        # Eager drain: every consumer's total and transmit too, every update.
        assert evaluations[True] == 5 * (2 * 200 + 2)


class TestE6DeltaEconomy:
    """Sections 2.2 / 3: a delta is as large as the initial change."""

    def test_delta_constant_while_the_ripple_grows_100x(self):
        shapes = set()
        for ripple in (10, 100, 1_000):
            db = Database(sum_node_schema(), pool_capacity=4096)
            nodes = build_chain(db, ripple)
            db.get_attr(nodes[-1], "total")
            db.set_attr(nodes[0], "weight", 500)
            assert db.get_attr(nodes[-1], "total") == ripple + 499  # ripple realised
            delta = db.txn.history[-1]
            shapes.add((len(delta.records), delta.size_estimate()))
            before = db.engine.counters.snapshot()
            db.undo()
            # Undo restores and re-marks; recomputation waits for a demand.
            assert db.engine.counters.delta_since(before).rule_evaluations == 0
            assert db.get_attr(nodes[-1], "total") == ripple
        assert len(shapes) == 1 and next(iter(shapes))[0] == 1


class TestE10Versions:
    """Section 3: checkout cost follows version distance, not database size."""

    @pytest.mark.parametrize("db_nodes", [100, 400])
    def test_checkout_replays_the_distance(self, db_nodes):
        db = Database(sum_node_schema(), pool_capacity=4096)
        stream = VersionStream(db)
        nodes = build_chain(db, db_nodes)
        totals = {"v0": db.get_attr(nodes[-1], "total")}
        stream.tag("v0")
        for v in range(1, 11):
            for e in range(3):
                db.set_attr(nodes[(v * 7 + e) % db_nodes], "weight", v * 10 + e)
            totals[f"v{v}"] = db.get_attr(nodes[-1], "total")
            stream.tag(f"v{v}")
        for target, records in (("v9", 3), ("v5", 15), ("v0", 30)):
            assert stream.distance("v10", target) == records
            stream.checkout(target)
            assert db.get_attr(nodes[-1], "total") == totals[target]
            stream.checkout("v10")


class TestE7TimestampOrdering:
    """Section 1.1: every transaction commits; restarts grow with contention."""

    def test_all_commit_and_contention_costs_restarts(self):
        def scripts(items, hot_fraction):
            def make(rng):
                def script(session):
                    for step in range(4):
                        hot = rng.random() < hot_fraction
                        target = items[0 if hot else rng.randrange(1, len(items))]
                        if step % 2 == 0:
                            session.set_attr(target, "weight", session.ts)
                        else:
                            session.get_attr(target, "total")
                        yield

                return script

            return [(f"user{u}", make(random.Random(u * 997))) for u in range(8)]

        restarts = {}
        for hot_fraction in (0.05, 0.8):
            db = Database(sum_node_schema(), pool_capacity=4096)
            items = [db.create("node", weight=0) for __ in range(64)]
            result = MultiUserScheduler(db, seed=42).run(
                scripts(items, hot_fraction), max_restarts=500
            )
            assert len(result.committed) == 8
            restarts[hot_fraction] = result.restarts
        assert restarts[0.8] > restarts[0.05]


class TestE11FixedPoint:
    """Section 4: looping flow graphs stabilise in size-independent rounds."""

    def test_rounds_do_not_grow_with_the_program(self):
        def program(n_loops):
            parts = ["total = 0;"]
            for i in range(n_loops):
                parts.append(f"i{i} = 0;")
                parts.append(
                    f"while (i{i} < 10) {{"
                    f" if (i{i} > 5) {{ total = total + 2; }}"
                    f" else {{ total = total + 1; }}"
                    f" i{i} = i{i} + 1; }}"
                )
            parts.append("print(total);")
            return "\n".join(parts)

        rounds = set()
        for n_loops in (5, 20, 50):
            cfg = build_cfg(parse_program(program(n_loops)))
            assert cfg.has_cycle()
            reaching, live = reaching_definitions(cfg), live_variables(cfg)
            assert reaching.iterations >= 2  # a loop forces an extra round
            rounds.add((reaching.iterations, live.iterations))
        assert len(rounds) == 1


class TestE12ConstraintCost:
    """Section 2.2: constraints are important slots -- eager integrity."""

    def test_an_update_evaluates_what_its_constraints_cover(self):
        evaluations = {}
        for n_constraints in (0, 1, 4):
            schema = sum_node_schema()
            schema.unfreeze()
            node = schema.extend_class("node")
            for i in range(n_constraints):
                node.add_constraint(
                    Constraint(
                        f"cap{i}",
                        {"t": Local("total")},
                        lambda t, limit=10_000 * (i + 1): t <= limit,
                    )
                )
            db = Database(schema.freeze(), pool_capacity=4096)
            nodes = build_chain(db, 50)
            db.get_attr(nodes[-1], "total")
            before = db.engine.counters.snapshot()
            db.set_attr(nodes[0], "weight", 55)
            delta = db.engine.counters.delta_since(before)
            evaluations[n_constraints] = delta.rule_evaluations
        assert evaluations[0] == 0  # nothing important: all deferred
        # 50 totals + 49 transmits, plus one predicate per constraint per node.
        assert evaluations[1] == 99 + 50
        assert evaluations[4] == 99 + 4 * 50


class TestSyntaxDirectedEditing:
    """[Rep82]: a leaf edit costs the spine above it, not the tree."""

    def test_leaf_edit_work_is_linear_in_depth(self):
        evaluations = {}
        for depth in (4, 6, 8):
            tree = ExpressionTree()

            def build(level):
                if level == 0:
                    return tree.literal(1)
                return tree.operation("+", build(level - 1), build(level - 1))

            root = build(depth)
            leaf = tree.db.instances_of("literal")[0]
            tree.value(root)
            tree.text(root)
            before = tree.db.engine.counters.snapshot()
            tree.set_literal(leaf, 42)
            tree.value(root)
            tree.text(root)
            delta = tree.db.engine.counters.delta_since(before)
            evaluations[depth] = delta.rule_evaluations
        per_level = (evaluations[6] - evaluations[4]) // 2
        assert evaluations[8] - evaluations[6] == 2 * per_level > 0
        assert evaluations[8] < (2 ** 9 - 1) // 10  # 511 nodes, a few dozen evaluations
