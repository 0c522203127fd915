"""Batched propagation waves: ``Database.batch`` and batched transactions.

The batch API defers phase-1 marking across many primitive updates and
runs one coalesced wave at close.  These tests pin its contract: deferral
and coalescing are observable only through the counters -- values, marks
at close, and constraint outcomes are identical to per-update waves.
"""

import pytest

from repro.core.database import Database
from repro.core.rules import (
    AttributeTarget,
    Constraint,
    Local,
    Received,
    Rule,
    TransmitTarget,
)
from repro.core.schema import (
    AttrKind,
    AttributeDef,
    End,
    FlowDecl,
    ObjectClass,
    PortDef,
    RelationshipType,
    Schema,
)
from repro.errors import TransactionAborted, UnknownAttributeError
from repro.workloads import build_chain, link, sum_node_schema
from tests.references import fixed_order_db, full_recompute_db


def constrained_schema() -> Schema:
    schema = Schema()
    schema.add_relationship_type(
        RelationshipType("dep", [FlowDecl("total", "integer", End.PLUG)])
    )
    schema.add_class(
        ObjectClass(
            "node",
            attributes=[
                AttributeDef("weight", "integer"),
                AttributeDef("cap", "integer", default=100),
                AttributeDef("total", "integer", AttrKind.DERIVED),
            ],
            ports=[
                PortDef("inputs", "dep", End.SOCKET, multi=True),
                PortDef("outputs", "dep", End.PLUG, multi=True),
            ],
            rules=[
                Rule(
                    AttributeTarget("total"),
                    {"w": Local("weight"), "ins": Received("inputs", "total")},
                    lambda w, ins: w + sum(ins),
                ),
                Rule(
                    TransmitTarget("outputs", "total"),
                    {"t": Local("total")},
                    lambda t: t,
                ),
            ],
            constraints=[
                Constraint(
                    "under_cap",
                    {"total": Local("total"), "cap": Local("cap")},
                    lambda total, cap: total <= cap,
                )
            ],
        )
    )
    return schema.freeze()


class TestDeferralAndCoalescing:
    def test_marking_deferred_until_close(self, db):
        nodes = build_chain(db, 4)
        db.get_attr(nodes[-1], "total")  # clean
        with db.batch():
            db.set_attr(nodes[0], "weight", 9)
            assert (nodes[-1], "total") not in db.engine.out_of_date
        assert (nodes[-1], "total") in db.engine.out_of_date

    def test_one_wave_for_many_updates(self, db):
        nodes = build_chain(db, 6)
        db.get_attr(nodes[-1], "total")
        before = db.engine.counters.snapshot()
        with db.batch():
            for iid in nodes:
                db.set_attr(iid, "weight", 3)
        delta = db.engine.counters.delta_since(before)
        assert delta.waves == 1
        assert delta.batched_updates == len(nodes)
        assert db.get_attr(nodes[-1], "total") == 3 * len(nodes)

    def test_values_identical_to_per_update(self):
        def run(batch: bool) -> list[int]:
            db = Database(sum_node_schema())
            nodes = build_chain(db, 8)
            link(db, nodes[2], nodes[6])
            db.get_attr(nodes[-1], "total")
            updates = [(nodes[i % 8], (i * 7) % 23 + 1) for i in range(40)]
            if batch:
                with db.batch():
                    for iid, value in updates:
                        db.set_attr(iid, "weight", value)
            else:
                for iid, value in updates:
                    db.set_attr(iid, "weight", value)
            return [db.get_attr(iid, "total") for iid in nodes]

        assert run(batch=True) == run(batch=False)

    def test_nested_batches_flush_once_at_outermost_close(self, db):
        nodes = build_chain(db, 4)
        db.get_attr(nodes[-1], "total")
        before = db.engine.counters.snapshot()
        with db.batch():
            db.set_attr(nodes[0], "weight", 2)
            with db.batch():
                db.set_attr(nodes[1], "weight", 3)
            # Inner close must not run the wave.
            assert (nodes[-1], "total") not in db.engine.out_of_date
        assert db.engine.counters.delta_since(before).waves == 1

    def test_connect_and_disconnect_batch_too(self, db):
        a = db.create("node", weight=1)
        b = db.create("node", weight=2)
        c = db.create("node", weight=4)
        link(db, a, c)
        db.get_attr(c, "total")
        before = db.engine.counters.snapshot()
        with db.batch():
            link(db, b, c)
            db.set_attr(a, "weight", 10)
        assert db.engine.counters.delta_since(before).waves == 1
        assert db.get_attr(c, "total") == 16


class TestMidBatchReads:
    def test_read_inside_batch_sees_fresh_value(self, db):
        nodes = build_chain(db, 5)
        db.get_attr(nodes[-1], "total")
        with db.batch():
            db.set_attr(nodes[0], "weight", 50)
            assert db.get_attr(nodes[-1], "total") == 50 + 4

    def test_read_flush_keeps_later_updates_batched(self, db):
        nodes = build_chain(db, 5)
        db.get_attr(nodes[-1], "total")
        with db.batch():
            db.set_attr(nodes[0], "weight", 50)
            db.get_attr(nodes[-1], "total")  # flushes the first seed
            db.set_attr(nodes[1], "weight", 7)
            # The post-read update is deferred again until close.
            assert (nodes[-1], "total") not in db.engine.out_of_date
        assert db.get_attr(nodes[-1], "total") == 50 + 7 + 3


class TestImportanceAtClose:
    def test_standing_demand_evaluated_once_at_close(self, db):
        nodes = build_chain(db, 10)
        db.watch(nodes[-1], "total")
        before = db.engine.counters.snapshot()
        for value in range(2, 7):
            db.set_attr(nodes[0], "weight", value)
        per_update = db.engine.counters.delta_since(before).rule_evaluations

        before = db.engine.counters.snapshot()
        with db.batch():
            for value in range(2, 7):
                db.set_attr(nodes[0], "weight", value)
        batched = db.engine.counters.delta_since(before).rule_evaluations
        assert batched < per_update
        assert db.get_attr(nodes[-1], "total") == 6 + 9

    def test_constraint_violation_at_close_rolls_back_whole_batch(self):
        db = Database(constrained_schema())
        a = db.create("node", weight=10, cap=100)
        b = db.create("node", weight=5, cap=40)
        db.connect(a, "outputs", b, "inputs")
        db.get_attr(b, "total")
        with pytest.raises(TransactionAborted):
            with db.batch():
                db.set_attr(a, "weight", 20)   # fine on its own
                db.set_attr(b, "weight", 30)   # 20 + 30 > cap 40
        # The *whole* batch rolled back, including the innocent update.
        assert db.get_attr(a, "weight") == 10
        assert db.get_attr(b, "weight") == 5
        assert db.get_attr(b, "total") == 15

    def test_batch_overshoot_resolved_within_batch_commits(self):
        db = Database(constrained_schema())
        iid = db.create("node", weight=10, cap=50)
        db.get_attr(iid, "total")
        # Per-update waves would veto the first assignment; the batch only
        # checks the constraint against the *final* state at close.
        with db.batch():
            db.set_attr(iid, "weight", 80)
            db.set_attr(iid, "weight", 30)
        assert db.get_attr(iid, "weight") == 30
        assert db.get_attr(iid, "total") == 30


class TestErrorPaths:
    def test_exception_inside_batch_flushes_marks(self, db):
        nodes = build_chain(db, 4)
        db.get_attr(nodes[-1], "total")
        with pytest.raises(UnknownAttributeError):
            with db.batch():
                db.set_attr(nodes[0], "weight", 9)
                db.set_attr(nodes[0], "no_such_attr", 1)
        # The batch is one transaction: the first update is rolled back
        # with it, and no staleness was lost in the unwind.
        assert not db.txn.in_transaction
        assert db.get_attr(nodes[0], "weight") == 1
        assert db.get_attr(nodes[-1], "total") == 4

    def test_foreign_exception_rolls_back_the_implicit_transaction(self, db):
        """Regression: the block's writes used to stay applied inside an
        implicit transaction nothing would ever commit or abort, so the
        next ``begin`` raised "a transaction is already active"."""
        a = db.create("node", weight=1)
        commits = db.txn.commits
        with pytest.raises(ValueError):
            with db.batch():
                db.set_attr(a, "weight", 5)
                raise ValueError("not ours")
        assert not db.txn.in_transaction
        assert db.get_attr(a, "weight") == 1
        assert db.get_attr(a, "total") == 1
        assert db.txn.commits == commits
        db.begin()
        db.set_attr(a, "weight", 7)
        db.commit()
        assert db.get_attr(a, "total") == 7

    def test_foreign_exception_inside_explicit_transaction_is_left_to_it(self, db):
        a = db.create("node", weight=1)
        db.begin()
        with pytest.raises(ValueError):
            with db.batch():
                db.set_attr(a, "weight", 5)
                raise ValueError("not ours")
        # The enclosing transaction still owns the write and its fate.
        assert db.txn.in_transaction
        assert db.get_attr(a, "weight") == 5
        db.abort()
        assert db.get_attr(a, "weight") == 1

    def test_engine_usable_after_batch_abort(self):
        db = Database(constrained_schema())
        iid = db.create("node", weight=10, cap=50)
        with pytest.raises(TransactionAborted):
            with db.batch():
                db.set_attr(iid, "weight", 60)
        db.set_attr(iid, "weight", 45)
        assert db.get_attr(iid, "total") == 45


class TestBatchedTransactions:
    def test_transaction_batch_defers_to_commit(self, db):
        nodes = build_chain(db, 5)
        db.get_attr(nodes[-1], "total")
        before = db.engine.counters.snapshot()
        with db.transaction(batch=True):
            for iid in nodes:
                db.set_attr(iid, "weight", 2)
            assert (nodes[-1], "total") not in db.engine.out_of_date
        assert db.engine.counters.delta_since(before).waves == 1
        assert db.get_attr(nodes[-1], "total") == 10

    def test_batched_transaction_constraint_aborts(self):
        db = Database(constrained_schema())
        iid = db.create("node", weight=10, cap=50)
        db.get_attr(iid, "total")
        with pytest.raises(TransactionAborted):
            with db.transaction(batch=True):
                db.set_attr(iid, "weight", 60)
        assert db.get_attr(iid, "weight") == 10
        assert not db.txn.in_transaction

    def test_explicit_abort_of_batched_transaction(self, db):
        nodes = build_chain(db, 4)
        db.get_attr(nodes[-1], "total")
        db.begin(batch=True)
        db.set_attr(nodes[0], "weight", 42)
        db.abort()
        assert db.get_attr(nodes[0], "weight") == 1
        assert db.get_attr(nodes[-1], "total") == 4

    def test_batching_is_chosen_per_transaction(self, db):
        nodes = build_chain(db, 5)
        db.get_attr(nodes[-1], "total")
        before = db.engine.counters.snapshot()
        with db.transaction(batch=True):
            for iid in nodes:
                db.set_attr(iid, "weight", 2)
        assert db.engine.counters.delta_since(before).waves == 1
        before = db.engine.counters.snapshot()
        with db.transaction(batch=False):
            db.set_attr(nodes[0], "weight", 3)
            db.set_attr(nodes[1], "weight", 3)
        assert db.engine.counters.delta_since(before).waves == 2

    def test_unbatched_transaction_still_immediate(self, db):
        nodes = build_chain(db, 3)
        db.get_attr(nodes[-1], "total")
        with db.transaction():
            db.set_attr(nodes[0], "weight", 9)
            assert (nodes[-1], "total") in db.engine.out_of_date


class TestBaselinesAndFastPath:
    def test_batch_on_reference_engine_yields_full_recompute_values(self):
        db = full_recompute_db(sum_node_schema())
        nodes = build_chain(db, 4)
        with db.batch():
            db.set_attr(nodes[0], "weight", 6)
        assert db.get_attr(nodes[-1], "total") == 6 + 3

    def test_fast_path_hits_replace_chunk_executions(self):
        db = Database(sum_node_schema(), pool_capacity=4096)
        nodes = build_chain(db, 6)
        db.get_attr(nodes[-1], "total")
        before = db.engine.counters.snapshot()
        db.set_attr(nodes[0], "weight", 7)
        delta = db.engine.counters.delta_since(before)
        # Everything is resident: marking rode the fast lane exclusively.
        assert delta.fast_path_hits > 0
        assert delta.chunk_executions == 0

    def test_non_greedy_policies_keep_chunked_waves(self):
        db = fixed_order_db(sum_node_schema(), "fifo", pool_capacity=4096)
        nodes = build_chain(db, 6)
        db.get_attr(nodes[-1], "total")
        before = db.engine.counters.snapshot()
        db.set_attr(nodes[0], "weight", 7)
        delta = db.engine.counters.delta_since(before)
        assert delta.fast_path_hits == 0
        assert delta.chunk_executions > 0
