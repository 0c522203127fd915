"""Engine behaviour: demand, cycles, transitive flows, wave hygiene."""

from unittest import mock

import pytest

from repro.core.database import Database
from repro.errors import CycleError
from repro.workloads import build_chain, build_fan, build_grid, link, sum_node_schema
from tests.references import ORDERS, db_in_order


def fresh_db(**kwargs) -> Database:
    return Database(sum_node_schema(), **kwargs)


class TestDemand:
    def test_intrinsic_demand_returns_stored_value(self, db):
        iid = db.create("node", weight=9)
        assert db.get_attr(iid, "weight") == 9

    def test_derived_demand_transitive(self, db):
        nodes = build_chain(db, 5)
        assert db.get_attr(nodes[-1], "total") == 5

    def test_clean_demand_does_not_reevaluate(self, db):
        nodes = build_chain(db, 5)
        db.get_attr(nodes[-1], "total")
        before = db.engine.counters.snapshot()
        db.get_attr(nodes[-1], "total")
        assert db.engine.counters.delta_since(before).rule_evaluations == 0

    def test_grid_values_correct(self, db):
        grid = build_grid(db, 4, 4)
        # Each cell's total counts weighted paths; the sink's value equals
        # the number of monotone lattice paths weighted by cells.  Compute
        # the expectation independently.
        expect = {}
        for r in range(4):
            for c in range(4):
                incoming = 0
                if r > 0:
                    incoming += expect[(r - 1, c)]
                if c > 0:
                    incoming += expect[(r, c - 1)]
                expect[(r, c)] = 1 + incoming
        assert db.get_attr(grid["sink"], "total") == expect[(3, 3)]


class TestCycleDetection:
    def test_cycle_forming_connect_rejected(self, db):
        a, b = db.create("node"), db.create("node")
        link(db, a, b)
        with pytest.raises(CycleError):
            link(db, b, a)

    def test_engine_usable_after_cycle_error(self, db):
        a, b = db.create("node", weight=1), db.create("node", weight=2)
        link(db, a, b)
        with pytest.raises(CycleError):
            link(db, b, a)
        # The offending connect was rolled back; values still retrievable.
        c = db.create("node", weight=4)
        link(db, c, b)
        assert db.get_attr(b, "total") == 7  # b depends on a (1) and c (4)

    def test_long_cycle_detected(self, db):
        nodes = build_chain(db, 10)
        db.get_attr(nodes[-1], "total")
        with pytest.raises(CycleError) as excinfo:
            link(db, nodes[-1], nodes[0])  # closes the loop
        assert len(excinfo.value.slots) >= 2
        # Rolled back: values unchanged and the chain still acyclic.
        assert db.get_attr(nodes[-1], "total") == 10

    def test_self_loop_rejected(self, db):
        a = db.create("node")
        with pytest.raises(CycleError):
            db.connect(a, "inputs", a, "outputs")
        assert db.view(a).connections("inputs") == []

    def test_lazy_mode_detects_at_demand(self):
        # The engine's own wait-for-cycle detection, reached by blinding
        # the connect-time check (which is always on).
        db = Database(sum_node_schema())
        a, b = db.create("node"), db.create("node")
        link(db, a, b)
        with mock.patch.object(Database, "_find_dependent_path", return_value=None):
            link(db, b, a)
        with pytest.raises(CycleError):
            db.get_attr(a, "total")


class TestDeepGraphs:
    def test_chain_10k_no_recursion_error(self):
        db = fresh_db(pool_capacity=1024)
        nodes = build_chain(db, 10_000)
        assert db.get_attr(nodes[-1], "total") == 10_000

    def test_deep_ripple(self):
        db = fresh_db(pool_capacity=1024)
        nodes = build_chain(db, 2_000)
        db.get_attr(nodes[-1], "total")
        db.set_attr(nodes[0], "weight", 100)
        assert db.get_attr(nodes[-1], "total") == 2_099


class TestSchedulingPoliciesAgree:
    @pytest.mark.parametrize("policy", ORDERS)
    def test_policies_compute_identical_values(self, policy):
        db = db_in_order(sum_node_schema(), policy, pool_capacity=4)
        grid = build_grid(db, 5, 5)
        baseline = Database(sum_node_schema(), pool_capacity=1024)
        grid2 = build_grid(baseline, 5, 5)
        assert db.get_attr(grid["sink"], "total") == baseline.get_attr(
            grid2["sink"], "total"
        )
        db.set_attr(grid["origin"], "weight", 50)
        baseline.set_attr(grid2["origin"], "weight", 50)
        assert db.get_attr(grid["sink"], "total") == baseline.get_attr(
            grid2["sink"], "total"
        )


class TestUnchangedValues:
    def test_unchanged_evaluations_counted(self, db):
        # Node whose weight flips between values producing the same total
        # downstream is still recomputed once but flagged unchanged.
        a, b = db.create("node", weight=2), db.create("node", weight=1)
        link(db, a, b)
        db.get_attr(b, "total")
        db.set_attr(a, "weight", 3)
        db.set_attr(a, "weight", 2)  # back to original
        before = db.engine.counters.snapshot()
        db.get_attr(b, "total")
        delta = db.engine.counters.delta_since(before)
        assert delta.unchanged_evaluations >= 1


class TestEagerMode:
    """Laziness against its alternative: draining every mark after each
    update with ``evaluate_all_out_of_date()``."""

    def test_eager_mode_leaves_nothing_out_of_date(self):
        db = fresh_db()
        fan = build_fan(db, 10)
        db.set_attr(fan["hub"], "weight", 7)
        assert db.engine.out_of_date  # lazy: unimportant slots stay marked
        db.engine.evaluate_all_out_of_date()
        assert not db.engine.out_of_date
        for consumer in fan["consumers"]:
            assert db.instance(consumer).attrs["total"] == 8

    def test_eager_and_lazy_agree_on_values(self):
        results = []
        for eager in (False, True):
            db = fresh_db()
            nodes = build_chain(db, 10)
            db.set_attr(nodes[2], "weight", 5)
            if eager:
                db.engine.evaluate_all_out_of_date()
            results.append([db.get_attr(n, "total") for n in nodes])
        assert results[0] == results[1]
