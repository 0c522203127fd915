"""Reference engines: correctness equivalence and the E1 work blow-up."""

import pytest

from repro.core.database import Database
from tests.references import (
    TriggerBudgetExceeded,
    breadth_first_factory,
    depth_first_factory,
    full_recompute_factory,
)
from repro.workloads import (
    build_chain,
    build_diamond_ladder,
    build_random_dag,
    random_update_script,
    run_update_script,
    sum_node_schema,
)

FACTORIES = {
    "dfs": depth_first_factory,
    "bfs": breadth_first_factory,
    "full": full_recompute_factory,
}


def make_db(kind=None, **kwargs):
    factory = FACTORIES[kind]() if kind else None
    return Database(sum_node_schema(), engine_factory=factory, pool_capacity=256, **kwargs)


class TestEquivalence:
    @pytest.mark.parametrize("kind", ["dfs", "bfs", "full"])
    def test_chain_values_match_incremental(self, kind):
        reference = make_db()
        candidate = make_db(kind)
        for db in (reference, candidate):
            nodes = build_chain(db, 20)
            db.set_attr(nodes[3], "weight", 10)
            db.set_attr(nodes[11], "weight", 4)
        assert [
            reference.get_attr(i, "total") for i in reference.instance_ids()
        ] == [candidate.get_attr(i, "total") for i in candidate.instance_ids()]

    @pytest.mark.parametrize("kind", ["dfs", "bfs", "full"])
    def test_random_script_equivalence(self, kind):
        reference = make_db()
        candidate = make_db(kind)
        observed = []
        for db in (reference, candidate):
            nodes = build_random_dag(db, 30, edge_prob=0.3, seed=7)
            script = random_update_script(nodes, 60, seed=8)
            observed.append(run_update_script(db, script))
        assert observed[0] == observed[1]

    @pytest.mark.parametrize("kind", ["dfs", "bfs"])
    def test_diamond_final_state_correct(self, kind):
        reference = make_db()
        candidate = make_db(kind)
        results = []
        for db in (reference, candidate):
            ladder = build_diamond_ladder(db, depth=4)
            db.set_attr(ladder["top"], "weight", 5)
            results.append(db.get_attr(ladder["bottom"], "total"))
        assert results[0] == results[1]


class TestWorkBlowUp:
    def test_eager_dfs_exponential_on_ladder(self):
        """E1's core shape: eager triggers recompute per-path."""
        incremental_evals = {}
        trigger_evals = {}
        for depth in (4, 6):
            db_inc = make_db()
            ladder = build_diamond_ladder(db_inc, depth=depth)
            db_inc.get_attr(ladder["bottom"], "total")
            before = db_inc.engine.counters.snapshot()
            db_inc.set_attr(ladder["top"], "weight", 5)
            db_inc.get_attr(ladder["bottom"], "total")
            incremental_evals[depth] = db_inc.engine.counters.delta_since(
                before
            ).rule_evaluations

            db_trig = make_db("dfs")
            ladder = build_diamond_ladder(db_trig, depth=depth)
            before = db_trig.engine.counters.snapshot()
            db_trig.set_attr(ladder["top"], "weight", 5)
            trigger_evals[depth] = db_trig.engine.counters.delta_since(
                before
            ).rule_evaluations
        # Incremental grows linearly with depth; triggers explode.
        assert incremental_evals[6] <= incremental_evals[4] * 2
        assert trigger_evals[6] >= trigger_evals[4] * 3
        assert trigger_evals[6] > incremental_evals[6] * 5

    def test_full_recompute_scales_with_database_size(self):
        evals = {}
        for extra in (0, 200):
            db = make_db("full")
            nodes = build_chain(db, 10)
            for __ in range(extra):
                db.create("node")  # unrelated instances
            # Connect the extras into a separate chain so they have rules
            # in the dependency graph.
            before = db.engine.counters.snapshot()
            db.set_attr(nodes[0], "weight", 3)
            evals[extra] = db.engine.counters.delta_since(before).rule_evaluations
        assert evals[200] > evals[0]

    def test_random_dag_orders_the_three_engines(self):
        """E1 on an irregular graph: 120 nodes, p = 0.25, update at a root."""
        evals, values = {}, set()
        for kind in (None, "full", "dfs"):
            db = make_db(kind)
            nodes = build_random_dag(db, 120, edge_prob=0.25, seed=11)
            db.get_attr(nodes[-1], "total")
            before = db.engine.counters.snapshot()
            db.set_attr(nodes[0], "weight", 999)
            values.add(db.get_attr(nodes[-1], "total"))
            evals[kind] = db.engine.counters.delta_since(before).rule_evaluations
        assert len(values) == 1
        # At most once per derived slot; everything once; once per path.
        assert evals[None] < evals["full"] == 2 * 120
        assert evals["dfs"] > 100 * evals["full"]

    def test_budget_enforced(self):
        db = make_db()  # build with incremental first, then swap? no:
        db = Database(
            sum_node_schema(),
            engine_factory=depth_first_factory(budget=100),
            pool_capacity=256,
        )
        ladder = build_diamond_ladder(db, depth=10)
        with pytest.raises(TriggerBudgetExceeded):
            db.set_attr(ladder["top"], "weight", 5)


class TestEagerSemantics:
    def test_values_always_current_without_demand(self):
        db = make_db("dfs")
        nodes = build_chain(db, 5)
        db.set_attr(nodes[0], "weight", 10)
        # Eager engines have no out-of-date values; the cache is current.
        assert not db.engine.is_out_of_date((nodes[-1], "total"))
        assert db.instance(nodes[-1]).attrs["total"] == 14

    def test_demand_counts(self):
        db = make_db("bfs")
        iid = db.create("node", weight=2)
        db.get_attr(iid, "total")
        assert db.engine.counters.demands == 1

    def test_constraints_enforced_by_baselines(self):
        from repro.core.rules import Constraint, Local
        from repro.core.schema import Schema
        from repro.errors import TransactionAborted
        from repro.workloads.topologies import sum_node_schema as base_schema

        schema = base_schema()
        schema.unfreeze()
        schema.extend_class("node").add_constraint(
            Constraint("small", {"t": Local("total")}, lambda t: t < 100)
        )
        schema.freeze()
        db = Database(schema, engine_factory=depth_first_factory())
        iid = db.create("node", weight=1)
        with pytest.raises(TransactionAborted):
            db.set_attr(iid, "weight", 500)
        assert db.get_attr(iid, "weight") == 1
