"""Flattened slot plans: structure, sharing, and invalidation.

The engine's hot loops trust :class:`repro.compile.slotplan.SlotPlan` to be
an exact flattening of the string-keyed dependency structure, and trust the
:class:`SlotPlanCache` to drop a memoized plan the moment an instance's
effective shape changes.  These tests pin both down; that the engine's
plan-driven marking visits exactly the dependency graph's ``Could_Change``
region is ``tests/evaluation/test_reference_oracles.py``'s property.
"""

from __future__ import annotations

from tests.conftest import give_cars
from tests.references import unfolded

from repro.core.database import Database
from repro.workloads import sum_node_schema
from repro.workloads.generators import (
    build_random_dag,
    random_update_script,
    run_update_script,
)


class TestPlanStructure:
    def test_local_and_crossing_edges_flattened(self, db):
        a = db.create("node", weight=1)
        db.get_attr(a, "total")
        plan = db.slot_plans.plan_of(a)
        weight = plan.index["weight"]
        total = plan.index["total"]
        transmit = plan.index["outputs>total"]
        # weight -> total -> outputs>total, as index arrays.
        assert total in plan.local_dependents[weight]
        assert transmit in plan.local_dependents[total]
        # The transmit slot carries its pre-split port and value.
        assert plan.kind[transmit] == 1
        assert plan.port_of[transmit] == "outputs"
        assert plan.value_of[transmit] == "total"
        # Consumers joining from the peer side find `total` under the
        # receive port.
        assert plan.receivers[("inputs", "total")] == (total,)

    def test_plans_shared_across_instances_of_one_shape(self, db):
        a = db.create("node", weight=1)
        b = db.create("node", weight=2)
        assert db.slot_plans.plan_of(a) is db.slot_plans.plan_of(b)
        assert db.slot_plans.plans_built == 1
        assert db.slot_plans.instances_cached == 2

    def test_dangling_port_read_uses_flow_default(self, db):
        a = db.create("node", weight=1)
        plan = db.slot_plans.plan_of(a)
        # Every flow of every port is precomputed (integer default: 0).
        assert plan.flow_defaults["inputs>total"] == 0
        assert db.read_slot_value((a, "inputs>total")) == 0


class TestInvalidation:
    def test_subtype_flip_swaps_the_plan(self, person_db):
        alice = person_db.create("person", name="alice")
        person_db.is_member(alice, "car_buff")
        before = person_db.slot_plans.plan_of(alice)
        assert "club" not in before.index
        give_cars(person_db, alice, 4)
        assert person_db.is_member(alice, "car_buff")
        after = person_db.slot_plans.plan_of(alice)
        assert after is not before
        assert "club" in after.index

    def test_membership_lapse_restores_base_plan(self, person_db):
        alice = person_db.create("person", name="alice")
        cars = give_cars(person_db, alice, 4)
        assert person_db.is_member(alice, "car_buff")
        rich = person_db.slot_plans.plan_of(alice)
        person_db.disconnect(cars[0], "owner", alice, "cars")
        assert not person_db.is_member(alice, "car_buff")
        assert person_db.slot_plans.plan_of(alice) is not rich
        # Same shape key as the original base plan: served from cache.
        bob = person_db.create("person", name="bob")
        assert person_db.slot_plans.plan_of(alice) is person_db.slot_plans.plan_of(bob)

    def test_delete_drops_the_memo(self, db):
        a = db.create("node", weight=1)
        assert db.slot_plans.plan_of(a) is not None
        db.delete(a)
        assert db.slot_plans.plan_of(a) is None

    def test_schema_extension_clears_every_plan(self, db):
        a = db.create("node", weight=1)
        stale = db.slot_plans.plan_of(a)
        with db.extend_schema() as schema:
            from repro.core.schema import AttributeDef, ObjectClass

            schema.add_class(
                ObjectClass("memo", attributes=[AttributeDef("text", "string")])
            )
        fresh = db.slot_plans.plan_of(a)
        assert fresh is not stale  # shape keys embed the schema version


class TestCostOrdering:
    def test_ruled_slots_sorted_by_descending_ops(self, db):
        """With freeze-time facts present, the plan assigns low sids to
        the expensive rules -- the For-Each accumulator must come before
        the one-op transmit rule -- stably on the declared order."""
        facts = db.schema.analysis_facts
        assert facts is not None
        a = db.create("node", weight=1)
        plan = db.slot_plans.plan_of(a)
        ruled = [
            (sid, name)
            for sid, name in enumerate(plan.names)
            if plan.rules[sid] is not None
        ]
        ops = [facts.cost.ops_of("node", name) for __, name in ruled]
        assert ops == sorted(ops, reverse=True)
        assert plan.index["total"] < plan.index["outputs>total"]

    def test_ordering_never_changes_engine_counters(self):
        """The cost permutation must be invisible to every counter: build
        one database with facts and one frozen without them and replay
        the same workload."""
        results = []
        for disable in (False, True):
            with unfolded(disable):
                schema = sum_node_schema()
            db = Database(schema, pool_capacity=256)
            assert (db.schema.analysis_facts is None) is disable
            nodes = build_random_dag(db, 25, edge_prob=0.3, seed=11)
            script = random_update_script(nodes, 60, seed=12, query_fraction=0.2)
            run_update_script(db, script, batch=False)
            finals = tuple(db.get_attr(iid, "total") for iid in nodes)
            c = db.engine.counters
            results.append(
                (c.waves, c.slots_marked, c.mark_edge_visits, c.rule_evaluations, finals)
            )
        assert results[0] == results[1]
