"""The paper's optimality claims (experiments E1/E2/E3 invariants).

Section 2.2: "the attribute evaluation technique used in the Cactis system
will not evaluate any attribute that is not actually needed, and will not
evaluate any given attribute more than once."
"""

import pytest

from repro.core.database import Database
from repro.graph.depgraph import could_change
from tests.references import reference_depgraph
from repro.workloads import (
    build_chain,
    build_diamond_ladder,
    build_fan,
    sum_node_schema,
)


def fresh_db() -> Database:
    return Database(sum_node_schema(), pool_capacity=256)


class TestEvaluateAtMostOnce:
    def test_diamond_ladder_single_evaluation_per_slot(self):
        """On a 2^d-path ladder, each slot evaluates exactly once per wave."""
        db = fresh_db()
        ladder = build_diamond_ladder(db, depth=8)
        db.get_attr(ladder["bottom"], "total")
        before = db.engine.counters.snapshot()
        db.set_attr(ladder["top"], "weight", 42)
        db.get_attr(ladder["bottom"], "total")
        delta = db.engine.counters.delta_since(before)
        n_slots = 2 * len(ladder["all"])  # total + transmitted, per node
        assert delta.rule_evaluations <= n_slots
        # The work is linear in the region, nowhere near the 2^8 paths.
        assert delta.rule_evaluations < 2**8

    def test_marks_bounded_by_could_change(self):
        db = fresh_db()
        ladder = build_diamond_ladder(db, depth=6)
        db.get_attr(ladder["bottom"], "total")
        seed = (ladder["top"], "weight")
        region, edges = could_change(reference_depgraph(db), [seed])
        before = db.engine.counters.snapshot()
        db.set_attr(ladder["top"], "weight", 9)
        delta = db.engine.counters.delta_since(before)
        assert delta.slots_marked <= len(region)
        assert delta.mark_edge_visits <= edges + len(region)

    def test_evaluations_bounded_by_marks_plus_unseen(self):
        """A demand evaluates only marked or never-computed slots."""
        db = fresh_db()
        nodes = build_chain(db, 50)
        db.get_attr(nodes[-1], "total")  # everything computed once
        before = db.engine.counters.snapshot()
        db.set_attr(nodes[25], "weight", 7)
        db.get_attr(nodes[-1], "total")
        delta = db.engine.counters.delta_since(before)
        # Only the 24 downstream nodes (x2 slots each) can recompute.
        assert delta.rule_evaluations <= 2 * 24 + 2


class TestRepeatedUpdateCutShort:
    """E2: "if an attribute A were assigned 2 different values in a row
    before updating the system, the second assignment would only update A
    and not visit any other attributes and hence incur only O(1) overhead."
    """

    def test_second_assignment_marks_nothing(self):
        db = fresh_db()
        nodes = build_chain(db, 200)
        db.get_attr(nodes[-1], "total")
        db.set_attr(nodes[0], "weight", 5)  # marks the whole chain
        before = db.engine.counters.snapshot()
        db.set_attr(nodes[0], "weight", 6)  # everything already marked
        delta = db.engine.counters.delta_since(before)
        assert delta.slots_marked == 0
        assert delta.rule_evaluations == 0
        # Only the out-edges of the changed slot are visited.
        assert delta.mark_edge_visits <= 2

    def test_second_assignment_edge_visits_constant_in_chain_length(self):
        visits = {}
        for length in (10, 1000):
            db = fresh_db()
            nodes = build_chain(db, length)
            db.get_attr(nodes[-1], "total")
            db.set_attr(nodes[0], "weight", 5)
            before = db.engine.counters.snapshot()
            db.set_attr(nodes[0], "weight", 6)
            visits[length] = db.engine.counters.delta_since(
                before
            ).mark_edge_visits
        assert visits[10] == visits[1000]


class TestLaziness:
    """E3: unimportant attributes stay out of date until demanded."""

    def test_no_evaluation_without_demand(self):
        db = fresh_db()
        fan = build_fan(db, width=100)
        for consumer in fan["consumers"]:
            db.get_attr(consumer, "total")  # everything clean
        before = db.engine.counters.snapshot()
        db.set_attr(fan["hub"], "weight", 3)
        delta = db.engine.counters.delta_since(before)
        # Marking touched the consumers, but nothing was evaluated.
        assert delta.rule_evaluations == 0
        assert delta.slots_marked >= 100

    def test_demand_evaluates_only_that_consumer(self):
        db = fresh_db()
        fan = build_fan(db, width=100)
        for consumer in fan["consumers"]:
            db.get_attr(consumer, "total")
        db.set_attr(fan["hub"], "weight", 3)
        before = db.engine.counters.snapshot()
        db.get_attr(fan["consumers"][0], "total")
        delta = db.engine.counters.delta_since(before)
        # hub.total, hub's transmit, and the one consumer: three slots.
        assert delta.rule_evaluations <= 3

    def test_remaining_consumers_still_marked(self):
        db = fresh_db()
        fan = build_fan(db, width=10)
        for consumer in fan["consumers"]:
            db.get_attr(consumer, "total")
        db.set_attr(fan["hub"], "weight", 3)
        db.get_attr(fan["consumers"][0], "total")
        for other in fan["consumers"][1:]:
            assert db.engine.is_out_of_date((other, "total"))

    def test_watched_attribute_evaluated_eagerly(self):
        db = fresh_db()
        fan = build_fan(db, width=10)
        watched = fan["consumers"][0]
        db.watch(watched, "total")
        db.set_attr(fan["hub"], "weight", 3)
        # The standing demand made the slot important: it is already clean.
        assert not db.engine.is_out_of_date((watched, "total"))
        assert db.engine.is_out_of_date((fan["consumers"][1], "total"))

    def test_unwatch_restores_laziness(self):
        db = fresh_db()
        fan = build_fan(db, width=4)
        watched = fan["consumers"][0]
        db.watch(watched, "total")
        db.unwatch(watched, "total")
        db.set_attr(fan["hub"], "weight", 3)
        assert db.engine.is_out_of_date((watched, "total"))


class TestCorrectnessUnderLaziness:
    def test_values_always_consistent_when_read(self):
        db = fresh_db()
        nodes = build_chain(db, 20)
        db.set_attr(nodes[3], "weight", 10)
        db.set_attr(nodes[7], "weight", 20)
        db.set_attr(nodes[0], "weight", 30)
        expected = 30 + 1 + 1 + 10 + 1 + 1 + 1 + 20 + sum([1] * 12)
        assert db.get_attr(nodes[-1], "total") == expected

    def test_interleaved_sets_and_gets(self):
        db = fresh_db()
        nodes = build_chain(db, 10)
        for i, node in enumerate(nodes):
            db.set_attr(node, "weight", i)
            assert db.get_attr(nodes[-1], "total") == sum(range(i + 1)) + (
                9 - i
            )
