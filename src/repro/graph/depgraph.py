"""The attribute dependency graph, as a view.

"An attribute is *dependent* on another attribute if that attribute is
mentioned in its attribute evaluation rule."  One directed edge per such
mention, between *slots* (see :mod:`repro.core.slots`): an edge
``src -> dst`` means ``dst``'s rule reads ``src``, so a change to ``src``
may put ``dst`` out of date.

The edge set is a pure function of instance shapes and live connections,
so it is not stored: :class:`DependencyView` reads it off the slot plans
(:mod:`repro.compile.slotplan`) the engine itself traverses.  A value
received across two connections that reach the same producer slot (two
ports of one consumer wired to one producer port) is two mentions, hence
two edges; ``dependents`` / ``dependencies`` then list the far slot twice.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.core.slots import Slot


class DependencyView:
    """Read-only dependency graph over a database's slots.  Holds no edges."""

    def __init__(self, plans: Any) -> None:
        self._plans = plans

    def dependents(self, slot: Slot) -> list[Slot]:
        """Slots whose rules read ``slot``, in the engine's fan-out order."""
        plans = self._plans
        plan = plans.plan_of(slot[0])
        if plan is None:
            return []
        return plan.dependents(slot[0], slot[1], plans)

    def dependencies(self, slot: Slot) -> list[Slot]:
        """Slots read by ``slot``'s rule, in rule-input order."""
        plans = self._plans
        plan = plans.plan_of(slot[0])
        if plan is None:
            return []
        return plan.dependencies(slot[0], slot[1], plans.instance_of(slot[0]))

    def slots(self) -> Iterator[Slot]:
        """Every slot that appears on at least one edge."""
        plans = self._plans
        seen: dict[Slot, None] = {}
        for iid in plans.instance_ids():
            for name in plans.plan_of(iid).rule_for:
                sources = self.dependencies((iid, name))
                if sources:
                    seen.update(dict.fromkeys(sources))
                    seen[(iid, name)] = None
        return iter(seen)


def could_change(graph: Any, seeds: Iterable[Slot]) -> tuple[set[Slot], int]:
    """The paper's ``Could_Change(A)`` set and its edge count.

    All slots reachable from the seed slots via dependency edges, together
    with the number of edges inside that region -- the quantities in the
    amortised overhead bound
    ``O(Nodes(Could_Change(A)) + Edges(Could_Change(A)))``.  ``graph`` is
    anything with ``dependents(slot)``.
    """
    reached = set(seeds)
    edges = 0
    stack = list(reached)
    while stack:
        slot = stack.pop()
        for dst in graph.dependents(slot):
            edges += 1
            if dst not in reached:
                reached.add(dst)
                stack.append(dst)
    return reached, edges
