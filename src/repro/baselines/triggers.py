"""Trigger-style propagation baselines.

Section 2.2 motivates the incremental algorithm by contrast with triggers:

    "If we choose a naive ordering for recomputing data values after a
    change, we may waste a great deal of work by computing the same data
    values several times.  For example, a simple trigger mechanism might
    work recursively, invoking new triggers as soon as data changes.  Any
    trigger mechanism which uses a fixed ordering of some sort (e.g. depth
    first or breadth first) can needlessly recompute some values, in fact,
    in the worst case can recompute an exponential number of values."

These engines implement exactly those strawmen.  They are *correct* -- the
final database state matches the incremental engine's -- but eager: every
dependency edge out of a changed slot fires a recomputation immediately, so
a slot is recomputed once per *path* from the change, which is exponential
on diamond-ladder graphs (experiment E1).

All engines plug into :class:`repro.core.database.Database` through the
``engine_factory`` hook and report through the shared
:class:`~repro.evaluation.counters.EvalCounters`, so benchmarks compare the
same quantities.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.rules import is_constraint_attr, is_subtype_attr
from repro.core.slots import Slot
from repro.errors import CactisError, RuleEvaluationError
from repro.evaluation.counters import EvalCounters
from repro.graph.cycles import topological_order

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


class TriggerBudgetExceeded(CactisError):
    """An eager baseline exceeded its recomputation budget.

    Eager propagation is exponential on path-rich graphs; the budget turns
    a runaway benchmark into a measurable, reportable event.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        super().__init__(f"trigger propagation exceeded {budget} recomputations")


class EagerTriggerEngine:
    """Base class for eager per-edge trigger propagation.

    Subclasses choose the firing order (depth-first stack vs breadth-first
    queue).  Evaluation is push-based: a change recomputes each dependent
    immediately and then pushes *its* dependents, once per edge -- so a slot
    is recomputed once per path from the change.  Missing values (never
    computed) are pull-evaluated in dependency order on first touch.
    """

    #: kept for interface parity with the incremental engine; eager engines
    #: never leave anything out of date.
    out_of_date: set[Slot]

    def __init__(self, host: "Database", budget: int | None = None) -> None:
        # Baselines walk the database's dependency-graph view and rule map
        # directly; the incremental engine's host protocol has neither.
        self.host = host
        self.budget = budget
        self.counters = EvalCounters()
        self.out_of_date = set()
        self.standing_demands: set[Slot] = set()
        self._recomputes_this_txn = 0

    # -- order hook ------------------------------------------------------------

    def _make_worklist(self, seeds: Iterable[Slot]) -> Any:
        raise NotImplementedError

    def _pop(self, worklist: Any) -> Slot:
        raise NotImplementedError

    def _push(self, worklist: Any, slot: Slot) -> None:
        raise NotImplementedError

    # -- Database-facing interface ---------------------------------------------

    def propagate_intrinsic_change(self, slot: Slot) -> None:
        self._recomputes_this_txn = 0
        self._fire_from([slot])

    def invalidate_derived(self, slots: Iterable[Slot]) -> None:
        self._recomputes_this_txn = 0
        slots = list(slots)
        for slot in slots:
            self._recompute(slot)
        self._fire_from(slots)

    def demand(self, slot: Slot) -> Any:
        self.counters.demands += 1
        if not self.host.has_slot_value(slot) and self.host.rule_for(slot) is not None:
            self._pull_evaluate(slot)
        self.host.storage.touch(slot[0])
        return self.host.read_slot_value(slot)

    def register_demand(self, slot: Slot) -> None:
        self.standing_demands.add(slot)
        if self.host.rule_for(slot) is not None and not self.host.has_slot_value(slot):
            self._pull_evaluate(slot)

    def unregister_demand(self, slot: Slot) -> None:
        self.standing_demands.discard(slot)

    def forget_slot(self, slot: Slot) -> None:
        self.standing_demands.discard(slot)

    def evaluate_all_out_of_date(self) -> None:
        """Eager engines keep everything current; nothing to do."""

    def is_out_of_date(self, slot: Slot) -> bool:
        return False

    def reset_wave(self) -> None:
        """Interface parity with the incremental engine; nothing queued."""

    # -- propagation machinery ---------------------------------------------

    def _fire_from(self, seeds: Iterable[Slot]) -> None:
        worklist = self._make_worklist([])
        for seed in seeds:
            for dependent in self.host.depgraph.dependents(seed):
                self.counters.mark_edge_visits += 1
                self._push(worklist, dependent)
        while worklist:
            slot = self._pop(worklist)
            self._recompute(slot)
            for dependent in self.host.depgraph.dependents(slot):
                self.counters.mark_edge_visits += 1
                self._push(worklist, dependent)

    def _recompute(self, slot: Slot) -> None:
        """Re-run one slot's rule against current (cached) input values."""
        rule = self.host.rule_for(slot)
        if rule is None:
            return
        if self.budget is not None:
            self._recomputes_this_txn += 1
            if self._recomputes_this_txn > self.budget:
                raise TriggerBudgetExceeded(self.budget)
        bindings = self.host.resolved_inputs(slot)
        values: dict[Slot, Any] = {}
        for binding in bindings:
            for dep in binding.slots:
                if dep in values:
                    continue
                if not self.host.has_slot_value(dep) and self.host.rule_for(dep) is not None:
                    self._pull_evaluate(dep)
                self.host.storage.touch(dep[0])
                values[dep] = self.host.read_slot_value(dep)
        self.host.storage.touch(slot[0], dirty=True)
        kwargs = {b.kw: b.assemble(slot[0], values) for b in bindings}
        try:
            value = rule.body(**kwargs)
        except Exception as exc:
            raise RuleEvaluationError(slot, exc) from exc
        had_old = self.host.has_slot_value(slot)
        old = self.host.read_slot_value(slot) if had_old else None
        self.host.write_slot_value(slot, value)
        self.counters.rule_evaluations += 1
        if had_old and old == value:
            self.counters.unchanged_evaluations += 1
        name = slot[1]
        if is_constraint_attr(name):
            self.host.handle_constraint_result(slot, bool(value))
        elif is_subtype_attr(name):
            self.host.handle_subtype_result(slot, bool(value))

    def _pull_evaluate(self, slot: Slot) -> None:
        """First-touch evaluation of a never-computed slot, deps first."""

        def dependencies(s: Slot) -> list[Slot]:
            if self.host.has_slot_value(s) or self.host.rule_for(s) is None:
                return []
            return self.host.depgraph.dependencies(s)

        order = topological_order([slot], dependencies)
        for s in order:
            if self.host.rule_for(s) is not None and not self.host.has_slot_value(s):
                self._recompute(s)


class DepthFirstTriggerEngine(EagerTriggerEngine):
    """Triggers fired in depth-first order (a LIFO stack of pending edges)."""

    def _make_worklist(self, seeds: Iterable[Slot]) -> list[Slot]:
        return list(seeds)

    def _pop(self, worklist: list[Slot]) -> Slot:
        return worklist.pop()

    def _push(self, worklist: list[Slot], slot: Slot) -> None:
        worklist.append(slot)


class BreadthFirstTriggerEngine(EagerTriggerEngine):
    """Triggers fired in breadth-first order (a FIFO queue of pending edges)."""

    def _make_worklist(self, seeds: Iterable[Slot]) -> deque[Slot]:
        return deque(seeds)

    def _pop(self, worklist: deque[Slot]) -> Slot:
        return worklist.popleft()

    def _push(self, worklist: deque[Slot], slot: Slot) -> None:
        worklist.append(slot)


def depth_first_factory(budget: int | None = None):
    """``engine_factory`` for :class:`DepthFirstTriggerEngine`."""

    def factory(db) -> DepthFirstTriggerEngine:
        return DepthFirstTriggerEngine(db, budget=budget)

    return factory


def breadth_first_factory(budget: int | None = None):
    """``engine_factory`` for :class:`BreadthFirstTriggerEngine`."""

    def factory(db) -> BreadthFirstTriggerEngine:
        return BreadthFirstTriggerEngine(db, budget=budget)

    return factory
