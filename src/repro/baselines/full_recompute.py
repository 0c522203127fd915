"""The recompute-everything baseline.

"One approach would be to recompute all attribute values every time a
change is made to any part of the system.  This is clearly too expensive."
(Section 2.2.)  This engine does exactly that: after any primitive change it
re-evaluates *every* derived slot in the database, dependencies first.  It
is the upper anchor for experiment E1 -- the incremental engine's work
should be a small, change-local fraction of this.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core.slots import Slot
from repro.baselines.triggers import EagerTriggerEngine
from repro.graph.cycles import topological_order

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


class FullRecomputeEngine(EagerTriggerEngine):
    """Recomputes the entire derived state on every change."""

    def __init__(self, host: "Database", budget: int | None = None) -> None:
        super().__init__(host, budget=budget)

    def propagate_intrinsic_change(self, slot: Slot) -> None:
        self._recomputes_this_txn = 0
        self._recompute_everything()

    def invalidate_derived(self, slots: Iterable[Slot]) -> None:
        self._recomputes_this_txn = 0
        self._recompute_everything()

    def _recompute_everything(self) -> None:
        # Every slot that appears in the dependency graph and carries a
        # rule, evaluated dependencies-first so inputs are always fresh.
        derived = [
            slot
            for slot in self.host.depgraph.slots()
            if self.host.rule_for(slot) is not None
        ]

        def dependencies(s: Slot) -> list[Slot]:
            return self.host.depgraph.dependencies(s)

        for slot in topological_order(derived, dependencies):
            if self.host.rule_for(slot) is not None:
                self._recompute(slot)

    # The eager worklist hooks are unused but must exist.
    def _make_worklist(self, seeds: Iterable[Slot]) -> list[Slot]:
        return list(seeds)

    def _pop(self, worklist: list[Slot]) -> Slot:
        return worklist.pop()

    def _push(self, worklist: list[Slot], slot: Slot) -> None:
        worklist.append(slot)


def full_recompute_factory(budget: int | None = None):
    """``engine_factory`` for :class:`FullRecomputeEngine`."""

    def factory(db) -> FullRecomputeEngine:
        return FullRecomputeEngine(db, budget=budget)

    return factory
