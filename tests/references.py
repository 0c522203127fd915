"""Test-side references for the engine's single code path.

The engine has one traversal (slot plans), one body executor per rule
(compiled when the generator accepts it), and one freeze pipeline
(analyze, fold, compile).  What each is checked against lives here, on
the test side, instead of behind a switch in ``src/``:

* **values** -- :func:`full_recompute_db`, a database whose engine
  re-evaluates every derived slot after every change;
* **marking counters** -- :class:`MarkingOracle`, which holds the first
  wave of every operation to the paper's ``Could_Change`` bound computed
  from the dependency graph the engine never reads;
* **compiled bodies** -- :func:`interpreted`, which swaps every
  :class:`CompiledBody` back to the interpreter it wraps;
* **folded predicates** -- :func:`unfolded`, which freezes schemas
  without analysis facts so nothing is folded.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest import mock

from repro.baselines.full_recompute import FullRecomputeEngine
from repro.compile import CompiledBody
from repro.core.database import Database
from repro.core.rules import AttributeTarget, is_constraint_attr, is_subtype_attr
from repro.dsl.compiler import _booleanize
from repro.graph.depgraph import could_change
from repro.obs.events import SlotEvaluated, WaveEnd, WaveStart


def interpreted(schema):
    """Undo the freeze-time compile pass on a frozen schema, in place.

    Every :class:`CompiledBody` -- resolved rules and the raw constraint /
    subtype predicates -- goes back to its ``__wrapped__`` interpreter
    (predicates behind the same bool coercion the DSL compiler applies).
    Call before building a :class:`Database`; a later ``extend_schema``
    re-freezes and compiles again.
    """

    def swap(holder, attr, predicate):
        body = getattr(holder, attr)
        if isinstance(body, CompiledBody):
            interp = body.__wrapped__
            object.__setattr__(
                holder, attr, _booleanize(interp) if predicate else interp
            )

    for resolved in schema._resolved.values():
        for rule in resolved.rules:
            target = rule.target
            name = target.attr if isinstance(target, AttributeTarget) else ""
            swap(rule, "body", is_constraint_attr(name) or is_subtype_attr(name))
    for cls in schema.classes.values():
        for constraint in cls.constraints:
            swap(constraint, "predicate", True)
        if cls.predicate is not None:
            swap(cls.predicate, "predicate", True)
    return schema


def unfolded(active: bool = True):
    """Context manager: schemas frozen inside get no analysis facts.

    With ``schema.analysis_facts`` None nothing is folded and slot plans
    keep declaration order -- the behaviour ``Schema.freeze`` also falls
    back to when the analyzer itself fails.  ``active=False`` is a no-op,
    so one ``with`` serves both arms of an A/B.
    """
    if not active:
        return nullcontext()
    return mock.patch("repro.analysis.facts.compute_facts", lambda schema: None)


class _BatchedFullRecompute(FullRecomputeEngine):
    """Recompute-everything with ``Database.batch()``'s check-at-close.

    Inside a batch nothing is evaluated; the close recomputes the whole
    database once, so constraints see the final state exactly as the
    incremental engine's coalesced wave does.
    """

    _depth = 0

    def begin_batch(self) -> None:
        self._depth += 1

    def end_batch(self) -> None:
        self._depth -= 1
        if not self._depth:
            self._recompute_everything()

    def abandon_batch(self) -> None:
        self._depth -= 1

    def propagate_intrinsic_change(self, slot) -> None:
        if not self._depth:
            super().propagate_intrinsic_change(slot)

    def invalidate_derived(self, slots) -> None:
        if not self._depth:
            super().invalidate_derived(slots)


def full_recompute_db(schema, **kwargs) -> Database:
    """The value reference: a database that recomputes everything."""
    return Database(schema, engine_factory=_BatchedFullRecompute, **kwargs)


class MarkingOracle:
    """Hold the first wave of every operation to ``Could_Change``.

    Subscribes to the database's event hub.  Call :meth:`new_operation`
    before each primitive (or batch); when its first wave starts the
    oracle computes ``could_change(db.depgraph, seeds)`` -- the engine
    marks from slot plans and never reads that graph -- and, when no slot
    of the region is already marked (a *fresh* wave; marked slots cut the
    traversal short), asserts at the end of the marking phase that

    * ``slots_marked`` grew by the region's derived slots, and
    * ``mark_edge_visits`` grew by the region's edge count,

    which is the paper's ``O(Nodes + Edges)`` bound met with equality.
    Later waves of the same operation (subtype flips during phase 2, the
    disconnects of a delete) start while evaluation requests are queued,
    so their marking interleaves with phase 2 and is not measured.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self.checked = 0
        self._armed = False
        self._expect: tuple[int, int, int, int] | None = None
        db.obs.hub.subscribe(self._on_event)

    def new_operation(self) -> None:
        self._armed = True
        self._expect = None

    def _on_event(self, event) -> None:
        if not isinstance(event, (WaveStart, WaveEnd, SlotEvaluated)):
            return
        counters = self.db.engine.counters
        if self._expect is not None:
            # First phase-2 event (or the wave's end): marking is over.
            marked0, visits0, nodes, edges = self._expect
            self._expect = None
            assert counters.slots_marked - marked0 == nodes
            assert counters.mark_edge_visits - visits0 == edges
            self.checked += 1
        elif self._armed and isinstance(event, WaveStart):
            self._armed = False
            placed = self.db.storage.is_placed
            intrinsic = {s for s in event.intrinsic_seeds if placed(s[0])}
            derived = {s for s in event.derived_seeds if placed(s[0])}
            region, edges = could_change(self.db.depgraph, intrinsic | derived)
            region -= intrinsic  # the changed slots themselves are not marked
            if region.isdisjoint(self.db.engine.out_of_date):
                self._expect = (
                    counters.slots_marked,
                    counters.mark_edge_visits,
                    len(region),
                    edges,
                )
