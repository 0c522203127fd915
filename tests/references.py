"""Test-side references for the engine's single code path.

The engine has one traversal (slot plans), one body executor per rule
(compiled when the generator accepts it), and one freeze pipeline
(analyze, fold, compile).  What each is checked against lives here, on
the test side, instead of behind a switch in ``src/``:

* **values** -- :func:`full_recompute_db`, a database whose engine
  re-evaluates every derived slot after every change;
* **the dependency graph** -- :func:`reference_depgraph`, a stored
  :class:`DependencyGraph` rebuilt from ``schema.resolved(...)`` rules x
  live connections without touching a slot plan; ``Database.depgraph`` (a
  view of the plans the engine traverses) must equal it;
* **marking counters** -- :class:`MarkingOracle`, which holds the first
  wave of every operation to the paper's ``Could_Change`` bound computed
  on that reference graph;
* **compiled bodies** -- :func:`interpreted`, which swaps every
  :class:`CompiledBody` back to the interpreter it wraps;
* **folded predicates** -- :func:`unfolded`, which freezes schemas
  without analysis facts so nothing is folded.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from typing import Iterable, Iterator
from unittest import mock

from repro.baselines.full_recompute import FullRecomputeEngine
from repro.compile import CompiledBody
from repro.core.database import Database
from repro.core.rules import (
    AttributeTarget,
    Local,
    Received,
    is_constraint_attr,
    is_subtype_attr,
)
from repro.core.slots import Slot, transmit_slot
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


#: shared empty adjacency for slots with no edges (avoids per-call allocation).
_EMPTY: dict[Slot, int] = {}


class DependencyGraph:
    """A stored directed multigraph over slots with O(1) edge add/remove.

    This was ``Database.depgraph`` until the database derived its graph
    from slot plans; it lives on as the reference the view is checked
    against.  An edge ``src -> dst`` means ``dst``'s rule reads ``src``;
    an edge carries the number of *mentions* behind it (two ports of one
    consumer wired to one producer port mention the producer's slot
    twice), and ``dependents`` / ``dependencies`` repeat a slot once per
    mention.  Insertion-ordered ``dict`` adjacency keeps every traversal
    deterministic regardless of ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self._dependents: dict[Slot, dict[Slot, int]] = {}
        self._dependencies: dict[Slot, dict[Slot, int]] = {}
        self.edge_count = 0

    # -- mutation ------------------------------------------------------------

    def add_edge(self, src: Slot, dst: Slot, mentions: int = 1) -> bool:
        """Add ``src -> dst``; returns False when the edge already existed."""
        outs = self._dependents.setdefault(src, {})
        if dst in outs:
            return False
        outs[dst] = mentions
        self._dependencies.setdefault(dst, {})[src] = mentions
        self.edge_count += 1
        return True

    def remove_edge(self, src: Slot, dst: Slot) -> bool:
        """Remove ``src -> dst``; returns False when the edge was absent."""
        outs = self._dependents.get(src)
        if outs is None or dst not in outs:
            return False
        del outs[dst]
        if not outs:
            del self._dependents[src]
        ins = self._dependencies[dst]
        del ins[src]
        if not ins:
            del self._dependencies[dst]
        self.edge_count -= 1
        return True

    def remove_slot(self, slot: Slot) -> None:
        """Remove every edge touching ``slot`` (instance deletion)."""
        for dst in list(self._dependents.get(slot, ())):
            self.remove_edge(slot, dst)
        for src in list(self._dependencies.get(slot, ())):
            self.remove_edge(src, slot)

    # -- queries ------------------------------------------------------------

    def dependents(self, slot: Slot) -> list[Slot]:
        """Slots whose rules read ``slot``, once per mention, in edge order."""
        return [
            dst
            for dst, mentions in self._dependents.get(slot, _EMPTY).items()
            for __ in range(mentions)
        ]

    def dependencies(self, slot: Slot) -> list[Slot]:
        """Slots read by ``slot``'s rule, once per mention, in edge order."""
        return [
            src
            for src, mentions in self._dependencies.get(slot, _EMPTY).items()
            for __ in range(mentions)
        ]

    def iter_dependents(self, slot: Slot) -> Iterable[Slot]:
        """The distinct dependents of ``slot`` as a live view (no copy)."""
        return self._dependents.get(slot, _EMPTY)

    def iter_dependencies(self, slot: Slot) -> Iterable[Slot]:
        """The distinct dependencies of ``slot`` as a live view (no copy)."""
        return self._dependencies.get(slot, _EMPTY)

    def has_dependents(self, slot: Slot) -> bool:
        return slot in self._dependents

    def has_edge(self, src: Slot, dst: Slot) -> bool:
        return dst in self._dependents.get(src, ())

    def slots(self) -> Iterator[Slot]:
        """Every slot that appears on at least one edge."""
        seen: dict[Slot, None] = {}
        for slot in self._dependents:
            seen[slot] = None
        for slot in self._dependencies:
            seen[slot] = None
        return iter(seen)

    def out_degree(self, slot: Slot) -> int:
        return len(self._dependents.get(slot, ()))

    def in_degree(self, slot: Slot) -> int:
        return len(self._dependencies.get(slot, ()))

    def __len__(self) -> int:
        """Number of distinct edges."""
        return self.edge_count

    def __repr__(self) -> str:
        return f"DependencyGraph(edges={self.edge_count})"


def reference_edges(db: Database) -> list[tuple[Slot, Slot]]:
    """Every dependency edge of ``db``, one per mention, from first principles.

    For each instance: the rules of its class, overlaid in sorted order by
    what each active predicate subtype adds or overrides; for each distinct
    input of each rule, a ``Local`` is one edge and a ``Received`` is one
    edge per live connection on its port.  Reads the schema's resolved
    classes and the connection table only -- never a slot plan.
    """
    schema = db.schema
    edges: list[tuple[Slot, Slot]] = []
    for iid in db.instance_ids():
        instance = db.instance(iid)
        base = schema.resolved(instance.class_name).rule_for
        rules = dict(base)
        for subtype in sorted(instance.active_subtypes):
            for name, rule in schema.resolved(subtype).rule_for.items():
                if base.get(name) is not rule:
                    rules[name] = rule
        for name, rule in rules.items():
            for inp in dict.fromkeys(rule.inputs.values()):
                if isinstance(inp, Local):
                    edges.append(((iid, inp.attr), (iid, name)))
                elif isinstance(inp, Received):
                    for conn in instance.connections_on(inp.port):
                        src = transmit_slot(conn.peer, conn.peer_port, inp.value)
                        edges.append((src, (iid, name)))
    return edges


def reference_depgraph(db: Database) -> DependencyGraph:
    """The stored graph ``Database.depgraph`` must be a view of."""
    graph = DependencyGraph()
    for (src, dst), mentions in Counter(reference_edges(db)).items():
        graph.add_edge(src, dst, mentions)
    return graph


class MarkingOracle:
    """Hold the first wave of every operation to ``Could_Change``.

    Subscribes to the database's event hub.  Call :meth:`new_operation`
    before each primitive (or batch); when its first wave starts the
    oracle computes ``could_change(reference_depgraph(db), seeds)`` -- a
    graph rebuilt without the slot plans the engine marks from -- and,
    when no slot
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
            region, edges = could_change(
                reference_depgraph(self.db), intrinsic | derived
            )
            region -= intrinsic  # the changed slots themselves are not marked
            if region.isdisjoint(self.db.engine.out_of_date):
                self._expect = (
                    counters.slots_marked,
                    counters.mark_edge_visits,
                    len(region),
                    edges,
                )
