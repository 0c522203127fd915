"""The incremental attribute evaluation engine.

This is the paper's central algorithm (Section 2.2), structured exactly as
described:

**Phase 1 -- mark out of date.**  When an intrinsic attribute changes (or a
relationship is established/broken), the slots that depend on it are marked
*out of date*, transitively, with the traversal **cut short at slots already
marked** -- this is what makes a second assignment before any demand cost
O(out-degree) instead of re-walking the region, and what bounds the
amortised overhead by ``O(Nodes(Could_Change) + Edges(Could_Change))``.
While marking, *important* slots (constraint predicates, subtype-membership
predicates, and slots with a standing user demand) are collected.

**Phase 2 -- demand-driven evaluation.**  The collected important slots (and
any slot the user queries) are evaluated demand-style: a slot's rule runs
only after all of its dependency slots have values, and **no slot is
evaluated more than once** per propagation wave, because evaluation clears
the out-of-date mark and subsequent requests find a clean cached value.
Unimportant slots simply stay marked until someone asks.

Both phases are expressed as units of work run by the
:class:`~repro.evaluation.scheduler.ChunkScheduler`, so traversal order is a
scheduling decision: greedily I/O-aware, as in the paper (the fixed FIFO/LIFO
orders of experiment E4 are a test-side reference scheduler).  Evaluation
requests that cross a relationship record observed disk I/O into the
relationship's decaying average; marking uses cluster-time worst-case
estimates (the paper notes marking cannot observe a return trip).

**One unit of work; residency picks the queue.**  Every mark, request,
collect and compute is the one tuple ``(kind, slot, extra)``, handed to the
scheduler through one ``schedule`` call per kind and executed by one runner,
:meth:`IncrementalEngine._run`, which keeps the counters, events and chunk
timer.  The scheduler alone decides the queue: work on a block-resident
instance joins the very-high deque as the bare tuple, other work waits in
the priced heap until its block loads.  ``chunk_executions`` counts the
units that waited, ``fast_path_hits`` the units queued resident.

**Batched waves** sit on top of the paper's algorithm and preserve its
observable semantics exactly.  :meth:`begin_batch` / :meth:`end_batch`
(driven by ``Database.batch()`` and batch-scoped transactions) defer phase
1 across many primitive updates and run one coalesced wave whose seeds are
the union of the changed slots.  Marking still cuts short at already-marked
slots; important slots (constraints, standing demands) are still evaluated
-- at batch close instead of once per update, which generalises the
paper's O(1) second-assignment property from "the same attribute twice" to
"any bulk update".  A demand arriving mid-batch flushes the deferred
marking first, so reads always observe the same values they would have
seen under per-update waves.

Cycles: a wave that deadlocks (every pending evaluation waiting on another)
has hit a data cycle; the engine extracts it from the wait-for graph and
raises :class:`repro.errors.CycleError`, since "Cactis does not support data
cycles".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable

from repro.core.rules import constraint_attr_name
from repro.core.slots import Slot
from repro.errors import CycleError, RuleEvaluationError
from repro.evaluation.counters import EvalCounters
from repro.evaluation.host import DepBinding, EvaluationHost
from repro.evaluation.scheduler import ChunkScheduler
from repro.obs.events import (
    ChunkRun,
    FastLaneHit,
    SlotEvaluated,
    SlotMarked,
    WaveEnd,
    WaveStart,
)

_LOCAL_EDGE_PRIORITY = 0.0  # same-instance edges: no extra block needed

# Work kinds: the tag of a ``(kind, slot, extra)`` unit of work.
_MARK = 0
_REQUEST = 1
_COLLECT = 2
_COMPUTE = 3
_KIND_NAMES = ("mark", "request", "collect", "compute")


@dataclass
class _Pending:
    """In-flight evaluation of one slot (the paper's per-process storage)."""

    bindings: list[DepBinding]
    remaining: set[Slot] = field(default_factory=set)
    values: dict[Slot, Any] = field(default_factory=dict)
    reads_at_start: int = 0


class IncrementalEngine:
    """Two-phase incremental evaluator over a chunk scheduler."""

    def __init__(self, host: EvaluationHost) -> None:
        self.host = host
        self.counters = EvalCounters()
        #: observability root of the host database (None for bare synthetic
        #: hosts); carries the event hub and the wave/chunk latency timers.
        self._obs = getattr(host, "obs", None)
        self.out_of_date: set[Slot] = set()
        #: watched slot name -> iids whose slot of that name is in
        #: ``out_of_date``, kept on every add/discard so a reader that cares
        #: about one name (an index sweep, the commit-time constraint audit)
        #: never scans the whole mark set.  Only the names
        #: :meth:`watch_stale` registers have a bucket.
        self.stale_by_name: dict[str, set[int]] = {}
        #: ``(slot name, bucket)`` for every constraint slot name of the
        #: schema: the audit's pending marks.
        self.stale_constraints: tuple[tuple[str, set[int]], ...] = ()
        self.standing_demands: set[Slot] = set()
        #: flattened slot plans (repro.compile.slotplan): every inner loop's
        #: only view of rules, dependents, and bindings.
        self._plans = host.slot_plans
        self.scheduler = ChunkScheduler(
            is_resident=host.storage.is_resident,
            block_of=host.storage.placement,
            runner=self._run,
        )
        # Wire buffer-pool loads to chunk promotion ("very high priority
        # queue" of Section 2.3) and evictions to the symmetric demotion,
        # so residency-routed work is re-priced when its block leaves.
        host.storage.buffer.on_load = self.scheduler.on_block_loaded
        host.storage.buffer.on_evict = self.scheduler.on_block_evicted
        self._pending: dict[Slot, _Pending] = {}
        self._waiters: dict[Slot, list[Slot]] = {}
        self._important_found: list[Slot] = []
        # Batched-wave state: while _batch_depth > 0, primitive changes are
        # buffered (deduplicated, insertion-ordered) instead of launching a
        # wave each; the union wave runs at batch close (or on demand).
        self._batch_depth = 0
        self._batch_intrinsic: list[Slot] = []
        self._batch_derived: list[Slot] = []
        self._batch_seen_intrinsic: set[Slot] = set()
        self._batch_seen_derived: set[Slot] = set()

    # ------------------------------------------------------------------
    # standing demands
    # ------------------------------------------------------------------

    def register_demand(self, slot: Slot) -> None:
        """Give ``slot`` a standing demand: keep it evaluated eagerly."""
        self.standing_demands.add(slot)

    def unregister_demand(self, slot: Slot) -> None:
        self.standing_demands.discard(slot)

    def is_out_of_date(self, slot: Slot) -> bool:
        return slot in self.out_of_date

    def watch_stale(self, names: Iterable[str]) -> None:
        """Keep a stale bucket for each of ``names`` and for every
        constraint slot name of the host's schema, seeded from
        ``out_of_date`` once; names watched before and not now lose theirs.
        """
        constraint_names = sorted(
            {
                constraint_attr_name(constraint.name)
                for cls in self.host.schema.classes.values()
                for constraint in cls.constraints
            }
        )
        buckets: dict[str, set[int]] = {name: set() for name in names}
        for name in constraint_names:
            buckets[name] = set()
        for iid, name in self.out_of_date:
            bucket = buckets.get(name)
            if bucket is not None:
                bucket.add(iid)
        self.stale_by_name = buckets
        self.stale_constraints = tuple((name, buckets[name]) for name in constraint_names)

    # ------------------------------------------------------------------
    # batched waves
    # ------------------------------------------------------------------

    @property
    def in_batch(self) -> bool:
        return self._batch_depth > 0

    def begin_batch(self) -> None:
        """Start (or nest into) a batch: defer marking until the close."""
        self._batch_depth += 1

    def end_batch(self) -> None:
        """Close one batch level; the outermost close runs the union wave."""
        if self._batch_depth <= 0:
            raise RuntimeError("end_batch without a matching begin_batch")
        self._batch_depth -= 1
        if self._batch_depth:
            return
        self._flush_batch_marks()
        self._finish_wave()

    def abandon_batch(self) -> None:
        """Unwind one batch level on an exception path.

        Deferred marking is still flushed -- out-of-date marks are only
        ever conservative, and the enclosing rollback (if any) re-marks
        through its own inverse updates -- but importance evaluation is
        skipped: the primitive is already unwinding.
        """
        if self._batch_depth <= 0:
            return
        self._batch_depth -= 1
        if self._batch_depth:
            return
        self._flush_batch_marks()

    def _flush_batch_marks(self) -> None:
        """Run the deferred phase-1 marking now (batch close or mid-batch read)."""
        if not (self._batch_intrinsic or self._batch_derived):
            return
        intrinsic, self._batch_intrinsic = self._batch_intrinsic, []
        derived, self._batch_derived = self._batch_derived, []
        self._batch_seen_intrinsic.clear()
        self._batch_seen_derived.clear()
        self.counters.waves += 1
        started = self._wave_begin("batch", intrinsic, derived)
        placed = self.host.storage.is_placed
        for slot in intrinsic:
            # An instance deleted after its update was buffered has no
            # dependents left (edges were removed with it); skip cleanly.
            if placed(slot[0]):
                self._schedule_dependent_marks(slot)
        for slot in derived:
            if placed(slot[0]):
                self._schedule_mark(slot, crossing_port=None)
        self.scheduler.run_to_exhaustion()
        self._wave_end("batch", started)
        # Important slots found stay queued in _important_found; the batch
        # close (or the caller's own evaluation) picks them up.

    # ------------------------------------------------------------------
    # observability hook points
    # ------------------------------------------------------------------

    def _wave_begin(
        self, kind: str, intrinsic_seeds: Iterable[Slot], derived_seeds: Iterable[Slot]
    ) -> float:
        """Emit a wave-start event; returns the start time (0.0 when unobserved)."""
        obs = self._obs
        if obs is None:
            return 0.0
        hub = obs.hub
        if hub.active:
            hub.emit(
                WaveStart(
                    kind=kind,
                    intrinsic_seeds=list(intrinsic_seeds),
                    derived_seeds=list(derived_seeds),
                )
            )
        return perf_counter()

    def _wave_end(self, kind: str, started: float) -> None:
        obs = self._obs
        if obs is None:
            return
        seconds = perf_counter() - started
        obs.timers["wave"].record(seconds)
        hub = obs.hub
        if hub.active:
            hub.emit(WaveEnd(kind=kind, seconds=seconds))

    # ------------------------------------------------------------------
    # phase 1: marking
    # ------------------------------------------------------------------

    def propagate_intrinsic_change(self, slot: Slot) -> None:
        """React to a primitive update of an intrinsic attribute.

        Marks everything dependent on ``slot`` out of date (phase 1), then
        evaluates the important slots discovered (phase 2).  Inside a batch
        the seed is buffered instead; the union wave runs at batch close.
        """
        if self._batch_depth:
            self.counters.batched_updates += 1
            if slot not in self._batch_seen_intrinsic:
                self._batch_seen_intrinsic.add(slot)
                self._batch_intrinsic.append(slot)
            return
        self.counters.waves += 1
        started = self._wave_begin("intrinsic", (slot,), ())
        self._schedule_dependent_marks(slot)
        self._run_marking_then_evaluate()
        self._wave_end("intrinsic", started)

    def invalidate_derived(self, slots: Iterable[Slot]) -> None:
        """React to a structural change (connect/disconnect/subtype flip).

        The given derived slots' inputs changed shape, so they are marked
        directly, then their dependents transitively.
        """
        slots = list(slots)
        if self._batch_depth:
            self.counters.batched_updates += 1
            for slot in slots:
                if slot not in self._batch_seen_derived:
                    self._batch_seen_derived.add(slot)
                    self._batch_derived.append(slot)
            return
        self.counters.waves += 1
        started = self._wave_begin("derived", (), slots)
        for slot in slots:
            self._schedule_mark(slot, crossing_port=None)
        self._run_marking_then_evaluate()
        self._wave_end("derived", started)

    def _run_marking_then_evaluate(self) -> None:
        self.scheduler.run_to_exhaustion()
        self._finish_wave()

    def _finish_wave(self) -> None:
        """Phase 2 for the important slots phase 1 collected."""
        important = self._important_found
        self._important_found = []
        if important:
            self.evaluate_slots(important)

    def _schedule_dependent_marks(self, slot: Slot) -> None:
        # A slot without a plan (instance deleted mid-wave) or without a
        # sid has no dependents.
        plans = self._plans
        plan = plans.plan_of(slot[0])
        if plan is not None:
            sid = plan.index.get(slot[1])
            if sid is not None:
                self._plan_fanout(slot, plan, sid, plans)

    def _plan_fanout(self, slot: Slot, plan: Any, sid: int, plans: Any) -> None:
        """Fan one mark out to its dependents via index arrays.

        Local dependents are a tuple of slot ids, and crossing edges come
        from joining the live connection table against the peer shape's
        ``receivers`` index, whose key already *is* the crossing port.
        One ``mark_edge_visits`` per dependent edge, cut short at marked
        slots.
        """
        iid = slot[0]
        counters = self.counters
        marked = self.out_of_date
        names = plan.names
        for dsid in plan.local_dependents[sid]:
            counters.mark_edge_visits += 1
            dep = (iid, names[dsid])
            if dep in marked:
                continue  # cut short: already marked
            self._schedule_mark(dep, None)
        if plan.kind[sid]:  # TRANSMIT: fan out across live connections
            instance = plans.instance_of(iid)
            if instance is None:
                return
            value = plan.value_of[sid]
            for conn in instance.connections_on(plan.port_of[sid]):
                peer = conn.peer
                peer_plan = plans.plan_of(peer)
                if peer_plan is None:
                    continue
                targets = peer_plan.receivers.get((conn.peer_port, value))
                if not targets:
                    continue
                peer_names = peer_plan.names
                for tsid in targets:
                    counters.mark_edge_visits += 1
                    dep = (peer, peer_names[tsid])
                    if dep in marked:
                        continue
                    self._schedule_mark(dep, conn.peer_port)

    def _schedule_mark(self, slot: Slot, crossing_port: str | None) -> None:
        if slot in self.out_of_date:
            self.counters.mark_edge_visits += 1
            return
        self.scheduler.schedule(
            (_MARK, slot, crossing_port),
            self.host.usage.worst_case_io(slot[0], crossing_port)
            if crossing_port is not None
            else _LOCAL_EDGE_PRIORITY,
        )

    def _run(self, work: tuple, waited: bool) -> None:
        """Execute one unit of work (the scheduler's runner).

        ``waited`` is True for work first queued in the priced heap: it
        counts as a chunk execution and, while the hub has subscribers, is
        timed (the hottest path in the engine, so the timer is not
        free-running).  Work first queued resident is a fast-lane hit.
        """
        kind, slot, extra = work
        if waited:
            self.counters.chunk_executions += 1
        else:
            self.counters.fast_path_hits += 1
        started = 0.0
        obs = self._obs
        if obs is not None and obs.hub.active:
            event = ChunkRun if waited else FastLaneHit
            obs.hub.emit(event(kind=_KIND_NAMES[kind], slot=slot))
            if waited:
                started = perf_counter()
        if kind == _MARK:
            self._mark_body(slot, extra)
        elif kind == _REQUEST:
            self._request_body(slot)
        elif kind == _COLLECT:
            self._collect_body(slot)
        else:
            self._compute_body(slot)
        if started:
            obs.timers["chunk"].record(perf_counter() - started)

    def _mark_body(self, slot: Slot, crossing_port: str | None) -> None:
        """Mark one slot and fan out to its dependents."""
        if slot in self.out_of_date:
            return  # raced with another path; cut short
        self.out_of_date.add(slot)
        bucket = self.stale_by_name.get(slot[1])
        if bucket is not None:
            bucket.add(slot[0])
        self.counters.slots_marked += 1
        obs = self._obs
        if obs is not None and obs.hub.active:
            obs.hub.emit(SlotMarked(slot=slot, crossing_port=crossing_port))
        # The out-of-date mark lives with the record on disk.
        self.host.storage.touch(slot[0], dirty=True)
        if crossing_port is not None:
            self.host.usage.note_crossing(slot[0], crossing_port)
        plans = self._plans
        plan = plans.plan_of(slot[0])
        if plan is None:
            return
        sid = plan.index.get(slot[1])
        if sid is None:
            return
        if plan.special[sid] or slot in self.standing_demands:
            # constraint and membership slots are always important
            self._important_found.append(slot)
        self._plan_fanout(slot, plan, sid, plans)

    # ------------------------------------------------------------------
    # phase 2: demand-driven evaluation
    # ------------------------------------------------------------------

    def demand(self, slot: Slot) -> Any:
        """A user query: evaluate ``slot`` if needed and return its value.

        "If the user explicitly requests the value of attributes (i.e.
        makes a query) they become important, and new computations of out of
        date attributes may be invoked in order to obtain correct values."

        Inside a batch, the deferred marking is flushed first so the read
        observes exactly the values per-update waves would have produced.
        """
        self.counters.demands += 1
        if self._batch_depth:
            self._flush_batch_marks()
        if self._slot_ready(slot):
            self.host.storage.touch(slot[0])
            return self.host.read_slot_value(slot)
        self.evaluate_slots([slot], user_request=True)
        return self.host.read_slot_value(slot)

    def evaluate_slots(self, slots: Iterable[Slot], user_request: bool = False) -> None:
        """Run phase 2 for the given slots (and everything they require)."""
        if self._batch_depth:
            self._flush_batch_marks()
        for slot in slots:
            self._schedule_request(slot, priority=0.0, user_request=user_request)
        self.scheduler.run_to_exhaustion()
        if self._pending:
            self._raise_cycle()

    def settle_marks(self) -> None:
        """Make the out-of-date marks current without evaluating anything.

        Inside a batch, marking is deferred; a reader about to take clean
        values straight from storage (the query read path) calls this
        first, as :meth:`demand` does for its one slot.
        """
        if self._batch_depth:
            self._flush_batch_marks()

    def evaluate_all_out_of_date(self) -> None:
        """Force every marked slot clean (maintenance; commit-time audits)."""
        # Iterate to a fixed point: evaluating subtype predicates can flip
        # membership, which may mark further slots.
        while self.out_of_date:
            self.evaluate_slots(list(self.out_of_date))

    def _slot_ready(self, slot: Slot) -> bool:
        """True when the slot has a usable value without evaluation."""
        plan = self._plans.plan_of(slot[0])
        if plan is None:
            return True  # no rule: reads the stored value (or fails there)
        sid = plan.index.get(slot[1])
        if sid is None or plan.rules[sid] is None:
            return True  # intrinsic: always carries its stored value
        return slot not in self.out_of_date and self.host.has_slot_value(slot)

    def _schedule_request(
        self, slot: Slot, priority: float, user_request: bool = False
    ) -> None:
        self.scheduler.schedule((_REQUEST, slot, None), priority, user_request)

    def _request_body(self, slot: Slot) -> None:
        """First half of an evaluation: gather dependencies."""
        if slot in self._pending:
            return  # someone else already requested it
        if self._slot_ready(slot):
            # Value already clean (e.g. evaluated for another waiter between
            # scheduling and execution): nothing to do -- waiters collected
            # their copy when they registered, or will at notification time.
            self._notify_waiters(slot, self.host.read_slot_value(slot))
            return
        # Not ready means the slot has a plan, a sid, and a rule.
        plans = self._plans
        plan = plans.plan_of(slot[0])
        bindings = plan.resolve_bindings(
            plan.index[slot[1]], slot[0], plans.instance_of(slot[0])
        )
        pend = _Pending(
            bindings=bindings,
            reads_at_start=self.host.storage.disk.stats.reads,
        )
        self._pending[slot] = pend
        for binding in bindings:
            for dep in binding.slots:
                if binding.port is not None:
                    self.host.usage.note_crossing(slot[0], binding.port)
                if dep in pend.values or dep in pend.remaining:
                    continue
                dep_priority = (
                    self.host.usage.expected_io(slot[0], binding.port)
                    if binding.port is not None
                    else _LOCAL_EDGE_PRIORITY
                )
                if self._slot_ready(dep):
                    if dep[0] == slot[0] or self.host.storage.is_resident(dep[0]):
                        # Local or already in memory: collect right now.
                        self.host.storage.touch(dep[0])
                        pend.values[dep] = self.host.read_slot_value(dep)
                    else:
                        # Clean but on disk: collecting the value is its own
                        # schedulable sub-process ("any needed values will
                        # have been collected in storage attached to the
                        # process before it is scheduled as runnable").
                        pend.remaining.add(dep)
                        self._waiters.setdefault(dep, []).append(slot)
                        self.scheduler.schedule((_COLLECT, dep, None), dep_priority)
                else:
                    pend.remaining.add(dep)
                    self._waiters.setdefault(dep, []).append(slot)
                    self._schedule_request(dep, dep_priority)
        if not pend.remaining:
            self._schedule_compute(slot)

    def _collect_body(self, slot: Slot) -> None:
        """Fetch one clean value from disk for its waiters."""
        if slot not in self._waiters:
            return  # every waiter was already satisfied (or abandoned)
        if not self._slot_ready(slot):
            # Invalidated between scheduling and execution: fall back to a
            # full evaluation request.
            self._request_body(slot)
            return
        self.host.storage.touch(slot[0])
        self._notify_waiters(slot, self.host.read_slot_value(slot))

    def _schedule_compute(self, slot: Slot) -> None:
        # All inputs are in hand; only the slot's own block is needed.
        self.scheduler.schedule((_COMPUTE, slot, None), _LOCAL_EDGE_PRIORITY)

    def _compute_body(self, slot: Slot) -> None:
        """Second half of an evaluation: run the rule."""
        pend = self._pending.pop(slot, None)
        if pend is None:
            return  # already computed via another path
        iid = slot[0]
        self.host.storage.touch(iid, dirty=True)
        values = pend.values
        try:
            # The executor comes from the *current* plan: a subtype flip
            # earlier in this wave may have swapped the shape.
            plan = self._plans.plan_of(iid)
            rexec = plan.execs[plan.index[slot[1]]]
            if rexec.positional:
                value = rexec.fn(*[b.assemble(iid, values) for b in pend.bindings])
            else:
                value = rexec.fn(
                    **{b.kw: b.assemble(iid, values) for b in pend.bindings}
                )
        except RuleEvaluationError:
            raise
        except Exception as exc:
            raise RuleEvaluationError(slot, exc) from exc
        had_old = self.host.has_slot_value(slot)
        old = self.host.read_slot_value(slot) if had_old else None
        self.host.write_slot_value(slot, value)
        self.out_of_date.discard(slot)
        bucket = self.stale_by_name.get(slot[1])
        if bucket is not None:
            bucket.discard(iid)
        self.counters.rule_evaluations += 1
        unchanged = had_old and old == value
        if unchanged:
            self.counters.unchanged_evaluations += 1
        obs = self._obs
        if obs is not None and obs.hub.active:
            obs.hub.emit(SlotEvaluated(slot=slot, value=value, unchanged=unchanged))
        # Self-adaptive statistics: charge the I/O this evaluation incurred
        # to each relationship whose value it requested.
        io_spent = self.host.storage.disk.stats.reads - pend.reads_at_start
        for binding in pend.bindings:
            if binding.port is not None:
                self.host.usage.observe_io(slot[0], binding.port, float(io_spent))
        # Special slot families.
        if rexec.special == 1:
            self.host.handle_constraint_result(slot, bool(value))
        elif rexec.special == 2:
            self.host.handle_subtype_result(slot, bool(value))
        self._notify_waiters(slot, value)

    def _notify_waiters(self, slot: Slot, value: Any) -> None:
        for waiter in self._waiters.pop(slot, ()):  # noqa: B020
            wpend = self._pending.get(waiter)
            if wpend is None:
                continue
            wpend.values[slot] = value
            wpend.remaining.discard(slot)
            if not wpend.remaining:
                self._schedule_compute(waiter)

    # ------------------------------------------------------------------
    # housekeeping
    # ------------------------------------------------------------------

    def forget_slot(self, slot: Slot) -> None:
        """Drop engine state about a slot (instance deletion)."""
        self.out_of_date.discard(slot)
        bucket = self.stale_by_name.get(slot[1])
        if bucket is not None:
            bucket.discard(slot[0])
        self.standing_demands.discard(slot)

    def restore_mark(self, slot: Slot) -> None:
        """Re-mark a slot directly (rollback / snapshot restore paths).

        Unlike :meth:`_mark_body` this neither fans out nor collects
        importance -- the mark is being *reinstated*, not discovered -- but
        it keeps the stale buckets consistent with ``out_of_date``.
        """
        self.out_of_date.add(slot)
        bucket = self.stale_by_name.get(slot[1])
        if bucket is not None:
            bucket.add(slot[0])

    def reset_wave(self) -> None:
        """Abandon an in-flight wave (a constraint vetoed the transaction).

        Queued chunks and pending evaluations are dropped; out-of-date
        marks are kept, so the abandoned slots simply recompute on the
        next demand.  Deferred batch seeds are kept too -- their marking
        is only ever conservative and still flushes at batch close.
        """
        self.scheduler.clear()
        self._pending.clear()
        self._waiters.clear()
        self._important_found.clear()

    def _raise_cycle(self) -> None:
        """Deadlocked wave: extract a wait-for cycle and fail."""
        waits_for = {s: list(p.remaining) for s, p in self._pending.items()}
        cycle = _find_wait_cycle(waits_for)
        # Leave the engine usable: clear the stuck wave, slots stay marked.
        self._pending.clear()
        self._waiters.clear()
        raise CycleError(cycle)


def _find_wait_cycle(waits_for: dict[Slot, list[Slot]]) -> list[Slot]:
    """Find a cycle in the wait-for graph of a deadlocked wave.

    Every pending slot waits on at least one other pending slot (anything
    else would have been collected or computed), so a cycle must exist;
    walk until a repeat.
    """
    if not waits_for:
        return []
    start = next(iter(waits_for))
    seen: dict[Slot, int] = {}
    path: list[Slot] = []
    current = start
    while current not in seen:
        seen[current] = len(path)
        path.append(current)
        nexts = [s for s in waits_for.get(current, ()) if s in waits_for]
        if not nexts:
            # Dangling wait (should not happen); restart from another slot.
            remaining = [s for s in waits_for if s not in seen]
            if not remaining:
                return path
            current = remaining[0]
            continue
        current = nexts[0]
    return path[seen[current]:]
