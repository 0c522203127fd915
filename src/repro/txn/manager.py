"""Multi-user operation: sessions and the interleaving scheduler.

Cactis is "a multi-user DBMS ... using a timestamping concurrency control
technique".  This module reproduces multi-user behaviour deterministically:

* a :class:`Session` is one user's transaction stream.  Its primitives
  mirror the database's, but every operation first passes the
  timestamp-ordering checks of
  :class:`~repro.txn.timestamps.TimestampManager`.
* a *script* is a generator function taking a session and yielding between
  operations; the yield points are where the scheduler may switch users.
* :class:`MultiUserScheduler` interleaves scripts (round-robin or seeded
  random).  When an operation violates timestamp ordering the session's
  transaction is rolled back and the whole script restarts with a fresh,
  younger timestamp -- the classic basic-TO restart discipline.

The scheduler's core is *live*: scripts are admitted with :meth:`admit`
and executed one yield-to-yield slice at a time by :meth:`step`, so new
scripts may arrive (and finished ones retire) while others are mid-flight.
:meth:`run` is the batch convenience the tests and benchmarks use -- admit
everything, then step until drained -- and ``repro.server`` drives the same
loop from asyncio, admitting transactions as client frames arrive and
cancelling them (:meth:`cancel`) when a connection drops mid-transaction.

A session's transaction is an ordinary transaction of the database's
:class:`~repro.txn.transaction.TransactionManager`: its id comes from the
manager's one allocator and is also its timestamp, its delta lives in the
manager's live-transaction table, and the scheduler names it the current
transaction once per step, so the primitives log to it.  Writes are
visible immediately; see :mod:`repro.txn.timestamps` for the documented
simplifications.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

from repro.errors import (
    ConcurrencyAbort,
    ConstraintViolation,
    TransactionAborted,
    TransactionError,
)
from repro.txn.log import Delta
from repro.txn.timestamps import TimestampManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database

Script = Callable[["Session"], Generator[None, None, None]]


class Session:
    """One user's view of the database under timestamp CC.

    ``ts`` is the id of the session's transaction, opened by :meth:`start`
    and ended by :meth:`commit` or :meth:`rollback`.

    With ``track_marks=True`` the session journals every timestamp mark it
    places (and the mark it displaced), so :meth:`release_marks` can undo
    them if the transaction is torn down without committing -- the server
    uses this for client disconnects, where leaving ghost marks behind
    would keep aborting older transactions against work that never
    happened.  The journal spans restart attempts (each entry records the
    timestamp it was placed with), so a cancel after one or more CC
    restarts retracts *every* attempt's marks, and a terminal outcome
    (commit, final failure) seals them via :meth:`confirm_marks` instead.
    """

    def __init__(
        self,
        db: "Database",
        tsm: TimestampManager,
        name: str = "",
        track_marks: bool = False,
    ) -> None:
        self.db = db
        self.tsm = tsm
        self.name = name
        self.ts = 0
        #: values returned by get_attr, for post-run assertions in tests.
        self.observations: list[Any] = []
        #: journal of (kind, iid, ts, displaced_mark) entries spanning every
        #: restart attempt, or None when mark tracking is off (the default
        #: for batch scheduling).
        self._mark_log: list[tuple[str, int, int, int]] | None = (
            [] if track_marks else None
        )

    # -- lifecycle (driven by the scheduler) -------------------------------

    def start(self) -> None:
        # Deliberately does NOT clear the mark journal: a restarted
        # attempt's marks carry the old timestamp and stay journalled so a
        # later cancel can retract them too (release_marks) -- clearing
        # here would orphan them as permanent ghosts.
        self.ts = self.db.txn.start(self.name)
        self.tsm.note_start()

    def _check_read(self, iid: int) -> int:
        tracked = self._mark_log is not None
        previous = self.tsm.check_read(self.ts, iid, track=tracked)
        if tracked:
            self._mark_log.append(("r", iid, self.ts, previous))
        return previous

    def _check_write(self, iid: int) -> int:
        previous = self.tsm.check_write(self.ts, iid)
        if self._mark_log is not None:
            self._mark_log.append(("w", iid, self.ts, previous))
        return previous

    def release_marks(self) -> None:
        """Retract every journalled timestamp mark, across all attempts.

        Only meaningful on the teardown path of a ``track_marks`` session:
        the work was rolled back, so the marks describe reads and writes
        that no longer exist.  Each entry is retracted under the timestamp
        it was placed with, so marks from restarted attempts go too.  Marks
        a younger transaction has since overwritten are left alone (see
        ``retract_read``/``retract_write``).
        """
        if not self._mark_log:
            return
        for kind, iid, ts, previous in reversed(self._mark_log):
            if kind == "w":
                self.tsm.retract_write(ts, iid, previous)
            else:
                self.tsm.retract_read(ts, iid, previous)
        self._mark_log.clear()

    def confirm_marks(self) -> None:
        """Seal the journalled marks after a terminal outcome.

        On commit (and terminal failure) the marks must *stand* -- exactly
        as an untracked batch session's would -- so instead of retracting,
        each journalled read moves from the record's in-doubt reader
        bookkeeping to its stable floor (write marks already stand on
        their own).  Clearing the journal here is what guarantees a later
        teardown can never retract a terminated transaction's marks.
        """
        if not self._mark_log:
            return
        for kind, iid, ts, _previous in self._mark_log:
            if kind == "r":
                self.tsm.confirm_read(ts, iid)
        self._mark_log.clear()

    def commit(self) -> Delta:
        committed = self.db.txn.commit(self.ts)
        self.tsm.note_commit()
        self.confirm_marks()
        return committed

    def rollback(self) -> None:
        """Abort the session's transaction, if it is still live."""
        if self.ts in self.db.txn.live:
            self.db.txn.abort(self.ts)

    # -- primitives ------------------------------------------------------------

    def create(self, class_name: str, **intrinsics: Any) -> int:
        # Check-then-act, like every other write primitive: validate the
        # timestamp against the id the create is about to allocate *before*
        # touching the database.  A doomed create must not allocate an
        # instance id or mutate anything and then lean on rollback.
        #
        # The write mark recorded here is provisional: if the create itself
        # fails validation (unknown class, bad atom type) the id was never
        # consumed, and leaving our timestamp on it would spuriously abort
        # whichever older transaction later allocates that id.
        target = self.db.next_instance_id
        previous = self._check_write(target)
        try:
            return self.db.create(class_name, **intrinsics)
        except ConcurrencyAbort:
            raise
        except Exception:
            self.tsm.retract_write(self.ts, target, previous)
            raise

    def delete(self, iid: int) -> None:
        self._check_write(iid)
        self.db.delete(iid)

    def connect(self, iid_a: int, port_a: str, iid_b: int, port_b: str) -> None:
        self._check_write(iid_a)
        self._check_write(iid_b)
        self.db.connect(iid_a, port_a, iid_b, port_b)

    def disconnect(self, iid_a: int, port_a: str, iid_b: int, port_b: str) -> None:
        self._check_write(iid_a)
        self._check_write(iid_b)
        self.db.disconnect(iid_a, port_a, iid_b, port_b)

    def set_attr(self, iid: int, attr: str, value: Any) -> None:
        self._check_write(iid)
        self.db.set_attr(iid, attr, value)

    def get_attr(self, iid: int, attr: str) -> Any:
        self._check_read(iid)
        value = self.db.get_attr(iid, attr)
        self.observations.append(value)
        return value


@dataclass
class ScheduleResult:
    """Outcome of one :meth:`MultiUserScheduler.run`."""

    committed: list[str]
    restarts: int
    steps: int
    #: scripts that failed for reasons restarting cannot cure (constraint
    #: violations, other final aborts, a blown restart budget), name -> reason.
    failed: dict[str, str] = dataclass_field(default_factory=dict)
    #: scripts torn down externally (client disconnects); never populated
    #: by :meth:`MultiUserScheduler.run`, only by live :meth:`cancel` calls.
    cancelled: list[str] = dataclass_field(default_factory=list)


#: outcome strings passed to an ``on_done`` callback.
OUTCOME_COMMITTED = "committed"
OUTCOME_FAILED = "failed"
OUTCOME_CANCELLED = "cancelled"


class MultiUserScheduler:
    """Deterministically interleaves session scripts under timestamp CC.

    The scheduler is a *live* multiplexer: :meth:`admit` registers a script
    at any time, :meth:`step` advances exactly one runnable script by one
    yield-to-yield slice (handling the whole restart/failure discipline),
    and :meth:`cancel` tears a script down mid-flight.  :meth:`run` wraps
    this into the classic batch driver.  ``max_restarts`` is the per-script
    restart budget; exceeding it retires the script into ``failed`` rather
    than aborting the whole schedule.
    """

    def __init__(
        self,
        db: "Database",
        tsm: TimestampManager | None = None,
        seed: int | None = None,
        max_restarts: int = 100,
    ) -> None:
        self.db = db
        self.tsm = tsm if tsm is not None else TimestampManager()
        self.max_restarts = max_restarts
        self._rng = random.Random(seed) if seed is not None else None
        self._states: list[_ScriptState] = []
        self._cursor = 0
        self._live = 0
        # Cumulative accounting across the scheduler's lifetime; run()
        # reports per-batch slices of these.
        self._committed: list[str] = []
        self._failed: dict[str, str] = {}
        self._cancelled: list[str] = []
        self._restarts = 0
        self._steps = 0
        # Take over the database's concurrency-control metrics section and
        # route TO-rejection events through its hub.
        obs = getattr(db, "obs", None)
        self._hub = obs.hub if obs is not None else None
        if obs is not None:
            self.tsm.hub = obs.hub
            obs.register("cc", self._cc_metrics)

    def _cc_metrics(self) -> dict:
        stats = self.tsm.stats
        return {
            "reads_checked": stats.reads_checked,
            "writes_checked": stats.writes_checked,
            "read_rejections": stats.read_rejections,
            "write_rejections": stats.write_rejections,
            "transactions_started": stats.transactions_started,
            "transactions_committed": stats.transactions_committed,
            "transactions_restarted": stats.transactions_restarted,
        }

    # -- live multiplexing --------------------------------------------------

    @property
    def live(self) -> int:
        """Number of admitted scripts not yet committed/failed/cancelled."""
        return self._live

    @property
    def total_restarts(self) -> int:
        """Cumulative CC restarts across the scheduler's lifetime."""
        return self._restarts

    def admit(
        self,
        name: str,
        script: Script,
        *,
        track_marks: bool = False,
        on_done: "DoneCallback | None" = None,
    ) -> "_ScriptState":
        """Register a script for interleaved execution, starting now.

        The session is started immediately (it draws its timestamp here, so
        admission order is timestamp order).  ``on_done`` -- if given -- is
        invoked exactly once with ``(state, outcome, detail)`` when the
        script commits, fails, or is cancelled; ``track_marks`` enables the
        session mark journal needed by :meth:`cancel` teardown.
        """
        state = _ScriptState(
            name, script, Session(self.db, self.tsm, name, track_marks=track_marks)
        )
        state.on_done = on_done
        state.begin()
        self._states.append(state)
        self._live += 1
        return state

    def step(self) -> "_ScriptState | None":
        """Advance one runnable script by one yield-to-yield slice.

        Returns the stepped state, or ``None`` when nothing is live.  The
        script's transaction is the current one for the whole slice.  All
        of the restart/failure discipline lives here: a
        :class:`ConcurrencyAbort` (mid-script or at commit) rolls the
        script back and restarts it with a fresh timestamp until its
        ``max_restarts`` budget is spent, at which point it retires into
        ``failed``; constraint violations and other final aborts retire it
        immediately.  Every other live script keeps running either way.
        """
        if self._live == 0:
            return None
        if self._rng is not None:
            runnable = [s for s in self._states if not s.done]
            state = runnable[self._rng.randrange(len(runnable))]
        else:
            # Round-robin over a *fixed* rotation of all admitted scripts,
            # skipping finished ones.  Indexing into a shrinking runnable
            # list instead would skew the rotation the moment a script
            # finished, letting one neighbour step twice while another
            # starved.
            while self._states[self._cursor % len(self._states)].done:
                self._cursor += 1
            state = self._states[self._cursor % len(self._states)]
            self._cursor += 1
        self._steps += 1
        txn = self.db.txn
        txn.enter(state.session.ts)
        hub = self._hub
        if hub is not None:
            hub.session = state.name
        try:
            next(state.gen)
        except StopIteration:
            try:
                state.session.commit()
                self._retire_committed(state)
            except ConcurrencyAbort:
                self._restart(state)
            except TransactionAborted as exc:
                self._fail(state, exc)
        except ConcurrencyAbort:
            self._restart(state)
        except (ConstraintViolation, TransactionAborted) as exc:
            self._fail(state, exc)
        finally:
            txn.leave()
            if hub is not None:
                hub.session = None
        return state

    def cancel(self, state: "_ScriptState", reason: str = "cancelled") -> bool:
        """Tear down a live script between yield points (disconnect path).

        Rolls the session's delta back, retracts its journalled timestamp
        marks (when the session tracks them), and retires the script
        without recording it as committed or failed.  Returns ``False`` if
        the script had already finished.
        """
        if state.done:
            return False
        hub = self._hub
        if hub is not None:
            # Attribute the teardown's abort events to the dying session,
            # and never leak that attribution past the cancel.
            hub.session = state.name
        try:
            state.session.rollback()
            state.session.release_marks()
        finally:
            if hub is not None:
                hub.session = None
        state.done = True
        self._live -= 1
        self._cancelled.append(state.name)
        self._compact()
        self._notify(state, OUTCOME_CANCELLED, reason)
        return True

    def drain(self) -> None:
        """Step until no script is live."""
        while self.step() is not None:
            pass

    # -- batch driver -------------------------------------------------------

    def run(
        self,
        scripts: Iterable[tuple[str, Script]],
        max_restarts: int | None = None,
    ) -> ScheduleResult:
        """Run a batch of scripts to completion, restarting CC-aborted ones.

        ``scripts`` is an iterable of ``(name, script)`` pairs.  With no
        seed, the scheduler round-robins at yield points; with a seed it
        picks the next runnable script pseudo-randomly (reproducibly).
        ``max_restarts`` overrides the scheduler-wide budget for this run.

        A :class:`ConcurrencyAbort` rolls the script back and restarts it
        with a fresh timestamp (basic-TO discipline); a script that spends
        its restart budget, or raises an abort no restart can cure (a
        constraint violation mid-step or at commit), is rolled back and
        recorded in :attr:`ScheduleResult.failed` while every other session
        runs on.
        """
        if self._live:
            raise TransactionError(
                "cannot run a batch while live scripts are in flight"
            )
        previous_budget = self.max_restarts
        if max_restarts is not None:
            self.max_restarts = max_restarts
        base_committed = len(self._committed)
        base_cancelled = len(self._cancelled)
        base_failed = set(self._failed)
        base_restarts = self._restarts
        base_steps = self._steps
        try:
            for name, script in scripts:
                self.admit(name, script)
            self.drain()
        finally:
            self.max_restarts = previous_budget
        return ScheduleResult(
            committed=self._committed[base_committed:],
            restarts=self._restarts - base_restarts,
            steps=self._steps - base_steps,
            failed={
                name: reason
                for name, reason in self._failed.items()
                if name not in base_failed
            },
            cancelled=self._cancelled[base_cancelled:],
        )

    # -- retirement paths ---------------------------------------------------

    def _notify(self, state: "_ScriptState", outcome: str, detail: str | None):
        callback = state.on_done
        if callback is not None:
            state.on_done = None
            callback(state, outcome, detail)

    def _retire_committed(self, state: "_ScriptState") -> None:
        state.done = True
        self._live -= 1
        self._committed.append(state.name)
        self._compact()
        self._notify(state, OUTCOME_COMMITTED, None)

    def _restart(self, state: "_ScriptState") -> None:
        state.session.rollback()
        state.restart_count += 1
        if state.restart_count > self.max_restarts:
            # The budget is spent: retire the script into ``failed``
            # instead of letting the abort escape the whole schedule and
            # abandon every other live session mid-script (the same
            # discipline as any other final abort).
            self._fail(
                state,
                TransactionAborted(
                    f"script {state.name!r} exceeded "
                    f"{self.max_restarts} restarts"
                ),
            )
            return
        self.tsm.note_restart()
        self._restarts += 1
        state.begin()

    def _fail(self, state: "_ScriptState", exc: Exception) -> None:
        """Retire a script whose abort no restart can cure.

        The session's remaining delta (if any) is rolled back; the other
        sessions keep running -- one user's constraint violation must not
        abandon everyone else's transactions mid-script.
        """
        state.session.rollback()
        # The failure is terminal and answered: its marks stand as
        # conservative ghosts (matching untracked batch behaviour), but the
        # reader bookkeeping is sealed so a record's in-doubt multiset
        # stays bounded over a long-lived server.
        state.session.confirm_marks()
        state.done = True
        self._live -= 1
        self._failed[state.name] = str(exc)
        self._compact()
        self._notify(state, OUTCOME_FAILED, str(exc))

    def _compact(self) -> None:
        """Drop retired states so a long-lived server stays bounded.

        Preserves round-robin fairness: the cursor is remapped to the same
        position within the surviving rotation.  Only kicks in once the
        retired states outnumber the live ones and the list is big enough
        to matter, so batch runs (and their fairness tests) never see it.
        """
        total = len(self._states)
        if total < 64 or 2 * self._live > total:
            return
        cursor = self._cursor % total
        keep: list[_ScriptState] = []
        new_cursor = 0
        for index, state in enumerate(self._states):
            if not state.done:
                if index < cursor:
                    new_cursor += 1
                keep.append(state)
        self._states = keep
        self._cursor = new_cursor


#: ``(state, outcome, detail)`` -- outcome is one of the OUTCOME_* strings;
#: detail carries the failure reason (or cancel reason), None on commit.
DoneCallback = Callable[["_ScriptState", str, "str | None"], None]


class _ScriptState:
    """Bookkeeping for one script being interleaved."""

    __slots__ = ("name", "script", "session", "gen", "done", "restart_count", "on_done")

    def __init__(self, name: str, script: Script, session: Session) -> None:
        self.name = name
        self.script = script
        self.session = session
        self.gen: Generator[None, None, None] | None = None
        self.done = False
        self.restart_count = 0
        self.on_done: DoneCallback | None = None

    def begin(self) -> None:
        self.session.start()
        self.gen = self.script(self.session)
        self.done = False
