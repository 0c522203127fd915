"""Transactions and the Undo meta-action.

The Cactis primitives "are augmented by the meta-action *Undo*.  Undo has
the effect of forcing the rollback of one transaction.  This meta-action
allows the user to freely explore the database, knowing that no actions need
have permanent effect."

:class:`TransactionManager` is the one transaction model: an embedded
transaction and a served one (a :class:`~repro.txn.manager.Session`'s)
are both a :class:`~repro.txn.log.Delta` in its ``live`` table, numbered
by its one allocator ``next_txn_id`` -- so a transaction's id is also its
timestamp.  It provides:

* the *current* transaction, the one the primitives log to: embedded work
  is current from ``begin`` to its end, and the multi-user scheduler names
  a session's transaction current for one step (``enter`` / ``leave``);
* autocommit -- a primitive issued while no transaction is current
  becomes its own one-record transaction, so Undo still applies to it;
* commit-time constraint auditing: any constraint slot left out of date by
  the transaction is evaluated before commit, and a violation rolls the
  whole transaction back ("the constraint must be satisfied or the
  transaction invoking the evaluation will fail and be undone");
* the committed-transaction history on which ``undo`` (and the version
  facility) operate.

Rollback applies the undo log's inverse records in reverse order through
the database's raw-application layer, which performs marking but skips both
logging and constraint enforcement -- restoring a previously consistent
state cannot itself be vetoed.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Callable

from repro.errors import (
    ConstraintViolation,
    CycleError,
    RuleEvaluationError,
    TransactionAborted,
    TransactionError,
)
from repro.obs.events import TxnAbort, TxnCommit
from repro.txn.log import Delta, LogRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


class TransactionManager:
    """Transaction control for one database: one id allocator, one table of
    live transactions, one current transaction."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        #: the one transaction-id allocator; an id is also a TO timestamp.
        #: Images and recovery carry it across a reopen.
        self.next_txn_id = 1
        #: live transactions (begun, neither committed nor aborted) by id.
        self.live: dict[int, Delta] = {}
        #: the current transaction: the one the primitives log to.
        self._active: Delta | None = None
        #: id of the transaction the scheduler named for this step
        #: (:meth:`enter` .. :meth:`leave`), or None.
        self._step_txn: int | None = None
        #: committed transactions, oldest first.
        self.history: list[Delta] = []
        #: observers notified with each committed delta (version streams,
        #: the persistence manager's WAL append).
        self._commit_listeners: list[Callable[[Delta], None]] = []
        #: observers notified with each delta the Undo meta-action rolls
        #: back (the persistence manager's compensation record).
        self._undo_listeners: list[Callable[[Delta], None]] = []
        #: checks shown the delta an Undo would roll back before anything
        #: changes; one that raises refuses the Undo (a version stream
        #: refuses work it has frozen into a version).
        self._undo_guards: list[Callable[[Delta], None]] = []
        self._rolling_back = False
        self._autocommit_pending = False
        #: lifetime outcome counters (the ``txn`` metrics section).
        self.commits = 0
        self.aborts = 0
        self.undos = 0
        #: observability root of the owning database (guarded: tests build
        #: managers over bare stand-in hosts).
        self._obs = getattr(db, "obs", None)
        #: True while the current explicit transaction holds an open engine
        #: batch (closed at commit, abandoned at abort).
        self._engine_batched = False

    # -- state -------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        """True while a transaction is current."""
        return self._active is not None

    @property
    def rolling_back(self) -> bool:
        return self._rolling_back

    @property
    def autocommit_pending(self) -> bool:
        """True while the current transaction is a primitive's implicit one."""
        return self._autocommit_pending

    def add_commit_listener(self, listener: Callable[[Delta], None]) -> None:
        self._commit_listeners.append(listener)

    def add_undo_listener(self, listener: Callable[[Delta], None]) -> None:
        self._undo_listeners.append(listener)

    def add_undo_guard(self, guard: Callable[[Delta], None]) -> None:
        self._undo_guards.append(guard)

    def _set_txn_context(self, txn_id: int | None) -> None:
        """Stamp the event hub so emissions attribute to this transaction."""
        obs = self._obs
        if obs is not None:
            obs.hub.txn = txn_id

    # -- logging (called by the database primitives) -------------------------

    def log(self, record: LogRecord) -> None:
        """Record one primitive action into the current (or implicit) txn."""
        if self._rolling_back:
            return  # rollback replay must not log
        active = self._active
        if active is None:
            # Autocommit: wrap the single primitive in its own transaction.
            # The primitive has already executed by the time it logs, so the
            # implicit transaction is opened retroactively and committed by
            # the database right after the primitive returns.
            active = self._active = self._open("")
            self._autocommit_pending = True
            self._set_txn_context(active.txn_id)
        active.records.append(record)

    def finish_autocommit(self) -> None:
        """Commit the implicit transaction opened by an unattended primitive."""
        if self._autocommit_pending:
            self._autocommit_pending = False
            self.commit()

    # -- lifecycle ------------------------------------------------------------

    def _open(self, label: str) -> Delta:
        """Draw the next id and enter its transaction into the live table."""
        txn_id = self.next_txn_id
        self.next_txn_id = txn_id + 1
        delta = self.live[txn_id] = Delta(txn_id=txn_id, label=label)
        return delta

    def start(self, label: str = "") -> int:
        """Open a live transaction without making it current (a session's
        start or restart); returns its id."""
        return self._open(label).txn_id

    def enter(self, txn_id: int) -> None:
        """Make the live transaction ``txn_id`` current for one step."""
        self._take(txn_id)
        self._step_txn = txn_id

    def leave(self) -> None:
        """End the step: no transaction is current."""
        self._active = self._step_txn = None
        self._set_txn_context(None)

    def _take(self, txn_id: int | None) -> Delta:
        """The current transaction; when none is, ``txn_id`` names the live
        one to make current."""
        active = self._active
        if active is None and txn_id is not None:
            active = self.live.get(txn_id)
        if active is None or txn_id not in (None, active.txn_id):
            raise TransactionError(
                "no active transaction"
                if txn_id is None
                else f"transaction {txn_id} cannot become current"
            )
        if active is not self._active:
            self._active = active
            self._set_txn_context(txn_id)
        return active

    def _end(self, delta: Delta) -> None:
        del self.live[delta.txn_id]
        self._active = None
        self._autocommit_pending = False

    def begin(self, label: str = "", batch: bool = False) -> int:
        """Open an explicit transaction and make it current; nesting is
        not supported.

        With ``batch=True`` the transaction opens an engine batch:
        primitive updates defer their propagation into one coalesced wave
        that runs at commit, just before the constraint audit.  Reads
        inside the transaction flush the deferred marking, so values stay
        exact.
        """
        if self._active is not None:
            raise TransactionError("a transaction is already active")
        delta = self._active = self._open(label)
        self._set_txn_context(delta.txn_id)
        if batch:
            self.db.engine.begin_batch()
            self._engine_batched = True
        return delta.txn_id

    def _close_engine_batch(self) -> None:
        """Run the deferred wave of a batched transaction (commit path)."""
        if not self._engine_batched:
            return
        self._engine_batched = False
        try:
            self.db.engine.end_batch()
        except ConstraintViolation as violation:
            self.db.engine.reset_wave()
            self.abort()
            raise TransactionAborted(str(violation)) from violation
        except (CycleError, RuleEvaluationError):
            self.db.engine.reset_wave()
            self.abort()
            raise

    def commit(self, txn_id: int | None = None) -> Delta:
        """Audit constraints, then commit the current transaction, or the
        live transaction ``txn_id`` (a session's)."""
        delta = self._take(txn_id)
        started = perf_counter()
        self._close_engine_batch()
        try:
            self.db.audit_constraints()
        except ConstraintViolation as violation:
            self.abort(delta.txn_id)
            raise TransactionAborted(str(violation)) from violation
        self._end(delta)
        if delta.records:
            # A transaction that recorded nothing leaves no trace: no Undo
            # target, no WAL record, no version-stream entry.
            self.history.append(delta)
            for listener in self._commit_listeners:
                listener(delta)
        self.commits += 1
        obs = self._obs
        if obs is not None:
            seconds = perf_counter() - started
            obs.timers["commit"].record(seconds)
            hub = obs.hub
            if hub.active:
                hub.emit(
                    TxnCommit(
                        txn_id=delta.txn_id,
                        label=delta.label,
                        records=len(delta.records),
                        seconds=seconds,
                    )
                )
            hub.txn = None
        return delta

    def abort(self, txn_id: int | None = None) -> None:
        """Roll back and discard the current transaction, or the live
        transaction ``txn_id`` (a session's rollback).

        A primitive that aborts the transaction the scheduler named for
        this step leaves it live and current under the same id with an
        empty delta: the session goes on, and only its own commit or
        rollback ends it.
        """
        delta = self._take(txn_id)
        if self._engine_batched:
            # Flush deferred marks (conservative, never wrong), skip the
            # wave tail: the state they describe is about to be rolled back.
            self._engine_batched = False
            self.db.engine.abandon_batch()
        self._end(delta)
        self.replay(delta, undo=True)
        self.aborts += 1
        obs = self._obs
        if obs is not None:
            hub = obs.hub
            if hub.active:
                hub.emit(
                    TxnAbort(
                        txn_id=delta.txn_id,
                        label=delta.label,
                        records=len(delta.records),
                    )
                )
        if txn_id is None and delta.txn_id == self._step_txn:
            self.live[delta.txn_id] = self._active = Delta(
                txn_id=delta.txn_id, label=delta.label
            )
        else:
            self._set_txn_context(None)

    def undo(self) -> Delta:
        """The meta-action: roll back the most recently committed transaction.

        Repeated calls walk further back through history.  Returns the delta
        that was undone (the version facility may retain it for redo).
        """
        if self._active is not None:
            raise TransactionError(
                "cannot Undo while a transaction is active; commit or abort first"
            )
        if not self.history:
            raise TransactionError("no committed transaction to undo")
        delta = self.history[-1]
        for guard in self._undo_guards:
            guard(delta)
        self.history.pop()
        self.replay(delta, undo=True)
        self.undos += 1
        for listener in self._undo_listeners:
            listener(delta)
        return delta

    # -- replay ------------------------------------------------------------

    def replay(self, delta: Delta, undo: bool) -> None:
        """Apply a delta's records through :meth:`Database.apply`, forward
        in order or (``undo``) inverted in reverse order, with logging
        suppressed and history untouched.

        The one replay entry: abort, Undo, version checkout and crash
        recovery all call it.
        """
        apply = self.db.apply
        self._rolling_back = True
        try:
            for record in reversed(delta.records) if undo else delta.records:
                apply(record, undo)
        finally:
            self._rolling_back = False
