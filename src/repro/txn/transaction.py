"""Transactions and the Undo meta-action.

The Cactis primitives "are augmented by the meta-action *Undo*.  Undo has
the effect of forcing the rollback of one transaction.  This meta-action
allows the user to freely explore the database, knowing that no actions need
have permanent effect."

:class:`TransactionManager` provides:

* explicit transactions (``begin`` / ``commit`` / ``abort``);
* autocommit -- a primitive issued outside a transaction becomes its own
  one-record transaction, so Undo still applies to it;
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
    """Single-stream transaction control for one database."""

    def __init__(self, db: "Database", history_limit: int | None = None) -> None:
        self.db = db
        self.history_limit = history_limit
        self._active: Delta | None = None
        self._next_txn_id = 1
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
        #: True while the active explicit transaction holds an open engine
        #: batch (closed at commit, abandoned at abort).
        self._engine_batched = False

    # -- state -------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._active is not None

    @property
    def rolling_back(self) -> bool:
        return self._rolling_back

    @property
    def autocommit_pending(self) -> bool:
        """True while the active transaction is a primitive's implicit one."""
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
        """Record one primitive action into the active (or implicit) txn."""
        if self._rolling_back:
            return  # rollback replay must not log
        if self._active is None:
            # Autocommit: wrap the single primitive in its own transaction.
            # The primitive has already executed by the time it logs, so the
            # implicit transaction is opened retroactively and committed by
            # the database right after the primitive returns.
            self._active = Delta(txn_id=self._next_txn_id)
            self._next_txn_id += 1
            self._active.records.append(record)
            self._autocommit_pending = True
            self._set_txn_context(self._active.txn_id)
            return
        self._active.records.append(record)

    def finish_autocommit(self) -> None:
        """Commit the implicit transaction opened by an unattended primitive."""
        if self._autocommit_pending:
            self._autocommit_pending = False
            self.commit()

    # -- stream adoption (multi-user sessions) --------------------------------

    def adopt(self, delta: Delta) -> None:
        """Install a session's delta as the active transaction.

        Used by :class:`repro.txn.manager.MultiUserScheduler` to route the
        logging of one interleaved step into the owning session's delta.
        """
        if self._active is not None:
            raise TransactionError("cannot adopt: a transaction is already active")
        self._active = delta
        self._set_txn_context(delta.txn_id)

    def release(self) -> Delta:
        """Detach the active (adopted) delta without committing or aborting."""
        if self._active is None:
            raise TransactionError("no active transaction to release")
        delta = self._active
        self._active = None
        self._set_txn_context(None)
        return delta

    # -- lifecycle ------------------------------------------------------------

    def begin(self, label: str = "", batch: bool = False) -> int:
        """Open an explicit transaction; nesting is not supported.

        With ``batch=True`` the transaction opens an engine batch:
        primitive updates defer their propagation into one coalesced wave
        that runs at commit, just before the constraint audit.  Reads
        inside the transaction flush the deferred marking, so values stay
        exact.
        """
        if self._active is not None:
            raise TransactionError("a transaction is already active")
        self._active = Delta(txn_id=self._next_txn_id, label=label)
        self._next_txn_id += 1
        self._set_txn_context(self._active.txn_id)
        if batch:
            self.db.engine.begin_batch()
            self._engine_batched = True
        return self._active.txn_id

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

    def commit(self) -> Delta:
        """Audit constraints, then commit the active transaction."""
        if self._active is None:
            raise TransactionError("no active transaction to commit")
        started = perf_counter()
        self._close_engine_batch()
        try:
            self.db.audit_constraints()
        except ConstraintViolation as violation:
            self.abort()
            raise TransactionAborted(str(violation)) from violation
        delta = self._active
        self._active = None
        self._autocommit_pending = False
        if delta.records:
            # A transaction that recorded nothing leaves no trace: no Undo
            # target, no WAL record, no version-stream entry.
            self.history.append(delta)
            limit = self.history_limit
            if limit is not None and len(self.history) > limit:
                del self.history[: len(self.history) - limit]
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

    def abort(self) -> None:
        """Roll back and discard the active transaction."""
        if self._active is None:
            raise TransactionError("no active transaction to abort")
        if self._engine_batched:
            # Flush deferred marks (conservative, never wrong), skip the
            # wave tail: the state they describe is about to be rolled back.
            self._engine_batched = False
            self.db.engine.abandon_batch()
        delta = self._active
        self._active = None
        self._autocommit_pending = False
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
            hub.txn = None

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
