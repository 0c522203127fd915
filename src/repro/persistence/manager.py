"""PersistenceManager: the durability hook-up for one open database.

``Database.open(path, schema)`` routes here.  The manager owns a database
*directory* holding two files::

    <path>/wal.log          append-only log of committed deltas
    <path>/checkpoint.json  latest atomic image + WAL high-water mark

Opening recovers whatever the directory holds (nothing, a bare WAL, a
checkpoint, or both), repairs any torn WAL tail, then attaches itself to
the live database:

* a **commit listener** on the transaction manager appends each committed
  delta to the WAL (fsync before returning, so commit == durable).  Every
  commit path converges on :meth:`TransactionManager.commit` -- explicit
  transactions, autocommitted primitives, batched transactions, and
  multi-user :class:`~repro.txn.manager.Session` commits -- so this single
  choke point logs them all;
* an **undo listener** appends a compensation record for each Undo
  meta-action, keeping the durable history aligned with the in-memory one.

Aborted transactions, and committed ones that recorded nothing, never
reach either listener and cost no I/O at all -- the paper's economy
argument, extended to durability.  Every record, whatever its kind, is
appended by one method, :meth:`PersistenceManager._journal`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import TransactionError
from repro.obs.events import Checkpoint, Recovery, WalAppend
from repro.persistence.checkpoint import write_checkpoint
from repro.persistence.recovery import RecoveryReport, recover_database
from repro.persistence.wal import WriteAheadLog
from repro.storage.codec import encode_record
from repro.txn.log import Delta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database
    from repro.persistence.faults import FaultInjector

WAL_NAME = "wal.log"
CHECKPOINT_NAME = "checkpoint.json"


@dataclass
class PersistenceStats:
    """Durability-side accounting (the recovery benchmark's quantities)."""

    commits_logged: int = 0
    undos_logged: int = 0
    bytes_appended: int = 0
    checkpoints_taken: int = 0
    #: reorg begin/step/end records appended for online epochs.
    reorg_records: int = 0
    #: federation send/ack/recv/migrate records appended.
    fed_records: int = 0
    #: what the opening recovery pass found.
    recovery: RecoveryReport | None = field(default=None, repr=False)


@dataclass
class FedState:
    """Durable federation delivery state carried by one site's log.

    Producer side of a channel: ``outbox`` (shipped-but-unacked change
    batches keyed by per-channel sequence number) and ``next_seq`` (the
    next sequence number to assign).  Consumer side: ``applied`` (highest
    batch sequence durably applied).  Checkpoints fold the current state
    into the image header; the WAL tail replays on top of it through
    :meth:`apply`, the same method the live journal calls.
    """

    outbox: dict = field(default_factory=dict)  # channel -> {fed_seq: changes}
    applied: dict = field(default_factory=dict)  # channel -> fed_seq
    next_seq: dict = field(default_factory=dict)  # channel -> fed_seq
    #: a cross-site migration's intent bracket is open (begun, not ended);
    #: not part of the image, like the bracket records a checkpoint drops.
    migrating: bool = field(default=False, init=False)

    def apply(self, payload: dict) -> None:
        """Fold one ``fed_*`` journal record into the state.

        The only interpreter of the federation records: the live
        ``log_fed_*`` methods call it after appending, recovery while
        replaying the WAL tail.  A ``fed_migrate`` record only moves
        :attr:`migrating`.
        """
        kind = payload["type"]
        if kind == "fed_migrate":
            self.migrating = payload["phase"] == "begin"
            return
        channel, fed_seq = payload["channel"], payload["fed_seq"]
        if kind == "fed_send":
            self.outbox.setdefault(channel, {})[fed_seq] = [
                list(change) for change in payload["changes"]
            ]
            if fed_seq >= self.next_seq.get(channel, 1):
                self.next_seq[channel] = fed_seq + 1
        elif kind == "fed_ack":
            pending = self.outbox.get(channel)
            if pending is not None:
                pending.pop(fed_seq, None)
                if not pending:
                    del self.outbox[channel]
        elif fed_seq > self.applied.get(channel, 0):  # fed_recv
            self.applied[channel] = fed_seq

    @property
    def empty(self) -> bool:
        return not (self.outbox or self.applied or self.next_seq)

    def to_dict(self) -> dict:
        return {
            "outbox": {
                channel: {str(seq): changes for seq, changes in pending.items()}
                for channel, pending in self.outbox.items()
            },
            "applied": dict(self.applied),
            "next_seq": dict(self.next_seq),
        }

    @classmethod
    def from_dict(cls, data: dict | None) -> "FedState":
        state = cls()
        if not data:
            return state
        # JSON round-trips the inner sequence-number keys as strings.
        state.outbox = {
            channel: {int(seq): changes for seq, changes in pending.items()}
            for channel, pending in data.get("outbox", {}).items()
        }
        state.applied = dict(data.get("applied", {}))
        state.next_seq = dict(data.get("next_seq", {}))
        return state


class PersistenceManager:
    """Owns the WAL + checkpoint files of one database directory."""

    def __init__(
        self,
        directory: str,
        sync: bool = True,
        injector: "FaultInjector | None" = None,
    ) -> None:
        self.directory = directory
        self.sync = sync
        self.injector = injector
        self.wal_path = os.path.join(directory, WAL_NAME)
        self.checkpoint_path = os.path.join(directory, CHECKPOINT_NAME)
        self.stats = PersistenceStats()
        #: durable federation delivery state (outbox / applied / next_seq),
        #: rebuilt by recovery and maintained by the ``log_fed_*`` methods.
        self.fed = FedState()
        #: sequence number of the most recent durable record.
        self.seq = 0
        self.db: "Database | None" = None
        self._wal: WriteAheadLog | None = None
        self._obs = None

    # -- opening ------------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        schema,
        *,
        sync: bool = True,
        injector: "FaultInjector | None" = None,
        **db_kwargs,
    ) -> "Database":
        """Recover (or initialise) a durable database under ``directory``."""
        os.makedirs(directory, exist_ok=True)
        manager = cls(directory, sync=sync, injector=injector)
        from time import perf_counter

        started = perf_counter()
        db, seq, report = recover_database(
            manager.wal_path, manager.checkpoint_path, schema, **db_kwargs
        )
        recovery_seconds = perf_counter() - started
        manager.seq = seq
        manager.stats.recovery = report
        manager.fed = FedState.from_dict(report.fed_state)
        manager.attach(db)
        obs = getattr(db, "obs", None)
        if obs is not None:
            obs.timers["recovery"].record(recovery_seconds)
            if obs.hub.active:
                obs.hub.emit(
                    Recovery(
                        replayed=report.replayed,
                        skipped=report.skipped,
                        dropped=report.dropped,
                        seconds=recovery_seconds,
                    )
                )
        return db

    def attach(self, db: "Database") -> None:
        """Start logging the database's commits and undos through the WAL.

        Also takes over the database's ``wal`` metrics section, replacing
        the zeroed placeholder registered at construction.
        """
        self.db = db
        self._obs = getattr(db, "obs", None)
        hub = self._obs.hub if self._obs is not None else None
        self._wal = WriteAheadLog(
            self.wal_path, sync=self.sync, injector=self.injector, hub=hub
        )
        db.persistence = self
        db.txn.add_commit_listener(self._on_commit)
        db.txn.add_undo_listener(self._on_undo)
        if self._obs is not None:
            self._obs.register("wal", self._wal_metrics)

    def _wal_metrics(self) -> dict:
        report = self.stats.recovery
        return {
            "attached": True,
            "commits_logged": self.stats.commits_logged,
            "undos_logged": self.stats.undos_logged,
            "bytes_appended": self.stats.bytes_appended,
            "checkpoints_taken": self.stats.checkpoints_taken,
            "fsyncs": self._wal.syncs if self._wal is not None else 0,
            "wal_bytes": self.wal_bytes,
            "recovery_replayed": report.replayed if report is not None else 0,
            "recovery_skipped": report.skipped if report is not None else 0,
            "reorg_records": self.stats.reorg_records,
            "fed_records": self.stats.fed_records,
        }

    def _emit(self, event) -> None:
        if self._obs is not None and self._obs.hub.active:
            self._obs.hub.emit(event)

    # -- the journal ------------------------------------------------------------

    def _journal(self, kind: str, counter: str, **fields) -> dict:
        """The one WAL append: assign the next ``seq``, frame and append
        ``{"type": kind, "seq": seq, **fields}``, count its bytes and one
        record on the ``counter`` stat, emit ``WalAppend``; returns the
        payload.  Every durable record in the system passes through here.
        """
        self.seq += 1
        payload = {"type": kind, "seq": self.seq, **fields}
        size = self._wal.append(payload)
        stats = self.stats
        stats.bytes_appended += size
        setattr(stats, counter, getattr(stats, counter) + 1)
        self._emit(WalAppend(seq=self.seq, kind=kind, bytes=size, synced=self.sync))
        return payload

    def _on_commit(self, delta: Delta) -> None:
        """Journal one committed delta: durable once this returns."""
        self._journal(
            "commit",
            "commits_logged",
            txn_id=delta.txn_id,
            label=delta.label,
            records=[encode_record(record) for record in delta.records],
        )

    def _on_undo(self, delta: Delta) -> None:
        """Journal an Undo as a logical compensation: the delta's records
        are already durable in its own commit record."""
        self._journal("undo", "undos_logged", txn_id=delta.txn_id)

    # -- reorganisation journalling ------------------------------------------

    def log_reorg_begin(self, epoch: int, steps: int) -> None:
        """Journal the opening of an online reorganisation epoch."""
        self._journal("reorg_begin", "reorg_records", epoch=epoch, steps=steps)

    def log_reorg_step(self, epoch: int, step: int, instances: list[int]) -> None:
        """Journal one migration step *before* it is applied (write-ahead):
        replaying the group through the same deterministic migration
        reproduces the move, and a crash between append and apply merely
        re-runs a step whose effects were lost with the in-memory layout."""
        self._journal(
            "reorg_step",
            "reorg_records",
            epoch=epoch,
            step=step,
            instances=list(instances),
        )

    def log_reorg_end(self, epoch: int, completed: bool) -> None:
        """Journal the close of an epoch (completed or abandoned)."""
        self._journal("reorg_end", "reorg_records", epoch=epoch, completed=completed)

    # -- federation delivery journalling --------------------------------------

    def log_fed_send(self, channel: str, fed_seq: int, changes: list) -> None:
        """Journal one outgoing change batch *before* delivery is attempted.

        ``channel`` is the ``"producer>consumer"`` site pair, ``fed_seq``
        its per-channel sequence number, ``changes`` its
        ``[mirror_iid, attr, value]`` triples.  The batch enters the
        durable outbox; it leaves only through :meth:`log_fed_ack`, so a
        crash anywhere in between re-delivers it.
        """
        self.fed.apply(
            self._journal(
                "fed_send",
                "fed_records",
                channel=channel,
                fed_seq=fed_seq,
                changes=[list(change) for change in changes],
            )
        )

    def log_fed_ack(self, channel: str, fed_seq: int) -> None:
        """Journal a consumer acknowledgement; drops the batch from the
        outbox.  A crash *before* the ack re-delivers the batch, which the
        consumer's durable ``fed_recv`` mark dedups."""
        self.fed.apply(
            self._journal("fed_ack", "fed_records", channel=channel, fed_seq=fed_seq)
        )

    def log_fed_recv(self, channel: str, fed_seq: int) -> None:
        """Journal a durably-applied batch on the consumer side (the dedup
        high-water mark a redelivery is checked against)."""
        self.fed.apply(
            self._journal("fed_recv", "fed_records", channel=channel, fed_seq=fed_seq)
        )

    def log_fed_migrate(
        self, phase: str, iid: int, from_site: str, to_site: str
    ) -> None:
        """Journal one side (``phase`` is ``"begin"`` or ``"end"``) of a
        cross-site migration intent bracket; the moves themselves are
        ordinary logged primitives on each site."""
        self.fed.apply(
            self._journal(
                "fed_migrate",
                "fed_records",
                phase=phase,
                iid=iid,
                from_site=from_site,
                to_site=to_site,
            )
        )

    # -- checkpointing --------------------------------------------------------

    def checkpoint(self) -> int:
        """Fold the WAL into a fresh image; returns the checkpointed seq.

        The image is installed atomically *before* the WAL is truncated: a
        crash between the two leaves records the checkpoint already
        contains, which recovery skips by sequence number.  Refused while
        any transaction is live -- a served one between its steps too:
        its writes are already in the state the image would save, and an
        abort writes no WAL record to take them back.
        """
        assert self.db is not None and self._wal is not None
        if self.db.txn.live:
            raise TransactionError("cannot checkpoint while a transaction is live")
        write_checkpoint(
            self.db,
            self.checkpoint_path,
            self.seq,
            fed=None if self.fed.empty else self.fed.to_dict(),
        )
        self._wal.reset()
        self.stats.checkpoints_taken += 1
        self._emit(Checkpoint(seq=self.seq))
        return self.seq

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the WAL (the database object stays usable
        in-memory, but further commits would fail to log)."""
        if self._wal is not None:
            self._wal.close()

    @property
    def wal_bytes(self) -> int:
        """Current on-disk size of the WAL."""
        return os.path.getsize(self.wal_path) if os.path.exists(self.wal_path) else 0
