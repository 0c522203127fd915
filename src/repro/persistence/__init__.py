"""Durability: write-ahead logging, checkpointing, and crash recovery.

Section 3's durability economy -- "the information needed to remember a
delta is proportional in size to the initial changes made to the database
rather than the total change" -- is exactly the write-ahead-logging
argument: a committed transaction is made durable by appending only its
primitive-change records (the :class:`~repro.txn.log.Delta`), never the
derived state those changes invalidate.  Derived values are recomputed on
demand after recovery, just as they are after rollback.

The package provides three cooperating pieces:

* :mod:`repro.persistence.wal` -- an append-only log of committed deltas
  with per-record length + CRC32 framing and fsync-on-commit;
* :mod:`repro.persistence.checkpoint` -- atomic snapshots of the streamed
  database image (reusing :mod:`repro.storage.codec`) stamped with the WAL
  high-water mark, after which the log is truncated;
* :mod:`repro.persistence.recovery` -- loads the latest checkpoint,
  replays the WAL tail forward, and discards any torn or CRC-failing
  trailing record.

:class:`~repro.persistence.manager.PersistenceManager` ties them to a live
database through the transaction manager's commit/undo listeners, so the
single-stream, batched, and multi-user paths all log through one choke
point.  :mod:`repro.persistence.faults` is the fault-injection harness the
crash-matrix tests (and any sceptical user) drive.
"""

from repro.persistence.checkpoint import read_checkpoint, write_checkpoint
from repro.persistence.faults import (
    CrashPoint,
    FaultInjector,
    crash_after,
    crash_before,
    database_fingerprint,
    flip_record_bit,
    torn_write,
    truncate_tail,
)
from repro.persistence.manager import (
    CHECKPOINT_NAME,
    WAL_NAME,
    PersistenceManager,
    PersistenceStats,
)
from repro.persistence.recovery import RecoveryReport, recover_database
from repro.persistence.wal import WalScan, WriteAheadLog, scan_wal

__all__ = [
    "CHECKPOINT_NAME",
    "CrashPoint",
    "FaultInjector",
    "PersistenceManager",
    "PersistenceStats",
    "RecoveryReport",
    "WAL_NAME",
    "WalScan",
    "WriteAheadLog",
    "crash_after",
    "crash_before",
    "database_fingerprint",
    "flip_record_bit",
    "read_checkpoint",
    "recover_database",
    "scan_wal",
    "torn_write",
    "truncate_tail",
    "write_checkpoint",
]
