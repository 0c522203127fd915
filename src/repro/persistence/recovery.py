"""Crash recovery: checkpoint + WAL tail replay.

Recovery rebuilds the database three ways at once:

1. **Load the latest checkpoint** (if any) through
   :func:`repro.storage.codec.restore_database` -- instances, intrinsic and
   cached values, connections, subtypes, out-of-date marks, layout, and
   transaction history all come back exactly as dumped, streamed one
   record at a time; a damaged image raises :class:`StorageError`.
2. **Replay the WAL tail forward.**  Every record whose ``seq`` is beyond
   the checkpoint's high-water mark is dispatched on its ``type``.  Deltas
   go through :meth:`TransactionManager.replay`, the one replay entry that
   abort, Undo and version checkout use too (logging and constraint vetoes
   suppressed -- every replayed transaction already passed its commit
   audit).  Commit records re-enter history; undo records pop it, exactly
   as the original meta-action did.  Reorganisation steps re-run their
   group move; federation records fold into
   :meth:`FedState.apply <repro.persistence.manager.FedState.apply>`.
3. **Drop the torn tail.**  A crash mid-append leaves a short or
   CRC-failing trailing frame; the scan stops at the first bad record and
   the file is truncated back to the valid prefix, so the log is clean for
   subsequent appends.  A transaction is durable iff its append completed
   -- recovered state is always a prefix of commit order, never a mix.

Derived state needs no log of its own: replaying the primitives re-marks
the affected regions (the paper's Section 3 economy), and values recompute
on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.persistence.checkpoint import read_checkpoint
from repro.persistence.wal import repair_wal, scan_wal
from repro.storage.codec import decode_record
from repro.txn.log import Delta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    #: WAL high-water mark of the checkpoint the image came from (0 = none).
    checkpoint_seq: int
    #: commit/undo records replayed from the WAL tail.
    replayed: int
    #: records skipped because the checkpoint already contained them.
    skipped: int
    #: why the tail was cut: ``None``, ``"torn"``, or ``"crc"``.
    dropped: str | None
    #: bytes truncated off the WAL during repair.
    truncated_bytes: int
    #: reorganisation migration steps re-applied from the WAL tail (counted
    #: apart from ``replayed``, which covers commit/undo records only).
    reorg_steps_replayed: int = 0
    #: a reorg epoch was open (begun, never ended) when the log stopped; the
    #: layout is mixed-but-correct and the epoch is considered abandoned.
    reorg_abandoned: bool = False
    #: federation send/ack/recv/migrate records replayed from the WAL tail.
    fed_records_replayed: int = 0
    #: rebuilt federation delivery state (checkpoint base + WAL tail), in
    #: :meth:`repro.persistence.manager.FedState.to_dict` form; ``None``
    #: when the site carries no federation state.
    fed_state: dict | None = None
    #: a cross-site migration intent was open (begun, never ended) when the
    #: log stopped; the federation layer re-plans it on the next rebalance.
    fed_migration_abandoned: bool = False

    @property
    def clean(self) -> bool:
        return self.dropped is None


def recover_database(
    wal_path: str,
    checkpoint_path: str,
    schema,
    **db_kwargs,
) -> tuple["Database", int, RecoveryReport]:
    """Rebuild a database from its checkpoint and WAL.

    Returns ``(db, high_water_seq, report)`` where ``high_water_seq`` is
    the last durable sequence number (new appends continue after it).  A
    whole, checksum-valid record that is no WAL record -- a missing field,
    an unknown type, not an object at all -- raises :class:`StorageError`
    naming its ``seq``; unlike a torn tail it is not cut off the log.
    """
    from repro.core.database import Database
    from repro.persistence.manager import FedState

    checkpoint = read_checkpoint(checkpoint_path, schema, **db_kwargs)
    if checkpoint is None:
        checkpoint = Database(schema, **db_kwargs), {"wal_seq": 0}
    db, header = checkpoint
    base_seq = header["wal_seq"]

    scan = scan_wal(wal_path)
    truncated = 0
    if not scan.clean:
        size = os.path.getsize(wal_path)
        repair_wal(wal_path, scan)
        truncated = size - scan.valid_bytes

    report = RecoveryReport(
        checkpoint_seq=base_seq,
        replayed=0,
        skipped=0,
        dropped=scan.dropped,
        truncated_bytes=truncated,
    )
    fed = FedState.from_dict(header.get("fed"))
    txn = db.txn
    seq = base_seq
    for payload in scan.payloads:
        try:
            kind, record_seq = payload["type"], payload["seq"]
            if record_seq <= base_seq:
                report.skipped += 1
                continue
            match kind:
                case "commit":
                    delta = Delta(
                        txn_id=payload["txn_id"],
                        records=list(map(decode_record, payload["records"])),
                        label=payload["label"],
                    )
                    txn.replay(delta, undo=False)
                    txn.history.append(delta)
                    txn.next_txn_id = max(txn.next_txn_id, delta.txn_id + 1)
                    report.replayed += 1
                case "undo":
                    # Commit order is replay order, so the most recent
                    # history entry is the one the meta-action rolled back.
                    if not txn.history:
                        raise StorageError(
                            f"WAL undo record seq {record_seq} with no "
                            f"committed transaction to undo"
                        )
                    undone = txn.history.pop()
                    if undone.txn_id != payload.get("txn_id", undone.txn_id):
                        raise StorageError(
                            f"WAL undo record seq {record_seq} names txn "
                            f"{payload['txn_id']} but history ends at "
                            f"{undone.txn_id}"
                        )
                    txn.replay(undone, undo=True)
                    txn.next_txn_id = max(txn.next_txn_id, undone.txn_id + 1)
                    report.replayed += 1
                case "reorg_begin" | "reorg_step" | "reorg_end":
                    # Steps re-run the live driver's deterministic group
                    # move.  An epoch not ended when the log stops is
                    # abandoned -- a checkpoint taken mid-epoch drops the
                    # begin record, so an orphan step opens one too.
                    report.reorg_abandoned = kind != "reorg_end"
                    if kind == "reorg_step":
                        db.storage.migrate_group(
                            payload["instances"],
                            lambda iid: db.instance(iid).record_size(),
                        )
                        report.reorg_steps_replayed += 1
                case "fed_send" | "fed_ack" | "fed_recv" | "fed_migrate":
                    # Delivery state only: batch contents reach a database
                    # through the consumer's own logged transaction.
                    fed.apply(payload)
                    report.fed_records_replayed += 1
                case _:
                    raise StorageError(
                        f"WAL record seq {record_seq} has unknown payload "
                        f"type {kind!r}"
                    )
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            which = (
                f"seq {payload['seq']}"
                if isinstance(payload, dict) and "seq" in payload
                else "(no seq)"
            )
            raise StorageError(f"malformed WAL record {which}: {exc!r}") from exc
        seq = record_seq
    report.fed_state = None if fed.empty else fed.to_dict()
    report.fed_migration_abandoned = fed.migrating
    return db, seq, report
