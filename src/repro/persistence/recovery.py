"""Crash recovery: checkpoint + WAL tail replay.

Recovery rebuilds the database three ways at once:

1. **Load the latest checkpoint** (if any) through
   :func:`repro.storage.codec.restore_database` -- instances, intrinsic and
   cached values, connections, subtypes, out-of-date marks, layout, and
   transaction history all come back exactly as dumped, streamed one
   record at a time; a damaged image raises :class:`StorageError`.
2. **Replay the WAL tail forward.**  Every record whose ``seq`` is beyond
   the checkpoint's high-water mark is re-applied through the transaction
   manager's replay layer (logging and constraint vetoes suppressed --
   every replayed transaction already passed its commit audit).  Commit
   records re-enter history; undo records pop it, exactly as the original
   meta-action did.
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
from repro.persistence.wal import decode_wal_payload, repair_wal, scan_wal
from repro.txn.log import CreateRecord

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
    the last durable sequence number (new appends continue after it).
    """
    from repro.core.database import Database

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

    from repro.persistence.manager import FedState

    seq = base_seq
    replayed = 0
    skipped = 0
    reorg_steps_replayed = 0
    fed_records_replayed = 0
    open_reorg_epoch: int | None = None
    open_fed_migration = False
    fed = FedState.from_dict(header.get("fed"))
    max_iid = db._next_iid - 1
    for payload in scan.payloads:
        kind, record_seq, delta = decode_wal_payload(payload)
        if record_seq <= base_seq:
            skipped += 1
            continue
        if kind in ("fed_send", "fed_ack", "fed_recv", "fed_migrate"):
            # Delivery-state records replay into the durable outbox /
            # applied maps; the batch contents themselves never touch the
            # database here -- application always goes through the
            # consumer's own logged delivery transaction.
            if kind == "fed_send":
                fed.record_send(
                    payload["channel"], payload["fed_seq"], payload["changes"]
                )
            elif kind == "fed_ack":
                fed.record_ack(payload["channel"], payload["fed_seq"])
            elif kind == "fed_recv":
                fed.record_recv(payload["channel"], payload["fed_seq"])
            else:
                open_fed_migration = payload["phase"] == "begin"
            fed_records_replayed += 1
            seq = record_seq
            continue
        if kind in ("reorg_begin", "reorg_step", "reorg_end"):
            # Migration steps are replayed through the same deterministic
            # group move the live driver used; a begin with no matching end
            # means the crash interrupted the epoch, which recovery abandons
            # (the layout stays mixed but every instance is placed once).
            if kind == "reorg_begin":
                open_reorg_epoch = payload["epoch"]
            elif kind == "reorg_step":
                # A checkpoint taken mid-epoch truncates the begin record;
                # orphan steps still mean the epoch was in flight.
                open_reorg_epoch = payload["epoch"]
                db.storage.migrate_group(
                    payload["instances"],
                    lambda iid: db.instance(iid).record_size(),
                )
                reorg_steps_replayed += 1
            else:
                open_reorg_epoch = None
            seq = record_seq
            continue
        if kind == "commit":
            assert delta is not None
            db.txn.apply_forward(delta)
            db.txn.history.append(delta)
            db.txn._next_txn_id = max(db.txn._next_txn_id, delta.txn_id + 1)
            for record in delta.records:
                if isinstance(record, CreateRecord):
                    max_iid = max(max_iid, record.iid)
        else:
            # Undo: pop the transaction whose commit record re-entered
            # history (commit order is replay order, so the most recent
            # entry is the one the original meta-action rolled back) and
            # apply its inverse, mirroring TransactionManager.undo.
            if not db.txn.history:
                raise StorageError(
                    f"WAL undo record seq {record_seq} with no committed "
                    f"transaction to undo"
                )
            undone = db.txn.history.pop()
            if undone.txn_id != payload.get("txn_id", undone.txn_id):
                raise StorageError(
                    f"WAL undo record seq {record_seq} names txn "
                    f"{payload['txn_id']} but history ends at {undone.txn_id}"
                )
            db.txn.apply_inverse_delta(undone)
        seq = record_seq
        replayed += 1
    # Creates replayed from the WAL bypass the allocator; keep it ahead of
    # every id ever issued so new instances never collide with replayed
    # (or replayed-then-deleted) ones.
    db._next_iid = max(db._next_iid, max_iid + 1)
    report = RecoveryReport(
        checkpoint_seq=base_seq,
        replayed=replayed,
        skipped=skipped,
        dropped=scan.dropped,
        truncated_bytes=truncated,
        reorg_steps_replayed=reorg_steps_replayed,
        reorg_abandoned=open_reorg_epoch is not None,
        fed_records_replayed=fed_records_replayed,
        fed_state=None if fed.empty else fed.to_dict(),
        fed_migration_abandoned=open_fed_migration,
    )
    return db, seq, report
