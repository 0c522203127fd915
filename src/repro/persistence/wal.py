"""The append-only write-ahead log.

One file, a sequence of framed records.  Each record is::

    +----------------+----------------+------------------------+
    | length (4, BE) | CRC32 (4, BE)  | payload (JSON, UTF-8)  |
    +----------------+----------------+------------------------+

The payload is a JSON object describing one durable event: a committed
transaction (``type: "commit"``, carrying the delta's primitive records via
:func:`repro.storage.codec.encode_record`), an Undo meta-action
(``type: "undo"``), a reorganisation step or a federation delivery event.
Every payload carries a monotonically increasing ``seq`` so recovery can
skip records already folded into a checkpoint.  This module only frames
payloads; :meth:`repro.persistence.manager.PersistenceManager._journal`
is the one place that builds and appends them, and
:func:`repro.persistence.recovery.recover_database` the one place that
reads them back.

Durability discipline: ``append`` writes the frame, flushes, and (with
``sync=True``) fsyncs before returning -- the transaction is durable the
moment ``append`` returns, and not before.  A crash mid-append leaves a
torn trailing frame; :func:`scan_wal` detects it (short frame or CRC
mismatch), reports the valid prefix length, and recovery truncates the
file back to it.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.events import WalFsync

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.persistence.faults import FaultInjector

_FRAME_HEADER = struct.Struct(">II")  # payload length, CRC32(payload)


# ---------------------------------------------------------------------------
# the log itself
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """Appender over one WAL file.

    Parameters
    ----------
    path:
        The log file; created if absent, appended to if present.
    sync:
        fsync after every append (the durable configuration).  ``False``
        still flushes to the OS -- benchmarks use it to price the fsync.
    injector:
        Optional :class:`~repro.persistence.faults.FaultInjector` given a
        chance to tamper with (or crash around) every append.
    """

    def __init__(
        self,
        path: str,
        sync: bool = True,
        injector: "FaultInjector | None" = None,
        hub=None,
    ) -> None:
        self.path = path
        self.sync = sync
        self.injector = injector
        #: optional :class:`repro.obs.EventHub` for fsync-latency events.
        self.hub = hub
        self._fh = open(path, "ab")
        #: frames appended through this handle (injector crash points count
        #: against this index).
        self.appended = 0
        #: fsync calls issued (the benchmark's costed quantity).
        self.syncs = 0

    def _fsync(self) -> None:
        hub = self.hub
        if hub is not None and hub.active:
            from time import perf_counter

            started = perf_counter()
            os.fsync(self._fh.fileno())
            hub.emit(WalFsync(seconds=perf_counter() - started))
        else:
            os.fsync(self._fh.fileno())
        self.syncs += 1

    def append(self, payload: dict) -> int:
        """Frame, write, and (optionally) fsync one payload; returns its size."""
        data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
        frame = _FRAME_HEADER.pack(len(data), zlib.crc32(data)) + data
        if self.injector is not None:
            frame = self.injector.before_append(self.appended, frame)
        self._fh.write(frame)
        self._fh.flush()
        if self.sync:
            self._fsync()
        self.appended += 1
        if self.injector is not None:
            self.injector.after_append(self.appended)
        return len(frame)

    def reset(self) -> None:
        """Truncate the log to empty (a checkpoint absorbed its records)."""
        self._fh.truncate(0)
        self._fh.seek(0)
        self._fh.flush()
        if self.sync:
            self._fsync()

    def tell(self) -> int:
        return self._fh.tell()

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()


# ---------------------------------------------------------------------------
# scanning / repair
# ---------------------------------------------------------------------------


@dataclass
class WalScan:
    """Result of reading a WAL file front to back."""

    payloads: list[dict]
    #: bytes of the longest valid record prefix.
    valid_bytes: int
    #: why scanning stopped early: ``None`` (clean end), ``"torn"`` (short
    #: header or payload), or ``"crc"`` (checksum mismatch).
    dropped: str | None

    @property
    def clean(self) -> bool:
        return self.dropped is None


def scan_wal(path: str) -> WalScan:
    """Read every whole, checksum-valid record; stop at the first bad one.

    A torn or corrupt record ends the scan: records after it cannot be
    trusted (framing has lost sync), so recovery replays only the valid
    prefix -- each prefix record was durable at append time, which is the
    crash-consistency contract.
    """
    if not os.path.exists(path):
        return WalScan(payloads=[], valid_bytes=0, dropped=None)
    with open(path, "rb") as fh:
        buf = fh.read()
    payloads: list[dict] = []
    offset = 0
    dropped: str | None = None
    while offset < len(buf):
        if offset + _FRAME_HEADER.size > len(buf):
            dropped = "torn"
            break
        length, crc = _FRAME_HEADER.unpack_from(buf, offset)
        start = offset + _FRAME_HEADER.size
        data = buf[start : start + length]
        if len(data) < length:
            dropped = "torn"
            break
        if zlib.crc32(data) != crc:
            dropped = "crc"
            break
        try:
            payloads.append(json.loads(data))
        except ValueError:
            # CRC passed but the payload is not JSON: treat as corruption.
            dropped = "crc"
            break
        offset = start + length
    return WalScan(payloads=payloads, valid_bytes=offset, dropped=dropped)


def repair_wal(path: str, scan: WalScan) -> bool:
    """Truncate a WAL back to its valid prefix; True when bytes were cut."""
    if scan.clean:
        return False
    with open(path, "r+b") as fh:
        fh.truncate(scan.valid_bytes)
        fh.flush()
        os.fsync(fh.fileno())
    return True


def wal_payload_spans(path: str) -> list[tuple[int, int]]:
    """(payload start offset, payload length) for each valid record.

    Used by the fault harness to aim a bit-flip at a specific record's
    payload bytes.
    """
    spans: list[tuple[int, int]] = []
    if not os.path.exists(path):
        return spans
    with open(path, "rb") as fh:
        buf = fh.read()
    offset = 0
    while offset + _FRAME_HEADER.size <= len(buf):
        length, __ = _FRAME_HEADER.unpack_from(buf, offset)
        start = offset + _FRAME_HEADER.size
        if start + length > len(buf):
            break
        spans.append((start, length))
        offset = start + length
    return spans
