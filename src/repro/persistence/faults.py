"""The fault-injection harness.

Recovery code that has never survived a crash is recovery code that does
not work.  This module provides the three crash families the WAL's design
must tolerate, plus the state fingerprint the crash-matrix tests compare:

* **process death around an append** -- :func:`crash_before` (commit not
  durable) and :func:`crash_after` (commit durable, process dies before
  acknowledging);
* **torn final write** -- :func:`torn_write` persists only a prefix of the
  final frame, as a kernel/disk crash mid-sector would;
* **media corruption** -- :func:`flip_record_bit` and
  :func:`truncate_tail` mutilate the log file post-hoc, exercising the CRC
  reject path.

Injected crashes surface as :class:`CrashPoint`, which deliberately
subclasses ``BaseException``: a simulated power cut must not be absorbed
by ``except Exception`` cleanup paths in the code under test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.persistence.wal import wal_payload_spans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


class CrashPoint(BaseException):
    """A simulated process death at an injected fault point."""


class FaultInjector:
    """Hook pair around every WAL append; subclass to inject faults.

    ``before_append`` may raise :class:`CrashPoint` (nothing of the record
    reaches disk) or return a tampered frame (e.g. a truncated one for a
    torn write); ``after_append`` may raise once the frame is durable.
    """

    def before_append(self, index: int, frame: bytes) -> bytes:
        return frame

    def after_append(self, count: int) -> None:
        return None


class crash_before(FaultInjector):
    """Die immediately before the Nth append (1-based): record N is lost."""

    def __init__(self, record: int) -> None:
        self.record = record

    def before_append(self, index: int, frame: bytes) -> bytes:
        if index + 1 == self.record:
            raise CrashPoint(f"crash before WAL append #{self.record}")
        return frame


class crash_after(FaultInjector):
    """Die immediately after the Nth append: record N is durable."""

    def __init__(self, record: int) -> None:
        self.record = record

    def after_append(self, count: int) -> None:
        if count == self.record:
            raise CrashPoint(f"crash after WAL append #{self.record}")


class torn_write(FaultInjector):
    """Persist only ``keep_bytes`` of the Nth frame, then die.

    ``keep_bytes`` may cut inside the 8-byte header or inside the payload;
    both must scan as a torn record.
    """

    def __init__(self, record: int, keep_bytes: int) -> None:
        self.record = record
        self.keep_bytes = keep_bytes

    def before_append(self, index: int, frame: bytes) -> bytes:
        if index + 1 == self.record:
            return frame[: self.keep_bytes]
        return frame

    def after_append(self, count: int) -> None:
        if count == self.record:
            raise CrashPoint(
                f"torn write: WAL append #{self.record} kept only "
                f"{self.keep_bytes} bytes"
            )


# ---------------------------------------------------------------------------
# post-hoc file mutilation
# ---------------------------------------------------------------------------


def truncate_tail(path: str, nbytes: int) -> None:
    """Cut the last ``nbytes`` off a file (a torn final write, after the fact)."""
    import os

    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(max(0, size - nbytes))


def flip_record_bit(path: str, record: int = -1, byte: int = 0, bit: int = 0) -> None:
    """Flip one bit inside the payload of the given WAL record.

    ``record`` indexes the log's structurally whole records (negative from
    the end); the CRC then fails on scan and recovery must drop the record
    rather than replay garbage.
    """
    spans = wal_payload_spans(path)
    if not spans:
        raise ValueError(f"{path!r} holds no whole WAL records to corrupt")
    start, length = spans[record]
    offset = start + (byte % length)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        original = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([original[0] ^ (1 << (bit % 8))]))


# ---------------------------------------------------------------------------
# state equivalence
# ---------------------------------------------------------------------------


def database_fingerprint(db: "Database") -> dict:
    """Canonical durable-state fingerprint for crash-matrix comparison.

    Captures exactly what durability promises to preserve: the instance
    population, intrinsic values, connections (with order), active
    subtypes, committed history, and every constraint's outcome.  Cached
    derived values and out-of-date marks are deliberately excluded -- they
    are recomputable, and a recovered database recomputes them on demand.
    Evaluating the constraints below *is* such a demand, so the comparison
    also proves the recovered connections support evaluation.
    """
    instances: dict[int, dict] = {}
    constraints: dict[str, bool] = {}
    for iid in db.instance_ids():
        inst = db.instance(iid)
        plan = db.slot_plans.plan_of(iid)
        intrinsics = {
            attr.name: inst.attrs.get(attr.name)
            for attr in plan.attributes.values()
            if attr.intrinsic
        }
        instances[iid] = {
            "class": inst.class_name,
            "intrinsics": intrinsics,
            "subtypes": sorted(inst.active_subtypes),
            "connections": {
                port: [(conn.peer, conn.peer_port) for conn in conns]
                for port, conns in sorted(inst.connections.items())
                if conns
            },
        }
        for name in plan.constraints:
            constraints[f"{iid}:{name}"] = bool(db.engine.demand((iid, name)))
    return {
        "instances": instances,
        "constraints": constraints,
        "history": [
            (delta.txn_id, delta.label, len(delta.records))
            for delta in db.txn.history
        ],
    }
