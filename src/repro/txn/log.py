"""Undo-log records and deltas.

Section 2.2: "all of the actions that take place as a consequence of
changing an attribute value can be undone simply by restoring the old value
of the attribute.  Updates resulting from structural changes can be undone
by restoring the old structure."  Section 3 adds the key economy: "the
information needed to remember a delta is proportional in size to the
initial changes made to the database rather than the total change in the
database which may result because of derived data."

Accordingly the log records *only* primitive actions -- intrinsic-attribute
writes and structural changes.  Derived recomputation logs nothing: rolling
back the primitives re-marks the affected region and derived values are
simply recomputed on demand.  A :class:`Delta` (one transaction's records)
is a first-class object: the version facility chains deltas, attaches them
to change descriptions, and replays them in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class SetAttrRecord:
    """An intrinsic attribute was assigned.

    ``had_value`` distinguishes "was the atom default at creation" from an
    explicit earlier value only in so far as both are stored values; it is
    False only for synthetic cases where the attribute had never been
    materialised.
    """

    iid: int
    attr: str
    old_value: Any
    new_value: Any


@dataclass(frozen=True, slots=True)
class CreateRecord:
    """An instance was created (undo = delete it again).

    ``intrinsics`` captures the initial intrinsic values so the version
    facility can replay the creation forward exactly.
    """

    iid: int
    class_name: str
    intrinsics: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class DeleteRecord:
    """An instance was deleted; ``snapshot`` restores it on undo.

    The snapshot captures intrinsic values, cached derived values, active
    subtypes, out-of-date slot names, and the connection lists -- empty
    here, since delete breaks every connection first and undo replays the
    DisconnectRecords it logged.  An image's instance record is the same
    snapshot with its connections filled in.
    """

    snapshot: dict[str, Any]

    @property
    def iid(self) -> int:
        return self.snapshot["iid"]


@dataclass(frozen=True, slots=True)
class ConnectRecord:
    """A relationship was established (undo = break it)."""

    iid_a: int
    port_a: str
    iid_b: int
    port_b: str


@dataclass(frozen=True, slots=True)
class DisconnectRecord:
    """A relationship was broken; indices restore connection order on undo."""

    iid_a: int
    port_a: str
    iid_b: int
    port_b: str
    index_a: int
    index_b: int


LogRecord = (
    SetAttrRecord | CreateRecord | DeleteRecord | ConnectRecord | DisconnectRecord
)


@dataclass(slots=True)
class Delta:
    """The ordered primitive-change records of one committed transaction.

    ``records`` are in execution order; undo applies inverses in reverse
    order, redo re-applies them forward.  ``txn_id`` and ``label`` identify
    the delta in transaction history and in version streams.
    """

    txn_id: int
    records: list[LogRecord] = field(default_factory=list)
    label: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def size_estimate(self) -> int:
        """Approximate stored size in bytes (for the E6 economy measurement)."""
        size = 16
        for record in self.records:
            size += 24
            if isinstance(record, SetAttrRecord):
                size += _value_size(record.old_value) + _value_size(record.new_value)
            elif isinstance(record, DeleteRecord):
                size += 32 + 16 * len(record.snapshot.get("attrs", ()))
        return size


def _value_size(value: Any) -> int:
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (list, tuple)):
        return 8 * len(value)
    return 8
