"""Instance records.

An :class:`Instance` is the runtime record for one abstract object: its
class, the values of its attribute slots (intrinsic values plus cached
derived values), and its relationship connections.  Out-of-date bookkeeping
lives in the evaluation engine, not here, so that instance records stay a
pure image of database state -- which is what the storage layer pages in and
out, and what the undo log snapshots on delete.

Connections are stored per port as an ordered list of
:class:`Connection` pairs; ordering is observable (a ``Multi`` port's
received values arrive in connection order) and is restored exactly by undo.

Predicate-subtype membership is an immutable ``frozenset``: a flip replaces
it, and every instance that belongs to no predicate subtype shares the one
:data:`NO_SUBTYPES` constant, so membership costs nothing where it is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConnectionError_


#: the membership set of every instance outside all predicate subtypes
#: (``frozenset()`` is not a singleton, so the sharing is explicit).
NO_SUBTYPES: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class Connection:
    """One end's view of a relationship connection: the peer and its port."""

    peer: int
    peer_port: str


class Instance:
    """Runtime record of one abstract object."""

    __slots__ = ("iid", "class_name", "attrs", "connections", "active_subtypes")

    def __init__(self, iid: int, class_name: str) -> None:
        self.iid = iid
        self.class_name = class_name
        #: slot-name -> value; holds intrinsic values and cached values of
        #: derived attributes and transmitted values.
        self.attrs: dict[str, Any] = {}
        #: port name -> ordered connections.
        self.connections: dict[str, list[Connection]] = {}
        #: names of predicate subtypes this instance currently belongs to;
        #: replaced, never mutated, by a flip.
        self.active_subtypes: frozenset[str] = NO_SUBTYPES

    # -- connections --------------------------------------------------------

    def connections_on(self, port: str) -> list[Connection]:
        """The ordered connections on ``port`` (empty when dangling)."""
        return self.connections.get(port, [])

    def add_connection(self, port: str, conn: Connection, index: int | None = None) -> None:
        """Attach ``conn`` on ``port``; ``index`` restores a prior position (undo)."""
        conns = self.connections.setdefault(port, [])
        if index is None:
            conns.append(conn)
        else:
            conns.insert(index, conn)

    def remove_connection(self, port: str, conn: Connection) -> int:
        """Detach ``conn`` from ``port`` and return its former index."""
        conns = self.connections.get(port, [])
        try:
            index = conns.index(conn)
        except ValueError:
            raise ConnectionError_(
                f"instance {self.iid}: port {port!r} is not connected to "
                f"instance {conn.peer} port {conn.peer_port!r}"
            ) from None
        del conns[index]
        if not conns:
            del self.connections[port]
        return index

    def is_connected(self, port: str, conn: Connection) -> bool:
        return conn in self.connections.get(port, ())

    def all_connections(self) -> list[tuple[str, Connection]]:
        """Every (port, connection) pair, used when deleting an instance."""
        pairs: list[tuple[str, Connection]] = []
        for port, conns in self.connections.items():
            pairs.extend((port, c) for c in conns)
        return pairs

    # -- storage size model --------------------------------------------------

    def record_size(self) -> int:
        """Approximate on-disk record size in bytes.

        The simulated disk packs instances into fixed-size blocks; the size
        model is deliberately simple (header + per-slot + per-connection
        costs plus the width of string/array payloads) but is stable, so
        clustering decisions are reproducible.
        """
        size = 32  # record header
        for name, value in self.attrs.items():
            size += 8 + len(name)
            if isinstance(value, str):
                size += len(value)
            elif isinstance(value, (list, tuple)):
                size += 8 * len(value)
            else:
                size += 8
        for port, conns in self.connections.items():
            size += 8 + len(port) + 16 * len(conns)
        return size

    # -- snapshots (undo / versions) -----------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A deep-enough copy of this record for undo-of-delete."""
        return {
            "iid": self.iid,
            "class_name": self.class_name,
            "attrs": dict(self.attrs),
            "connections": {
                port: list(conns) for port, conns in self.connections.items()
            },
            "active_subtypes": self.active_subtypes,
        }

    @classmethod
    def from_snapshot(cls, snap: dict[str, Any]) -> "Instance":
        """Rebuild an instance record from :meth:`snapshot` output."""
        inst = cls(snap["iid"], snap["class_name"])
        inst.attrs = dict(snap["attrs"])
        inst.connections = {
            port: list(conns) for port, conns in snap["connections"].items()
        }
        inst.active_subtypes = frozenset(snap["active_subtypes"]) or NO_SUBTYPES
        return inst

    def __repr__(self) -> str:
        return f"Instance(iid={self.iid}, class={self.class_name!r})"
