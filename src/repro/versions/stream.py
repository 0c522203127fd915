"""Version streams over transaction deltas.

Section 3: "we need only remember the small changes made in order to
restore the database to its old status.  This gives us an efficient *delta*
mechanism which allows us to recover old versions from the current one."

A :class:`VersionStream` listens to a database's commits and groups the
resulting :class:`~repro.txn.log.Delta` objects into named *versions*.
Versions form a tree: checking out an old version and committing new work
creates a branch.  Checkout navigates the tree -- applying delta inverses
up to the common ancestor, then deltas forward down to the target -- so the
cost of moving between versions is proportional to the primitive changes
between them, never to the derived ripple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import VersionError
from repro.txn.log import Delta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


@dataclass
class Version:
    """A named point in a stream's history."""

    version_id: int
    name: str
    parent: int | None
    #: deltas leading from the parent version to this one, oldest first.
    deltas: list[Delta] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    def change_size(self) -> int:
        """Total stored size of the deltas (bytes, per the log's estimate)."""
        return sum(delta.size_estimate() for delta in self.deltas)

    def record_count(self) -> int:
        return sum(len(delta) for delta in self.deltas)


class VersionStream:
    """The version history of one database.

    The stream starts at an implicit root version (id 0, the state of the
    database when the stream attached).  Committed deltas accumulate as
    *pending* until :meth:`tag` freezes them into a new version.
    """

    def __init__(self, db: "Database", name: str = "main") -> None:
        self.db = db
        self.name = name
        root = Version(version_id=0, name="root", parent=None)
        self.versions: dict[int, Version] = {0: root}
        self._by_name: dict[str, int] = {"root": 0}
        self._next_id = 1
        self.current: int = 0
        self.pending: list[Delta] = []
        db.txn.add_commit_listener(self.pending.append)
        db.txn.add_undo_guard(self._guard_undo)
        db.txn.add_undo_listener(self._on_undo)

    def _guard_undo(self, delta: Delta) -> None:
        """Undo takes back untagged work only.  A delta frozen into a
        version (or committed before the stream attached, or on a branch a
        checkout has left) is part of what ``current`` names: undoing it
        would leave ``current`` stale and a later checkout would replay its
        inverse a second time.  Moving to an earlier state is a checkout."""
        if not (self.pending and self.pending[-1] is delta):
            raise VersionError(
                f"cannot Undo transaction {delta.txn_id}: it is not untagged "
                f"work of version stream {self.name!r} (current version "
                f"{self.versions[self.current].name!r}); check out an earlier "
                f"version instead"
            )

    def _on_undo(self, delta: Delta) -> None:
        """An Undo of untagged work takes its delta out of ``pending``, or
        a later tag would freeze (and checkout replay) an undone change."""
        self.pending.pop()

    # -- tagging ------------------------------------------------------------

    def tag(self, name: str) -> Version:
        """Freeze pending deltas into a new version named ``name``.

        The new version's parent is the current version; tagging from a
        non-tip version creates a branch.
        """
        if name in self._by_name:
            raise VersionError(f"version name {name!r} is already used")
        version = Version(
            version_id=self._next_id,
            name=name,
            parent=self.current,
            deltas=list(self.pending),
        )
        self._next_id += 1
        self.versions[version.version_id] = version
        self._by_name[name] = version.version_id
        self.versions[self.current].children.append(version.version_id)
        self.pending.clear()
        self.current = version.version_id
        return version

    # -- lookup ------------------------------------------------------------

    def version(self, ref: int | str) -> Version:
        if isinstance(ref, str):
            try:
                ref = self._by_name[ref]
            except KeyError:
                raise VersionError(f"unknown version name {ref!r}") from None
        try:
            return self.versions[ref]
        except KeyError:
            raise VersionError(f"unknown version id {ref!r}") from None

    def lineage(self, ref: int | str) -> list[int]:
        """Version ids from the root down to ``ref`` (inclusive)."""
        chain: list[int] = []
        current: int | None = self.version(ref).version_id
        while current is not None:
            chain.append(current)
            current = self.versions[current].parent
        chain.reverse()
        return chain

    def tips(self) -> list[Version]:
        """Versions with no children (the heads of every branch)."""
        return [v for v in self.versions.values() if not v.children]

    # -- checkout ------------------------------------------------------------

    def checkout(self, ref: int | str, discard_pending: bool = False) -> Version:
        """Move the database to the state of version ``ref``.

        Pending (untagged) deltas block a checkout unless
        ``discard_pending`` is given, in which case they are rolled back
        first -- the Undo guarantee extends to version navigation.  On a
        durable database the move ends with a checkpoint: the replay is in
        no WAL record, so the image is what makes it survive a reopen, and
        a crash before the image is installed recovers the state before the
        checkout.
        """
        target = self.version(ref)
        if self.pending and not discard_pending:
            raise VersionError(
                f"{len(self.pending)} untagged committed transaction(s) "
                f"pending; tag them or pass discard_pending=True"
            )
        here = self.lineage(self.current)
        there = self.lineage(target.version_id)
        common = 0
        for a, b in zip(here, there):
            if a != b:
                break
            common += 1
        # Walk up: the pending deltas, then every version between current
        # and the common ancestor, newest first.  Walk down: every version
        # from the ancestor to the target, oldest first.
        up = self.pending[::-1] + [
            delta
            for vid in reversed(here[common:])
            for delta in reversed(self.versions[vid].deltas)
        ]
        down = [delta for vid in there[common:] for delta in self.versions[vid].deltas]
        for delta in up:
            self.db.txn.replay(delta, undo=True)
        for delta in down:
            self.db.txn.replay(delta, undo=False)
        self.pending.clear()
        self.current = target.version_id
        if (up or down) and self.db.persistence is not None:
            self.db.persistence.checkpoint()
        return target

    # -- diagnostics ------------------------------------------------------------

    def distance(self, ref_a: int | str, ref_b: int | str) -> int:
        """Number of log records replayed by a checkout from ``a`` to ``b``."""
        a_line = self.lineage(ref_a)
        b_line = self.lineage(ref_b)
        common = 0
        for x, y in zip(a_line, b_line):
            if x != y:
                break
            common += 1
        records = 0
        for vid in a_line[common:]:
            records += self.versions[vid].record_count()
        for vid in b_line[common:]:
            records += self.versions[vid].record_count()
        return records

    def __repr__(self) -> str:
        return (
            f"VersionStream({self.name!r}, versions={len(self.versions)}, "
            f"current={self.versions[self.current].name!r})"
        )
