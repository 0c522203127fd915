"""Deltas and change descriptions as first-class database objects.

Section 3: "Because we can support data of arbitrary types as objects in
the Cactis model it is easy to create objects which represent the edit
operations that make up a delta.  Since these deltas are normal objects
they can be attached to other objects such as change descriptions, and in
general can be integrated with the rest of the database."

:class:`DeltaCatalog` does exactly that: it extends a live database's
schema with ``delta`` and ``change_description`` classes, then mirrors
every committed transaction into a ``delta`` object.  Change descriptions
attach to deltas through an ordinary relationship, and a derived attribute
on the description aggregates the total primitive-change volume it covers
-- the metadata itself benefits from incremental evaluation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.rules import AttributeTarget, Local, Received, Rule, TransmitTarget
from repro.core.schema import (
    AttrKind,
    AttributeDef,
    End,
    FlowDecl,
    ObjectClass,
    PortDef,
    RelationshipType,
)
from repro.errors import VersionError
from repro.txn.log import Delta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database

DELTA_CLASS = "delta"
DESCRIPTION_CLASS = "change_description"
REL_TYPE = "describes_change"


class DeltaCatalog:
    """Mirrors committed deltas into the database itself."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self._delta_iids: dict[int, int] = {}  # txn id -> delta object id
        self._installed = False
        self._install_schema()
        db.txn.add_commit_listener(self._on_commit)
        self._mirroring = False

    # -- schema ------------------------------------------------------------

    def _install_schema(self) -> None:
        schema = self.db.schema
        if DELTA_CLASS in schema.classes:
            self._installed = True
            return
        with self.db.extend_schema() as live:
            live.add_relationship_type(
                RelationshipType(
                    REL_TYPE,
                    [
                        FlowDecl("record_count", "integer", End.PLUG, default=0),
                        FlowDecl("byte_size", "integer", End.PLUG, default=0),
                    ],
                )
            )
            live.add_class(
                ObjectClass(
                    DELTA_CLASS,
                    attributes=[
                        AttributeDef("txn_id", "integer"),
                        AttributeDef("label", "string"),
                        AttributeDef("record_count", "integer"),
                        AttributeDef("byte_size", "integer"),
                    ],
                    ports=[
                        PortDef("described_by", REL_TYPE, End.PLUG, multi=True)
                    ],
                    rules=[
                        Rule(
                            TransmitTarget("described_by", "record_count"),
                            {"n": Local("record_count")},
                            lambda n: n,
                        ),
                        Rule(
                            TransmitTarget("described_by", "byte_size"),
                            {"n": Local("byte_size")},
                            lambda n: n,
                        ),
                    ],
                )
            )
            live.add_class(
                ObjectClass(
                    DESCRIPTION_CLASS,
                    attributes=[
                        AttributeDef("title", "string"),
                        AttributeDef("author", "string"),
                        AttributeDef(
                            "total_records", "integer", AttrKind.DERIVED
                        ),
                        AttributeDef(
                            "total_bytes", "integer", AttrKind.DERIVED
                        ),
                    ],
                    ports=[
                        PortDef("covers", REL_TYPE, End.SOCKET, multi=True)
                    ],
                    rules=[
                        Rule(
                            AttributeTarget("total_records"),
                            {"counts": Received("covers", "record_count")},
                            lambda counts: sum(counts),
                        ),
                        Rule(
                            AttributeTarget("total_bytes"),
                            {"sizes": Received("covers", "byte_size")},
                            lambda sizes: sum(sizes),
                        ),
                    ],
                )
            )
        self._installed = True

    # -- mirroring ------------------------------------------------------------

    def _on_commit(self, delta: Delta) -> None:
        if self._mirroring:
            return  # the mirror's own transaction must not mirror itself
        self._mirroring = True
        try:
            iid = self.db.create(
                DELTA_CLASS,
                txn_id=delta.txn_id,
                label=delta.label,
                record_count=len(delta),
                byte_size=delta.size_estimate(),
            )
            self._delta_iids[delta.txn_id] = iid
        finally:
            self._mirroring = False

    # -- API ------------------------------------------------------------

    def delta_object(self, txn_id: int) -> int:
        try:
            return self._delta_iids[txn_id]
        except KeyError:
            raise VersionError(
                f"no mirrored delta object for transaction {txn_id}"
            ) from None

    def mirrored_txn_ids(self) -> list[int]:
        return sorted(self._delta_iids)

    def last_mirrored_txn(self) -> int:
        """Transaction id of the most recently mirrored *user* commit.

        The mirror objects themselves commit through ordinary transactions
        (they are normal objects!), so ``db.txn.history[-1]`` is usually
        the mirror's own commit; this accessor names the user-level one.
        """
        if not self._delta_iids:
            raise VersionError("no transactions have been mirrored yet")
        return max(self._delta_iids)

    def describe(
        self, title: str, txn_ids: list[int], author: str = ""
    ) -> int:
        """Create a change description covering the given transactions."""
        self._mirroring = True
        try:
            description = self.db.create(
                DESCRIPTION_CLASS, title=title, author=author
            )
            for txn_id in txn_ids:
                self.db.connect(
                    description,
                    "covers",
                    self.delta_object(txn_id),
                    "described_by",
                )
        finally:
            self._mirroring = False
        return description

    def description_report(self, description_iid: int) -> dict:
        """The aggregated metadata of one change description."""
        db, iid = self.db, description_iid
        return {
            "title": db.get_attr(iid, "title"),
            "author": db.get_attr(iid, "author"),
            "deltas": len(db.peers(iid, "covers")),
            "total_records": db.get_attr(iid, "total_records"),
            "total_bytes": db.get_attr(iid, "total_bytes"),
        }
