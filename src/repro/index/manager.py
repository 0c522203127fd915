"""Incrementally maintained attribute indexes and subtype extents.

Soundness model
---------------

An index over a *derived* attribute cannot eagerly chase every value: the
engine is lazy, so a slot may be cached-but-stale (it sits in
``engine.out_of_date``) or never evaluated at all.  The manager therefore
keeps two auxiliary structures per index:

* the index itself maps the **last written value** of every covered slot
  (the engine's ``write_slot_value`` is the single choke point for derived
  writes, ``_do_set_attr`` for intrinsic ones, and both are also the
  rollback/recovery replay path -- so the mapping survives aborts and
  restarts without extra bookkeeping);
* a ``pending`` set of covered instances whose slot has **never** been
  evaluated (fresh creates of derived attributes, unresolved subtype
  membership).

A reader calls :meth:`IndexManager.refresh_attr_index` /
:meth:`IndexManager.refresh_extent` before trusting a structure: the
refresh demands every pending slot and every covered slot still marked
out of date under the structure's slot name, after which the index is
exact.  This is the paper's demand-driven evaluation applied to a
set-valued derived datum: the first query over a cold derived index pays
the same evaluations the naive scan would, and every query after that is
incremental.

A sweep reads one bucket.  :meth:`IndexManager.sync` registers the name of
every derived index attribute and every extent's membership slot with the
engine (``engine.watch_stale``), which keeps ``engine.stale_by_name[name]``
-- the iids whose slot of that name is in ``engine.out_of_date`` -- on
every mark and evaluation.  A refresh iterates that bucket, so its cost is
the stale slots of its own name, not every mark the engine holds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.core.rules import subtype_attr_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.instance import Instance

_MISSING = object()


def group_of(value: Any) -> str:
    """The total-order group a key belongs to.

    Python's ``sort`` only succeeds over mutually comparable keys; the
    planner uses these groups to prove an ordered index walk (or a range
    probe) is safe -- a single ``num``/``str`` group -- and to fall back
    to the scan path (which surfaces the naive semantics, errors and all)
    whenever keys are mixed.
    """
    if value is None:
        return "none"
    if isinstance(value, (bool, int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    return f"other:{type(value).__name__}"


@dataclass
class IndexStats:
    """Maintenance and planner counters, surfaced as ``index.*`` metrics."""

    inserts: int = 0
    removes: int = 0
    sweeps: int = 0
    swept_slots: int = 0
    queries: int = 0
    indexed_queries: int = 0
    extent_queries: int = 0
    scan_queries: int = 0
    short_circuits: int = 0


class AttrIndex:
    """An ordered index over one attribute of one class cone.

    ``buckets`` maps each distinct key to the covered instance ids holding
    it, **kept ascending** -- the naive path filters in ascending-iid order
    and then stable-sorts, so equal keys keep ascending iids in both sort
    directions; walking buckets in key order with ascending iids inside
    reproduces that order byte for byte.  ``keys_of_group`` keeps the
    distinct keys of each comparable group sorted for range probes
    (``bisect``) and ordered walks.
    """

    __slots__ = (
        "class_name",
        "attr",
        "covered",
        "derived",
        "buckets",
        "keys_of_group",
        "key_of",
        "pending",
        "unhashable",
        "unsortable_keys",
    )

    def __init__(self, class_name: str, attr: str, covered: frozenset[str], derived: bool) -> None:
        self.class_name = class_name
        self.attr = attr
        #: concrete (non-predicate) class names whose instances belong here.
        self.covered = covered
        self.derived = derived
        self.buckets: dict[Any, list[int]] = {}
        self.keys_of_group: dict[str, list] = {}
        self.key_of: dict[int, Any] = {}
        self.pending: set[int] = set()
        #: covered iids whose value cannot be a dict key (a native rule
        #: returned e.g. a list); their presence disables the index.
        self.unhashable: set[int] = set()
        #: distinct keys outside the ``num``/``str`` groups (no total order
        #: is maintained for them; their presence disables ordered walks).
        self.unsortable_keys = 0

    def __len__(self) -> int:
        return len(self.key_of)

    @property
    def usable(self) -> bool:
        return not self.unhashable

    def insert(self, iid: int, value: Any) -> None:
        self.pending.discard(iid)
        if iid in self.key_of:
            self.remove(iid)
        else:
            self.unhashable.discard(iid)
        try:
            bucket = self.buckets.get(value)
        except TypeError:
            # The maintenance hooks run inside the engine's write path and
            # must never raise; quarantine the instance instead.
            self.unhashable.add(iid)
            return
        self.key_of[iid] = value
        if bucket is None:
            self.buckets[value] = [iid]
            group = group_of(value)
            if group in ("num", "str"):
                insort(self.keys_of_group.setdefault(group, []), value)
            else:
                self.unsortable_keys += 1
        else:
            insort(bucket, iid)

    def remove(self, iid: int) -> None:
        self.pending.discard(iid)
        self.unhashable.discard(iid)
        value = self.key_of.pop(iid, _MISSING)
        if value is _MISSING:
            return
        bucket = self.buckets[value]
        if len(bucket) == 1:
            del self.buckets[value]
            group = group_of(value)
            if group in ("num", "str"):
                keys = self.keys_of_group[group]
                keys.pop(bisect_left(keys, value))
            else:
                self.unsortable_keys -= 1
        else:
            bucket.pop(bisect_left(bucket, iid))

    # -- probes (call refresh first; see module docstring) -----------------

    def single_group(self) -> str | None:
        """The lone comparable key group, or None when keys are mixed."""
        if self.unsortable_keys:
            return None
        groups = [g for g, keys in self.keys_of_group.items() if keys]
        if len(groups) == 1:
            return groups[0]
        if not groups:
            return "num"  # empty index: any walk is trivially safe
        return None

    def equal(self, value: Any) -> list[int]:
        """Covered iids whose key equals ``value``, ascending."""
        try:
            return list(self.buckets.get(value, ()))
        except TypeError:  # unhashable probe value
            return [i for i, k in sorted(self.key_of.items()) if k == value]

    def range(self, op: str, value: Any) -> list[int]:
        """Covered iids whose key satisfies ``key <op> value``, ascending.

        Only call when :meth:`single_group` matches ``group_of(value)`` --
        a mixed index must fall back to the scan path so that incomparable
        keys surface the same ``TypeError`` the naive evaluation raises.
        """
        result: list[int] = []
        for key in self.ordered_keys(False, op, value):
            result.extend(self.buckets[key])
        result.sort()
        return result

    def count_range(self, op: str, value: Any) -> int:
        buckets = self.buckets
        return sum(len(buckets[key]) for key in self.ordered_keys(False, op, value))

    def ordered_keys(self, descending: bool, op: str | None = None, value: Any = None):
        """Distinct keys in walk order: all of the single group's, or --
        given a sarg -- only those satisfying ``key <op> value``, found
        with one ``bisect`` per end of ``value``'s group."""
        if op is None:
            group = self.single_group()
            keys = self.keys_of_group.get(group, []) if group else []
            lo, hi = 0, len(keys)
        else:
            keys = self.keys_of_group.get(group_of(value), [])
            if op == "==":
                lo, hi = bisect_left(keys, value), bisect_right(keys, value)
            elif op == "<":
                lo, hi = 0, bisect_left(keys, value)
            elif op == "<=":
                lo, hi = 0, bisect_right(keys, value)
            elif op == ">":
                lo, hi = bisect_right(keys, value), len(keys)
            elif op == ">=":
                lo, hi = bisect_left(keys, value), len(keys)
            else:  # pragma: no cover - the planner emits only sarg operators
                raise ValueError(f"not a comparison operator: {op!r}")
        selected = keys[lo:hi]
        return selected[::-1] if descending else selected

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AttrIndex({self.class_name}.{self.attr}, entries={len(self)}, "
            f"pending={len(self.pending)})"
        )


class Extent:
    """The materialized member set of one predicate subtype."""

    __slots__ = ("subtype", "slot_name", "cone", "members", "pending")

    def __init__(self, subtype: str, cone: frozenset[str]) -> None:
        self.subtype = subtype
        self.slot_name = subtype_attr_name(subtype)
        #: concrete class names whose instances can acquire the subtype.
        self.cone = cone
        self.members: set[int] = set()
        #: covered iids whose membership slot has never been evaluated.
        self.pending: set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Extent({self.subtype}, members={len(self.members)}, "
            f"pending={len(self.pending)})"
        )


class IndexManager:
    """Owns every index/extent of one database and their maintenance hooks.

    Constructed by :class:`~repro.core.database.Database`; :meth:`sync`
    (re)derives the registered structures from the frozen schema and
    rebuilds them from the live catalog -- called at open and again after
    every dynamic schema extension.
    """

    def __init__(self, db) -> None:
        self.db = db
        self.stats = IndexStats()
        self.attr_indexes: dict[tuple[str, str], AttrIndex] = {}
        self.extents: dict[str, Extent] = {}
        #: indexed attribute names -- the single-set guard the write hot
        #: paths check before doing any work (cf. ``hub.active``).
        self.attr_names: set[str] = set()
        #: ``__subtype__*`` slot names backing a maintained extent.
        self.membership_names: set[str] = set()
        #: union of the two: one membership test in ``write_slot_value``.
        self.hot_names: set[str] = set()
        #: concrete class -> the attribute indexes covering it.
        self._cover: dict[str, tuple[AttrIndex, ...]] = {}
        #: concrete class -> the extents whose cone includes it.
        self._extent_cover: dict[str, tuple[Extent, ...]] = {}
        #: live instance count per concrete class (planner cardinalities).
        self.counts: dict[str, int] = {}
        #: (schema version, class) -> concrete subclass cone, for planning.
        self._cone_cache: dict[tuple[int, str], frozenset[str]] = {}
        self.sync()

    # ------------------------------------------------------------------
    # structure (re)derivation
    # ------------------------------------------------------------------

    def concrete_cone(self, class_name: str) -> frozenset[str]:
        """Non-predicate classes whose instances belong to ``class_name``."""
        schema = self.db.schema
        key = (schema.version, class_name)
        cone = self._cone_cache.get(key)
        if cone is None:
            cone = frozenset(
                name
                for name, cls in schema.classes.items()
                if cls.predicate is None and schema.is_subclass(name, class_name)
            )
            self._cone_cache[key] = cone
        return cone

    def sync(self) -> None:
        """Re-derive index/extent definitions and rebuild from the catalog."""
        self.attr_indexes = {}
        self.extents = {}
        self.attr_names = set()
        self.membership_names = set()
        self.hot_names = set()
        self._cover = {}
        self._extent_cover = {}
        self.counts = {}
        schema = self.db.schema
        for class_name, attrs in sorted(schema.indexes.items()):
            if class_name not in schema.classes:
                continue  # validated at freeze; defensive for stale defs
            resolved = schema.resolved(class_name)
            covered = self.concrete_cone(class_name)
            for attr in attrs:
                attr_def = resolved.attributes.get(attr)
                if attr_def is None:
                    continue
                index = AttrIndex(class_name, attr, covered, attr_def.derived)
                self.attr_indexes[(class_name, attr)] = index
                self.attr_names.add(attr)
        for class_name, cls in schema.classes.items():
            if cls.predicate is None:
                continue
            cone = frozenset(
                name
                for name, candidate in schema.classes.items()
                if candidate.predicate is None
                and class_name in schema.resolved(name).predicate_subtypes
            )
            extent = Extent(class_name, cone)
            self.extents[class_name] = extent
            self.membership_names.add(extent.slot_name)
        self.hot_names = self.attr_names | self.membership_names
        cover: dict[str, list[AttrIndex]] = {}
        for index in self.attr_indexes.values():
            for name in index.covered:
                cover.setdefault(name, []).append(index)
        self._cover = {name: tuple(v) for name, v in cover.items()}
        extent_cover: dict[str, list[Extent]] = {}
        for extent in self.extents.values():
            for name in extent.cone:
                extent_cover.setdefault(name, []).append(extent)
        self._extent_cover = {name: tuple(v) for name, v in extent_cover.items()}
        # The engine keeps one stale bucket per name a sweep reads.
        self.db.engine.watch_stale(
            sorted(
                {i.attr for i in self.attr_indexes.values() if i.derived}
                | self.membership_names
            )
        )
        for iid, instance in self.db._catalog.items():
            self.note_create(iid, instance)

    # ------------------------------------------------------------------
    # maintenance hooks (called from the database primitives)
    # ------------------------------------------------------------------

    def note_create(self, iid: int, instance: "Instance") -> None:
        """``_do_create`` ran (forward op, undo of a delete, or recovery)."""
        class_name = instance.class_name
        self.counts[class_name] = self.counts.get(class_name, 0) + 1
        attrs = instance.attrs
        for index in self._cover.get(class_name, ()):
            value = attrs.get(index.attr, _MISSING)
            if value is _MISSING:
                # Derived and never evaluated: resolved on first refresh.
                index.pending.add(iid)
            else:
                index.insert(iid, value)
                self.stats.inserts += 1
        for extent in self._extent_cover.get(class_name, ()):
            if extent.subtype in instance.active_subtypes:
                extent.members.add(iid)
            if extent.slot_name not in attrs:
                extent.pending.add(iid)

    def note_delete(self, iid: int, instance: "Instance") -> None:
        """``_do_delete`` is removing the instance (forward op or undo)."""
        class_name = instance.class_name
        count = self.counts.get(class_name, 0) - 1
        if count > 0:
            self.counts[class_name] = count
        else:
            self.counts.pop(class_name, None)
        for index in self._cover.get(class_name, ()):
            if iid in index.key_of:
                index.remove(iid)
                self.stats.removes += 1
            else:
                index.pending.discard(iid)
        for extent in self._extent_cover.get(class_name, ()):
            extent.members.discard(iid)
            extent.pending.discard(iid)

    def note_attr_written(
        self, iid: int, name: str, value: Any, class_name: str
    ) -> None:
        """A covered slot took a new stored value.

        Reached from ``_do_set_attr`` (intrinsic writes and their rollback)
        and ``write_slot_value`` (every derived write the engine performs,
        including recomputation during transaction rollback) -- callers
        pre-filter on :attr:`attr_names` so index-free schemas pay one set
        lookup.
        """
        for index in self._cover.get(class_name, ()):
            if index.attr == name:
                index.insert(iid, value)
                self.stats.inserts += 1

    def note_membership_written(self, iid: int, slot_name: str) -> None:
        """A ``__subtype__*`` slot was evaluated: membership is resolved.

        The member-set flip itself arrives via :meth:`note_attach` /
        :meth:`note_detach` from the subtype manager, which the engine's
        special-slot handling invokes right after this write.
        """
        for extent in self.extents.values():
            if extent.slot_name == slot_name:
                extent.pending.discard(iid)

    def note_attach(self, iid: int, subtype: str) -> None:
        extent = self.extents.get(subtype)
        if extent is not None:
            extent.members.add(iid)

    def note_detach(self, iid: int, subtype: str) -> None:
        extent = self.extents.get(subtype)
        if extent is not None:
            extent.members.discard(iid)

    # ------------------------------------------------------------------
    # freshness: bring a structure up to date before a reader trusts it
    # ------------------------------------------------------------------

    def refresh_attr_index(self, index: AttrIndex) -> None:
        """Evaluate every slot the index could be lying about."""
        if not index.derived:
            if index.pending:  # pragma: no cover - intrinsics never pend
                index.pending.clear()
            return
        db = self.db
        catalog = db._catalog
        attr = index.attr
        covered = index.covered
        stale = [
            iid
            for iid in db.engine.stale_by_name[attr]
            if (inst := catalog.get(iid)) is not None and inst.class_name in covered
        ]
        pending = list(index.pending)
        if not stale and not pending:
            return
        self.stats.sweeps += 1
        self._emit_sweep("attr", f"{index.class_name}.{attr}", len(stale), len(pending))
        for iid in stale:
            self.stats.swept_slots += 1
            db.get_attr(iid, attr)
        for iid in pending:
            if iid in catalog:
                self.stats.swept_slots += 1
                db.get_attr(iid, attr)
            else:  # pragma: no cover - deletes clear pending eagerly
                index.pending.discard(iid)

    def refresh_extent(self, extent: Extent) -> None:
        """Resolve every unresolved or stale membership slot of the extent."""
        db = self.db
        catalog = db._catalog
        slot_name = extent.slot_name
        cone = extent.cone
        stale = [
            iid
            for iid in db.engine.stale_by_name[slot_name]
            if (inst := catalog.get(iid)) is not None and inst.class_name in cone
        ]
        pending = [iid for iid in extent.pending if iid in catalog]
        if not stale and not pending:
            return
        self.stats.sweeps += 1
        self._emit_sweep("extent", extent.subtype, len(stale), len(pending))
        for iid in stale:
            self.stats.swept_slots += 1
            db.is_member(iid, extent.subtype)
        for iid in pending:
            self.stats.swept_slots += 1
            db.is_member(iid, extent.subtype)
        extent.pending.difference_update(pending)

    def _emit_sweep(self, kind: str, name: str, stale: int, pending: int) -> None:
        hub = self.db.obs.hub
        if hub.active:
            from repro.obs.events import IndexSweep

            hub.emit(IndexSweep(kind=kind, name=name, stale=stale, pending=pending))

    # ------------------------------------------------------------------
    # planner lookups
    # ------------------------------------------------------------------

    def find_index(self, query_class: str, attr: str) -> AttrIndex | None:
        """The index answering ``attr`` probes for ``query_class``, if any.

        Walks the class lineage so an index declared on a supertype serves
        subclass (and predicate-subtype) queries; the execution layer
        filters bucket hits back down to the queried cone.
        """
        if not self.attr_indexes:
            return None
        schema = self.db.schema
        for ancestor in schema.resolved(query_class).lineage:
            index = self.attr_indexes.get((ancestor, attr))
            if index is not None:
                return index
        return None

    def count_of_cone(self, cone: Iterable[str]) -> int:
        counts = self.counts
        return sum(counts.get(name, 0) for name in cone)

    def total_count(self) -> int:
        return sum(self.counts.values())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        stats = self.stats
        return {
            "attr_indexes": len(self.attr_indexes),
            "extents": len(self.extents),
            "entries": sum(len(i) for i in self.attr_indexes.values()),
            "extent_members": sum(len(e.members) for e in self.extents.values()),
            "pending": (
                sum(len(i.pending) for i in self.attr_indexes.values())
                + sum(len(e.pending) for e in self.extents.values())
            ),
            "inserts": stats.inserts,
            "removes": stats.removes,
            "sweeps": stats.sweeps,
            "swept_slots": stats.swept_slots,
            "queries": stats.queries,
            "indexed_queries": stats.indexed_queries,
            "extent_queries": stats.extent_queries,
            "scan_queries": stats.scan_queries,
            "short_circuits": stats.short_circuits,
        }
