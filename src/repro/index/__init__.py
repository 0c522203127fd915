"""Incremental secondary indexes and predicate-subtype extents.

Cactis's own trick -- everything is derived data kept incrementally up to
date -- powers retrieval here: an index entry is just another dependent
slot.  :class:`~repro.index.manager.IndexManager` maintains ordered
attribute indexes (over intrinsic *and* derived attributes) and
materialized extents of every predicate subtype, updated from the same
primitive operations (``_do_create`` / ``_do_delete`` / ``_do_set_attr`` /
``write_slot_value``) that the undo log and recovery replay -- so index
state rolls back with the transaction and rebuilds on restore for free.

The query planner in :mod:`repro.dsl.query` answers equality/range
``where`` clauses, ``order by`` walks, and predicate-class ``select``\\ s
from these structures instead of full-graph scans, choosing scan vs index
with the static cost model of :mod:`repro.analysis.facts`;
``Query.run_scan`` stays as the index-free reference every indexed answer
is tested against.
"""

from repro.index.manager import (
    AttrIndex,
    Extent,
    IndexManager,
    IndexStats,
)

__all__ = [
    "AttrIndex",
    "Extent",
    "IndexManager",
    "IndexStats",
]
