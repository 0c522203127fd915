"""The buffer pool.

A fixed number of block frames cached in memory with LRU replacement.
The evaluation engine consults :meth:`BufferPool.is_resident` when deciding
which pending chunk to run next -- "whenever a disk block is read into
memory, all processes which are associated with some instance stored on that
block are promoted to a special very high priority queue".  The pool exposes
a residency-change callback so the scheduler can perform that promotion.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.errors import StorageError
from repro.obs.events import BlockEvicted, BlockLoaded
from repro.storage.disk import SimulatedDisk

DEFAULT_POOL_CAPACITY = 8


@dataclass
class BufferStats:
    """Hit/miss accounting for a buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    #: dirty frames written back by :meth:`BufferPool.drop` -- modifications
    #: that would have been silently lost before drop performed writeback.
    drop_writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class BufferPool:
    """An LRU cache of disk blocks with dirty-page writeback.

    Parameters
    ----------
    disk:
        The backing :class:`~repro.storage.disk.SimulatedDisk`.
    capacity:
        Number of block frames.  The paper's machinery only matters when the
        working set exceeds this, so benchmarks sweep it.
    on_load:
        Optional callback invoked with a block id immediately after the block
        becomes resident; the chunk scheduler registers itself here.
    on_evict:
        Symmetric callback invoked with a block id immediately after the
        block leaves the pool -- by LRU eviction, :meth:`drop`, or
        :meth:`clear`.  The scheduler uses it to demote work it already
        routed to the very-high queue on the strength of residency that no
        longer holds.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int = DEFAULT_POOL_CAPACITY,
        on_load: Callable[[int], None] | None = None,
        on_evict: Callable[[int], None] | None = None,
    ) -> None:
        if capacity <= 0:
            raise StorageError("buffer pool capacity must be positive")
        self.disk = disk
        self.capacity = capacity
        self.on_load = on_load
        self.on_evict = on_evict
        self.stats = BufferStats()
        #: optional :class:`repro.obs.EventHub` for block load/evict events;
        #: attached by the owning :class:`~repro.core.database.Database`.
        self.hub = None
        #: block id -> dirty flag, in LRU order (oldest first).
        self._frames: OrderedDict[int, bool] = OrderedDict()

    # -- residency ----------------------------------------------------------

    def is_resident(self, block_id: int) -> bool:
        return block_id in self._frames

    def resident_blocks(self) -> list[int]:
        return list(self._frames)

    def frame_table(self) -> OrderedDict[int, bool]:
        """The frames themselves: block id -> dirty flag, oldest first.

        Exported for the storage manager's in-place hit
        (:meth:`StorageManager.touch
        <repro.storage.manager.StorageManager.touch>`): a touch of a
        resident block counts ``stats.hits``, sets the flag when it dirties
        and moves the frame to the end -- what :meth:`fetch` does on a
        hit.  Nothing else may change the table: a miss, eviction and drop
        go through the methods here.
        """
        return self._frames

    # -- access -------------------------------------------------------------

    def fetch(self, block_id: int, dirty: bool = False) -> None:
        """Ensure ``block_id`` is resident, touching it for LRU.

        ``dirty=True`` marks the frame as modified so eviction writes it
        back.  A miss reads the block from disk (and may evict).
        """
        if block_id in self._frames:
            self.stats.hits += 1
            self._frames[block_id] = self._frames[block_id] or dirty
            self._frames.move_to_end(block_id)
            return
        self.stats.misses += 1
        self._make_room()
        self.disk.read(block_id)
        self._frames[block_id] = dirty
        hub = self.hub
        if hub is not None and hub.active:
            hub.emit(BlockLoaded(block_id=block_id))
        if self.on_load is not None:
            self.on_load(block_id)

    def mark_dirty(self, block_id: int) -> None:
        """Flag an already-resident block as modified."""
        if block_id not in self._frames:
            raise StorageError(
                f"block {block_id} is not resident; fetch it before dirtying"
            )
        self._frames[block_id] = True

    def _make_room(self) -> None:
        while len(self._frames) >= self.capacity:
            victim, dirty = self._frames.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.disk.write(victim)
                self.stats.dirty_writebacks += 1
            self._note_evicted(victim, dirty, "lru")

    def _note_evicted(self, block_id: int, dirty: bool, reason: str) -> None:
        hub = self.hub
        if hub is not None and hub.active:
            hub.emit(BlockEvicted(block_id=block_id, dirty=dirty, reason=reason))
        if self.on_evict is not None:
            self.on_evict(block_id)

    # -- control ------------------------------------------------------------

    def flush(self) -> None:
        """Write back every dirty frame without evicting anything."""
        for block_id, dirty in self._frames.items():
            if dirty:
                self.disk.write(block_id)
                self.stats.dirty_writebacks += 1
                self._frames[block_id] = False

    def drop(self, block_id: int) -> None:
        """Discard a frame (used when its block is released by reorganisation).

        A dirty frame is written back first: reorganisation drops a block's
        frame after relocating its residents, but any modification made to
        the frame before the drop must reach disk rather than vanish with
        the frame.
        """
        dirty = self._frames.pop(block_id, None)
        if dirty is None:
            return
        if dirty:
            self.disk.write(block_id)
            self.stats.dirty_writebacks += 1
            self.stats.drop_writebacks += 1
        self._note_evicted(block_id, dirty, "drop")

    def clear(self) -> None:
        """Flush and empty the pool (cold-cache benchmark starts)."""
        self.flush()
        dropped = list(self._frames)
        self._frames.clear()
        for block_id in dropped:
            self._note_evicted(block_id, False, "clear")

    def __repr__(self) -> str:
        return (
            f"BufferPool(resident={len(self._frames)}/{self.capacity}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
