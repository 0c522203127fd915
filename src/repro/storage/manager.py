"""Storage manager: instance placement and access accounting.

Maps instance ids to blocks, routes every attribute-slot touch through the
buffer pool (so the evaluator's traffic is countable), and applies layouts
produced by the clustering reorganiser.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Callable, Iterable, NamedTuple

from repro.errors import StorageError
from repro.storage.buffer import DEFAULT_POOL_CAPACITY, BufferPool, BufferStats
from repro.storage.disk import DEFAULT_BLOCK_CAPACITY, SimulatedDisk
from repro.storage.usage import UsageStats


class FrameHit(NamedTuple):
    """What :meth:`StorageManager.touch`'s one-frame hit reads and counts."""

    #: iid -> block id, or None for an unplaced instance.
    placement: Callable[[int], int | None]
    #: the pool's frame table (:meth:`BufferPool.frame_table`).
    frames: OrderedDict[int, bool]
    stats: BufferStats
    #: per-iid access counts (the usage statistics' ``instance_accesses``).
    accesses: Counter[int]


class StorageManager:
    """Placement map plus the single gateway for instance access.

    Every read or write of an instance's slots must go through
    :meth:`touch`; this is what makes disk-read counts meaningful for the
    scheduling (E4) and clustering (E5) experiments.
    """

    def __init__(
        self,
        block_capacity: int = DEFAULT_BLOCK_CAPACITY,
        pool_capacity: int = DEFAULT_POOL_CAPACITY,
        usage: UsageStats | None = None,
    ) -> None:
        self.disk = SimulatedDisk(block_capacity)
        self.buffer = BufferPool(self.disk, pool_capacity)
        self._frames = self.buffer.frame_table()
        self.usage = usage if usage is not None else UsageStats()
        self._block_of: dict[int, int] = {}
        self._fill_block: int | None = None
        #: I/O charged to reorganisation, kept separate from query traffic.
        self.reorg_writes = 0

    # -- placement ------------------------------------------------------------

    def place(self, iid: int, size: int) -> int:
        """Place a new record, appending to the current fill block.

        Returns the chosen block id.  This mirrors an unclustered,
        insertion-order layout; :meth:`apply_layout` later installs the
        clustered arrangement.
        """
        if iid in self._block_of:
            raise StorageError(f"instance {iid} is already placed")
        block = None
        if self._fill_block is not None:
            candidate = self.disk.block(self._fill_block)
            if candidate.fits(size):
                block = candidate
        if block is None:
            block = self.disk.allocate_block()
            self._fill_block = block.block_id
        block.add(iid, size)
        self._block_of[iid] = block.block_id
        return block.block_id

    def start_block(self) -> None:
        """Close the fill block: the next :meth:`place` opens a fresh one
        (image load starts each saved block's records this way)."""
        self._fill_block = None

    def remove(self, iid: int) -> None:
        """Drop a record from its block (instance deletion)."""
        block_id = self.block_of(iid)
        self.disk.block(block_id).remove(iid)
        del self._block_of[iid]

    def resize(self, iid: int, new_size: int) -> None:
        """Record that an instance's size changed; relocate on overflow."""
        block_id = self.block_of(iid)
        block = self.disk.block(block_id)
        if block.resize(iid, new_size):
            return
        # Relocation: remove and re-place (keeps the record reachable; the
        # old slot's space is reclaimed).
        block.remove(iid)
        del self._block_of[iid]
        self.place(iid, new_size)

    def block_of(self, iid: int) -> int:
        try:
            return self._block_of[iid]
        except KeyError:
            raise StorageError(f"instance {iid} has no storage placement") from None

    def placement(self, iid: int) -> int | None:
        """The instance's block, or None when it has no placement."""
        return self._block_of.get(iid)

    def is_placed(self, iid: int) -> bool:
        return iid in self._block_of

    # -- access ------------------------------------------------------------

    def touch(self, iid: int, dirty: bool = False) -> None:
        """Bring the instance's block into the pool; count the access.

        A resident block is the one-frame hit, taken in place: count the
        hit, flag the frame when ``dirty``, move it to the end of the LRU
        order -- what :meth:`BufferPool.fetch` does on a hit, without the
        call.  A miss goes through :meth:`BufferPool.fetch` (load, eviction
        and their callbacks).
        """
        block_id = self._block_of.get(iid)
        frames = self._frames
        if block_id in frames:
            self.buffer.stats.hits += 1
            if dirty:
                frames[block_id] = True
            frames.move_to_end(block_id)
        else:
            self.buffer.fetch(self.block_of(iid), dirty=dirty)
        self.usage.instance_accesses[iid] += 1

    def frame_hit(self) -> FrameHit:
        """The structures :meth:`touch`'s one-frame hit reads and counts.

        For a reader that inlines a clean touch (the query read path's
        generated reader): when ``placement(iid)`` is a key of ``frames``,
        ``stats.hits`` and ``accesses[iid]`` each go up by one and
        ``frames.move_to_end`` takes the block, and that is the whole
        touch; any other touch calls :meth:`touch`.
        """
        return FrameHit(
            self._block_of.get, self._frames, self.buffer.stats, self.usage.instance_accesses
        )

    def is_resident(self, iid: int) -> bool:
        """True when the instance's block is in the buffer pool."""
        block_id = self._block_of.get(iid)
        return block_id is not None and self.buffer.is_resident(block_id)

    def residents_of_block(self, block_id: int) -> list[int]:
        return list(self.disk.block(block_id).residents)

    # -- reorganisation ------------------------------------------------------

    def apply_layout(self, layout: Iterable[list[int]], sizes: Callable[[int], int]) -> None:
        """Install a clustered layout: one inner list of instance ids per block.

        Every placed instance must appear exactly once across the layout.
        The rewrite traffic is charged to ``reorg_writes`` rather than the
        disk's query counters, so experiments measure steady-state behaviour.
        """
        layout = [list(group) for group in layout]
        placed = {iid for group in layout for iid in group}
        expected = set(self._block_of)
        if placed != expected:
            missing = sorted(expected - placed)
            extra = sorted(placed - expected)
            raise StorageError(
                f"layout mismatch: missing instances {missing[:5]}, "
                f"unknown instances {extra[:5]}"
            )
        # Tear down the old arrangement.
        old_blocks = list(self.disk.blocks)
        for block_id in old_blocks:
            block = self.disk.block(block_id)
            for iid in list(block.residents):
                block.remove(iid)
            self.buffer.drop(block_id)
            self.disk.release_block(block_id)
        self._block_of.clear()
        self._fill_block = None
        # Install the new one.
        for group in layout:
            if not group:
                continue
            block = self.disk.allocate_block()
            for iid in group:
                block.add(iid, sizes(iid))
                self._block_of[iid] = block.block_id
            self.reorg_writes += 1

    def migrate_group(
        self, iids: Iterable[int], sizes: Callable[[int], int]
    ) -> tuple[int | None, int, int, int]:
        """Move one planned group into a freshly allocated block.

        The incremental counterpart of :meth:`apply_layout`: instead of
        tearing the whole database down, one group of instances is pulled out
        of its current blocks into a new one.  The placement map is updated
        per instance, emptied source blocks are written back through the
        buffer pool and released, and surviving source blocks are marked
        dirty so their shrunken contents reach disk on eviction.

        The step is tolerant of drift between plan time and step time: an
        instance that was deleted since the plan was taken is skipped, and an
        instance that grew past the target block's free space stays where it
        is (the layout remains mixed but correct).  Applying every group of a
        plan over a quiescent database therefore reaches exactly the
        partition :meth:`apply_layout` would install.

        Returns ``(target_block_id, moved, skipped, blocks_released)``;
        ``target_block_id`` is None when nothing moved.
        """
        target = None
        moved = 0
        skipped = 0
        released = 0
        for iid in iids:
            source_id = self._block_of.get(iid)
            if source_id is None:
                skipped += 1  # deleted since the plan was taken
                continue
            size = sizes(iid)
            if target is None:
                target = self.disk.allocate_block()
            if source_id == target.block_id or not target.fits(size):
                skipped += 1  # grew past the target's free space
                continue
            source = self.disk.block(source_id)
            source.remove(iid)
            target.add(iid, size)
            self._block_of[iid] = target.block_id
            moved += 1
            if source.residents:
                if self.buffer.is_resident(source_id):
                    self.buffer.mark_dirty(source_id)
            else:
                self.buffer.drop(source_id)  # writes back a dirty frame
                self.disk.release_block(source_id)
                if self._fill_block == source_id:
                    self._fill_block = None
                released += 1
        if target is not None:
            if target.residents:
                self.reorg_writes += 1
                return target.block_id, moved, skipped, released
            self.disk.release_block(target.block_id)
        return None, moved, skipped, released
