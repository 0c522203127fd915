"""The chunk scheduler.

Section 2.3: traversals are broken into *chunks* "to be scheduled
independently", simulating a concurrent computation inside one process (the
OWL technique).  Order is chosen to minimise disk access:

* a **very high priority queue** holds chunks whose instance's block is
  already in the buffer pool -- "whenever a disk block is read into memory,
  all processes which are associated with some instance stored on that block
  are promoted to a special very high priority queue";
* otherwise chunks wait in a heap ordered by **expected disk I/O**
  (decaying averages / worst-case estimates) -- the paper's greedy order.

The fixed FIFO (breadth-first) and LIFO (depth-first) traversal orders
experiment E4 compares it against are a test-side reference
(``tests/references.py::FixedOrderScheduler``): every order computes
identical values, only the I/O differs.

**Fast lane.**  Work whose block is already resident never needs the
priority machinery: the engine may enqueue it as a plain tuple via
:meth:`ChunkScheduler.schedule_fast` instead of allocating a
closure-carrying :class:`Chunk`.  Fast entries live in the same very-high
deque as resident chunks, so execution order -- and therefore every
buffer-pool touch and disk read -- is identical to scheduling a Chunk;
only the per-unit allocation and dispatch cost disappears.  Fast entries
are executed by the ``fast_runner`` callback the engine installs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

#: engine work carried through the fast lane: ``(kind, slot, extra)``.
FastEntry = tuple

class Chunk:
    """One schedulable unit of work.

    ``run`` performs the work (and may schedule further chunks); ``iid`` is
    the instance whose block the chunk needs, used for residency checks and
    high-priority promotion; ``priority`` is the expected disk I/O estimate
    (lower runs earlier).  ``user_request`` marks "processes which are the
    direct user requests that start a chain of computations", which
    receive a special (best) priority class.
    """

    __slots__ = ("run", "iid", "priority", "user_request", "cancelled", "block_id")

    def __init__(
        self,
        run: Callable[[], None],
        iid: int,
        priority: float = 1.0,
        user_request: bool = False,
    ) -> None:
        self.run = run
        self.iid = iid
        self.priority = priority
        self.user_request = user_request
        self.cancelled = False
        #: block the chunk is indexed under in ``_by_block`` (None when not
        #: indexed); lets a pop prune the index so a chunk that loads its
        #: own block cannot be promoted into a second execution.
        self.block_id: int | None = None


class ChunkScheduler:
    """Runs chunks to exhaustion, preferring work that avoids disk reads."""

    def __init__(
        self,
        is_resident: Callable[[int], bool],
        block_of: Callable[[int], int],
        fast_runner: Callable[[FastEntry], None] | None = None,
    ) -> None:
        self._is_resident = is_resident
        self._block_of = block_of
        #: executes fast-lane entries; installed by the engine.
        self.fast_runner = fast_runner
        self._high: deque[Chunk | FastEntry] = deque()
        self._heap: list[tuple[int, float, int, Chunk]] = []
        self._by_block: dict[int, list[Chunk]] = {}
        self._seq = 0
        self.executed = 0
        #: fast-lane entries executed (no Chunk was allocated for these).
        self.fast_executed = 0
        #: idle-lane task (e.g. reorg migration steps): runs only when every
        #: queue has drained, returns True while it has more work.
        self._background: Callable[[], bool] | None = None
        self._background_budget = 1
        #: background units executed from the idle lane.
        self.background_executed = 0

    # -- scheduling ------------------------------------------------------------

    def schedule(self, chunk: Chunk) -> None:
        """Queue a chunk, routing residency-satisfied work to the high queue."""
        if self._is_resident(chunk.iid):
            self._high.append(chunk)
            return
        self._index_by_block(chunk)
        self._seq += 1
        # User requests occupy a strictly better priority class.
        klass = 0 if chunk.user_request else 1
        heapq.heappush(self._heap, (klass, chunk.priority, self._seq, chunk))

    def schedule_fast(self, entry: FastEntry) -> None:
        """Queue resident work as a bare tuple in the very-high deque.

        The caller guarantees the entry's instance is resident; the entry
        occupies the same FIFO position a resident Chunk would, so
        traversal order is unchanged.
        """
        self._high.append(entry)

    def _index_by_block(self, chunk: Chunk) -> None:
        try:
            block_id = self._block_of(chunk.iid)
        except Exception:
            return  # unplaced instance: never promoted, still runs from the heap
        self._by_block.setdefault(block_id, []).append(chunk)
        chunk.block_id = block_id

    def _unindex(self, chunk: Chunk) -> None:
        """Remove a popped chunk from the block index (it is now consumed)."""
        block_id = chunk.block_id
        if block_id is None:
            return
        chunk.block_id = None
        waiting = self._by_block.get(block_id)
        if waiting is None:
            return
        try:
            waiting.remove(chunk)
        except ValueError:
            return
        if not waiting:
            del self._by_block[block_id]

    def on_block_loaded(self, block_id: int) -> None:
        """Buffer-pool callback: promote chunks waiting on this block."""
        waiting = self._by_block.pop(block_id, None)
        if not waiting:
            return
        for chunk in waiting:
            chunk.block_id = None
            if not chunk.cancelled:
                # Mark the original queue entry stale and requeue high.
                promoted = Chunk(chunk.run, chunk.iid, chunk.priority, chunk.user_request)
                chunk.cancelled = True
                self._high.append(promoted)

    def on_block_evicted(self, block_id: int) -> None:
        """Buffer-pool callback: demote very-high work whose block left memory.

        Entries reach the very-high deque on the strength of residency; an
        eviction between scheduling and execution silently invalidates
        that, leaving work to run against a non-resident block and pay an
        unaccounted re-read ahead of cheaper candidates.  Demotion
        re-indexes the work into the heap (where its expected I/O
        is priced) and the block index, so a later reload promotes it
        again exactly like any other waiting chunk.
        """
        if not self._high:
            return
        kept: deque[Chunk | FastEntry] = deque()
        for entry in self._high:
            if type(entry) is tuple:
                iid = entry[1][0]
                if self._block_or_none(iid) == block_id:
                    # Fast-lane work earned its tuple form by residency;
                    # re-wrap it as a schedulable chunk for the slow path.
                    runner = self.fast_runner
                    assert runner is not None, "fast entry queued without a fast_runner"
                    self.schedule(Chunk(lambda e=entry, r=runner: r(e), iid))
                else:
                    kept.append(entry)
                continue
            if entry.cancelled:
                continue  # stale duplicate: drop rather than re-queue
            if self._block_or_none(entry.iid) == block_id:
                self.schedule(entry)
            else:
                kept.append(entry)
        self._high = kept

    def _block_or_none(self, iid: int) -> int | None:
        try:
            return self._block_of(iid)
        except Exception:
            return None

    # -- execution ------------------------------------------------------------

    def _pop(self) -> Chunk | FastEntry | None:
        while self._high:
            entry = self._high.popleft()
            if type(entry) is tuple:
                return entry
            if not entry.cancelled:
                entry.cancelled = True  # consumed: immune to promotion
                return entry
        while self._heap:
            __, __, __, chunk = heapq.heappop(self._heap)
            if not chunk.cancelled:
                # Consume: a chunk that loads its own block must not be
                # promoted into a duplicate execution (see the regression
                # test in tests/evaluation/test_scheduler.py).
                chunk.cancelled = True
                self._unindex(chunk)
                return chunk
        return None

    # -- background (idle) lane ---------------------------------------------

    def set_background(self, task: Callable[[], bool], budget: int = 1) -> None:
        """Install an idle-lane task, throttled to ``budget`` units per drain.

        The task runs only after every queue has emptied inside one
        :meth:`run_to_exhaustion` call -- the lowest-priority lane there is
        -- so query work never waits behind it.  It returns True while more
        work remains; returning False deregisters it.
        """
        self._background = task
        self._background_budget = max(1, budget)

    def clear_background(self) -> None:
        self._background = None

    def _run_background(self) -> bool:
        """Run up to one budget's worth of idle work; True if any ran."""
        task = self._background
        if task is None:
            return False
        ran = False
        for __ in range(self._background_budget):
            if self._background is not task:
                break  # task replaced or cleared itself mid-budget
            ran = True
            self.background_executed += 1
            if not task():
                if self._background is task:
                    self._background = None
                break
        return ran

    def run_to_exhaustion(self) -> int:
        """Execute entries until no queue has work; returns units executed.

        When the queues drain and an idle-lane task is installed, one budget
        of background work runs (then any chunks it scheduled), after which
        the call returns -- the background lane never monopolises a drain.
        """
        executed = 0
        background_ran = False
        while True:
            entry = self._pop()
            if entry is None:
                if not background_ran:
                    background_ran = True
                    if self._run_background():
                        continue
                return executed
            if type(entry) is tuple:
                runner = self.fast_runner
                assert runner is not None, "fast entry queued without a fast_runner"
                runner(entry)
                executed += 1
                self.fast_executed += 1
                continue
            entry.run()
            executed += 1
            self.executed += 1

    @property
    def idle(self) -> bool:
        return not (self._high or self._heap)

    def clear(self) -> None:
        """Drop all queued chunks (a wave was abandoned mid-flight)."""
        self._high.clear()
        self._heap.clear()
        self._by_block.clear()
