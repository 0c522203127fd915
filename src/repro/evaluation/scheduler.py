"""The chunk scheduler.

Section 2.3: traversals are broken into *chunks* "to be scheduled
independently", simulating a concurrent computation inside one process (the
OWL technique).  Order is chosen to minimise disk access:

* a **very high priority queue** holds work whose instance's block is
  already in the buffer pool -- "whenever a disk block is read into memory,
  all processes which are associated with some instance stored on that block
  are promoted to a special very high priority queue";
* otherwise work waits in a heap ordered by **expected disk I/O**
  (decaying averages / worst-case estimates) -- the paper's greedy order.

The fixed FIFO (breadth-first) and LIFO (depth-first) traversal orders
experiment E4 compares it against are a test-side reference
(``tests/references.py::FixedOrderScheduler``): every order computes
identical values, only the I/O differs.

**One unit of work; residency picks the queue.**  Every unit is the
engine's ``(kind, slot, extra)`` tuple, where ``slot[0]`` is the instance
whose block it needs.  :meth:`ChunkScheduler.schedule` probes residency
once: resident work joins the very-high deque as the bare tuple, so nothing
else is allocated for it; other work is *parked* in the priced heap and
indexed by block.  A block load promotes the work parked on it, in the
order it was parked; an eviction demotes very-high work whose block left.
Every unit leaves through the one ``runner(work, waited)`` the engine
installs.  ``waited`` names the unit's lane: True when it was first queued
in the heap.  A unit keeps its lane through promotion and demotion.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

# A parked unit is one mutable list that is also its heap entry (the heapq
# "mark as removed" idiom): [class, priority, seq, work, waited, block].
# ``block`` is the block the unit is indexed under (None when its instance
# has no placement), or _PROMOTED once a block load has moved the unit to
# the very-high deque, which leaves its heap copy stale.
_WORK, _WAITED, _BLOCK = 3, 4, 5
_PROMOTED = object()


class ChunkScheduler:
    """Runs engine work to exhaustion, preferring work that avoids disk reads."""

    def __init__(
        self,
        is_resident: Callable[[int], bool],
        block_of: Callable[[int], int | None],
        runner: Callable[[tuple, bool], None],
    ) -> None:
        self._is_resident = is_resident
        #: the block an instance is placed in, None when it has no placement.
        self._block_of = block_of
        self._runner = runner
        #: resident work (bare tuples) and promoted parked units, in order.
        self._high: deque[tuple | list] = deque()
        self._heap: list[list] = []
        self._by_block: dict[int, list[list]] = {}
        self._seq = 0
        #: idle-lane task (e.g. reorg migration steps): runs only when every
        #: queue has drained, returns True while it has more work.
        self._background: Callable[[], bool] | None = None
        self._background_budget = 1
        #: background units executed from the idle lane.
        self.background_executed = 0

    # -- scheduling ------------------------------------------------------------

    def schedule(
        self, work: tuple, priority: float = 0.0, user_request: bool = False
    ) -> None:
        """Queue one unit: resident work runs next, the rest waits priced.

        ``priority`` is the expected disk I/O (lower runs earlier);
        ``user_request`` marks "processes which are the direct user requests
        that start a chain of computations", which occupy a strictly better
        priority class.
        """
        if self._is_resident(work[1][0]):
            self._high.append(work)
        else:
            self._park(work, 0 if user_request else 1, priority, True)

    def _park(self, work: tuple, klass: int, priority: float, waited: bool) -> None:
        """Queue work in the priced heap, indexed under its instance's block."""
        self._seq += 1
        block = self._block_of(work[1][0])
        entry = [klass, priority, self._seq, work, waited, block]
        heapq.heappush(self._heap, entry)
        if block is not None:
            self._by_block.setdefault(block, []).append(entry)

    def on_block_loaded(self, block_id: int) -> None:
        """Buffer-pool callback: promote the work parked on this block."""
        waiting = self._by_block.pop(block_id, None)
        if waiting:
            for entry in waiting:
                entry[_BLOCK] = _PROMOTED
                self._high.append(entry)

    def on_block_evicted(self, block_id: int) -> None:
        """Buffer-pool callback: demote very-high work whose block left memory.

        Work reaches the very-high deque on the strength of residency; an
        eviction between scheduling and execution silently invalidates
        that, leaving work to run against a non-resident block and pay an
        unaccounted re-read ahead of cheaper candidates.  Demotion parks
        the work again (where its expected I/O is priced) under its block,
        so a later reload promotes it again like any other parked unit.
        Resident work re-enters at priority 1.0 outside the user class.
        """
        if not self._high:
            return
        block_of = self._block_of
        kept: deque[tuple | list] = deque()
        for entry in self._high:
            if type(entry) is tuple:
                if block_of(entry[1][0]) == block_id:
                    self._park(entry, 1, 1.0, False)
                    continue
            elif block_of(entry[_WORK][1][0]) == block_id:
                self._park(entry[_WORK], entry[0], entry[1], entry[_WAITED])
                continue
            kept.append(entry)
        self._high = kept

    # -- execution ------------------------------------------------------------

    def _pop(self) -> tuple | list | None:
        """The next unit: a bare resident tuple, a parked entry, or None."""
        if self._high:
            return self._high.popleft()
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            block = entry[_BLOCK]
            if block is _PROMOTED:
                continue  # stale: the unit ran from the very-high deque
            if block is not None:
                # Consumed: a unit that loads its own block must not be
                # promoted into a second run (see the regression test in
                # tests/evaluation/test_scheduler.py).
                waiting = self._by_block[block]
                waiting.remove(entry)
                if not waiting:
                    del self._by_block[block]
            return entry
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
        """Execute units until no queue has work; returns units executed.

        When the queues drain and an idle-lane task is installed, one budget
        of background work runs (then any units it scheduled), after which
        the call returns -- the background lane never monopolises a drain.
        """
        runner = self._runner
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
                runner(entry, False)
            else:
                runner(entry[_WORK], entry[_WAITED])
            executed += 1

    @property
    def idle(self) -> bool:
        return not (self._high or self._heap)

    def clear(self) -> None:
        """Drop all queued work (a wave was abandoned mid-flight)."""
        self._high.clear()
        self._heap.clear()
        self._by_block.clear()
