"""Unit tests for the chunk scheduler."""

from repro.evaluation.scheduler import Chunk, ChunkScheduler
from tests.references import FixedOrderScheduler


def make_scheduler(resident=frozenset(), policy="greedy", blocks=None):
    blocks = blocks or {}
    callbacks = (lambda iid: iid in resident, lambda iid: blocks.get(iid, iid))
    if policy == "greedy":
        return ChunkScheduler(*callbacks)
    return FixedOrderScheduler(policy, *callbacks)


class TestBasicExecution:
    def test_runs_all_chunks(self):
        sched = make_scheduler()
        ran = []
        for i in range(5):
            sched.schedule(Chunk(lambda i=i: ran.append(i), iid=i))
        assert sched.run_to_exhaustion() == 5
        assert sorted(ran) == [0, 1, 2, 3, 4]

    def test_chunks_scheduled_during_execution_run(self):
        sched = make_scheduler()
        ran = []

        def outer():
            ran.append("outer")
            sched.schedule(Chunk(lambda: ran.append("inner"), iid=2))

        sched.schedule(Chunk(outer, iid=1))
        sched.run_to_exhaustion()
        assert ran == ["outer", "inner"]

    def test_idle_property(self):
        sched = make_scheduler()
        assert sched.idle
        sched.schedule(Chunk(lambda: None, iid=1))
        assert not sched.idle
        sched.run_to_exhaustion()
        assert sched.idle


class TestPriorities:
    def test_greedy_runs_cheapest_first(self):
        sched = make_scheduler()
        ran = []
        sched.schedule(Chunk(lambda: ran.append("expensive"), iid=1, priority=9.0))
        sched.schedule(Chunk(lambda: ran.append("cheap"), iid=2, priority=0.5))
        sched.run_to_exhaustion()
        assert ran == ["cheap", "expensive"]

    def test_resident_chunks_run_before_cheap_nonresident(self):
        sched = make_scheduler(resident={7})
        ran = []
        sched.schedule(Chunk(lambda: ran.append("cheap"), iid=1, priority=0.0))
        sched.schedule(Chunk(lambda: ran.append("resident"), iid=7, priority=99.0))
        sched.run_to_exhaustion()
        assert ran == ["resident", "cheap"]

    def test_user_requests_preempt_other_queue_work(self):
        sched = make_scheduler()
        ran = []
        sched.schedule(Chunk(lambda: ran.append("normal"), iid=1, priority=0.0))
        sched.schedule(
            Chunk(lambda: ran.append("user"), iid=2, priority=5.0, user_request=True)
        )
        sched.run_to_exhaustion()
        assert ran == ["user", "normal"]

    def test_fifo_policy_order(self):
        sched = make_scheduler(policy="fifo")
        ran = []
        for i in range(4):
            sched.schedule(Chunk(lambda i=i: ran.append(i), iid=i, priority=4 - i))
        sched.run_to_exhaustion()
        assert ran == [0, 1, 2, 3]

    def test_lifo_policy_order(self):
        sched = make_scheduler(policy="lifo")
        ran = []
        for i in range(4):
            sched.schedule(Chunk(lambda i=i: ran.append(i), iid=i))
        sched.run_to_exhaustion()
        assert ran == [3, 2, 1, 0]


class TestBlockPromotion:
    def test_on_block_loaded_promotes(self):
        blocks = {1: 10, 2: 20}
        sched = make_scheduler(blocks=blocks)
        ran = []
        sched.schedule(Chunk(lambda: ran.append("a"), iid=1, priority=1.0))
        sched.schedule(Chunk(lambda: ran.append("b"), iid=2, priority=0.5))
        # Block 10 (holding instance 1) becomes resident: promote.
        sched.on_block_loaded(10)
        sched.run_to_exhaustion()
        assert ran == ["a", "b"]

    def test_promotion_does_not_duplicate_execution(self):
        blocks = {1: 10}
        sched = make_scheduler(blocks=blocks)
        count = [0]
        sched.schedule(Chunk(lambda: count.__setitem__(0, count[0] + 1), iid=1))
        sched.on_block_loaded(10)
        sched.run_to_exhaustion()
        assert count[0] == 1

    def test_clear_drops_everything(self):
        sched = make_scheduler()
        sched.schedule(Chunk(lambda: None, iid=1))
        sched.clear()
        assert sched.run_to_exhaustion() == 0

    def test_chunk_loading_own_block_runs_once(self):
        """Regression: a heap-popped chunk whose body loads its own block
        must not be promoted by on_block_loaded into a second execution."""
        blocks = {1: 10}
        sched = make_scheduler(blocks=blocks)
        count = [0]

        def body():
            count[0] += 1
            # The chunk's work faults in its own block (touch -> buffer
            # load -> promotion callback), exactly what _mark does.
            sched.on_block_loaded(10)

        sched.schedule(Chunk(body, iid=1, priority=1.0))
        sched.run_to_exhaustion()
        assert count[0] == 1

    def test_pop_prunes_block_index(self):
        blocks = {1: 10, 2: 10}
        sched = make_scheduler(blocks=blocks)
        ran = []
        sched.schedule(Chunk(lambda: ran.append("a"), iid=1, priority=0.5))
        sched.schedule(Chunk(lambda: ran.append("b"), iid=2, priority=1.0))
        sched.run_to_exhaustion()
        # Both consumed from the heap; the shared block's index entry must
        # be gone so a later load promotes nothing.
        sched.on_block_loaded(10)
        assert sched.run_to_exhaustion() == 0
        assert ran == ["a", "b"]


class TestBlockDemotion:
    """Regression: eviction between scheduling and execution used to leave
    residency-routed entries in the very-high deque, running them against a
    non-resident block ahead of properly priced work."""

    def _mutable_scheduler(self, resident, blocks, fast_runner=None):
        return ChunkScheduler(
            is_resident=lambda iid: iid in resident,
            block_of=lambda iid: blocks[iid],
            fast_runner=fast_runner,
        )

    def test_evict_between_schedule_and_run_demotes_chunk(self):
        resident, blocks = {1}, {1: 10, 2: 20}
        sched = self._mutable_scheduler(resident, blocks)
        ran = []
        sched.schedule(Chunk(lambda: ran.append("evicted"), iid=1, priority=9.0))
        sched.schedule(Chunk(lambda: ran.append("cheap"), iid=2, priority=0.5))
        resident.discard(1)
        sched.on_block_evicted(10)
        sched.run_to_exhaustion()
        # Demoted out of the fast lane: the cheap non-resident chunk now
        # rightly runs first, and the demoted work still runs exactly once.
        assert ran == ["cheap", "evicted"]

    def test_demoted_chunk_promoted_again_on_reload(self):
        resident, blocks = {1}, {1: 10, 2: 20}
        sched = self._mutable_scheduler(resident, blocks)
        ran = []
        sched.schedule(Chunk(lambda: ran.append("bounced"), iid=1, priority=9.0))
        sched.schedule(Chunk(lambda: ran.append("other"), iid=2, priority=0.5))
        resident.discard(1)
        sched.on_block_evicted(10)
        resident.add(1)
        sched.on_block_loaded(10)
        sched.run_to_exhaustion()
        assert ran == ["bounced", "other"]

    def test_evicted_fast_entry_demoted_and_runs_once(self):
        seen = []
        resident, blocks = {1}, {1: 10, 2: 20}
        sched = self._mutable_scheduler(resident, blocks, fast_runner=seen.append)
        entry = (0, (1, "attr"), None)
        sched.schedule_fast(entry)
        ran = []
        sched.schedule(Chunk(lambda: ran.append("cheap"), iid=2, priority=0.5))
        resident.discard(1)
        sched.on_block_evicted(10)
        assert sched.run_to_exhaustion() == 2
        assert seen == [entry]
        assert ran == ["cheap"]

    def test_eviction_of_unrelated_block_keeps_order(self):
        resident, blocks = {1, 2}, {1: 10, 2: 20}
        sched = self._mutable_scheduler(resident, blocks)
        ran = []
        sched.schedule(Chunk(lambda: ran.append("a"), iid=1))
        sched.schedule(Chunk(lambda: ran.append("b"), iid=2))
        sched.on_block_evicted(99)
        sched.run_to_exhaustion()
        assert ran == ["a", "b"]

    def test_pool_eviction_reaches_scheduler(self):
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import SimulatedDisk

        disk = SimulatedDisk(256)
        ids = [disk.allocate_block().block_id for __ in range(3)]
        evicted = []
        pool = BufferPool(disk, capacity=2, on_evict=evicted.append)
        pool.fetch(ids[0])
        pool.fetch(ids[1])
        pool.fetch(ids[2])  # LRU-evicts ids[0]
        assert evicted == [ids[0]]
        pool.drop(ids[1])
        assert evicted == [ids[0], ids[1]]
        pool.clear()
        assert evicted == [ids[0], ids[1], ids[2]]
        pool.drop(12345)  # absent frame: no callback
        assert len(evicted) == 3


class TestFastLane:
    def test_fast_entries_execute_via_runner(self):
        seen = []
        sched = ChunkScheduler(
            is_resident=lambda iid: True,
            block_of=lambda iid: iid,
            fast_runner=seen.append,
        )
        sched.schedule_fast((0, (1, "a"), None))
        sched.schedule_fast((1, (2, "b"), None))
        assert sched.run_to_exhaustion() == 2
        assert seen == [(0, (1, "a"), None), (1, (2, "b"), None)]
        assert sched.fast_executed == 2
        assert sched.executed == 0

    def test_fast_entries_interleave_with_resident_chunks_in_order(self):
        ran = []
        sched = ChunkScheduler(
            is_resident=lambda iid: True,
            block_of=lambda iid: iid,
            fast_runner=lambda entry: ran.append(entry[1]),
        )
        sched.schedule(Chunk(lambda: ran.append("chunk1"), iid=1))
        sched.schedule_fast((0, "fast1", None))
        sched.schedule(Chunk(lambda: ran.append("chunk2"), iid=2))
        sched.schedule_fast((0, "fast2", None))
        sched.run_to_exhaustion()
        # The fast lane shares the very-high deque: strict FIFO order.
        assert ran == ["chunk1", "fast1", "chunk2", "fast2"]
