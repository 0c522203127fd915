"""Unit tests for the chunk scheduler.

Every unit is a ``(kind, slot, extra)`` tuple whose ``slot[0]`` names the
instance it needs; here ``slot[1]`` names the unit, and the runner records
each name with its lane (``waited``: True for work first parked in the
heap).
"""

from repro.evaluation.scheduler import ChunkScheduler
from tests.references import FixedOrderScheduler


def unit(iid, name):
    return (0, (iid, name), None)


class Recorder:
    """A scheduler runner: records ``(name, waited)`` and runs any hook."""

    def __init__(self):
        self.runs = []
        self.hooks = {}

    def __call__(self, work, waited):
        name = work[1][1]
        self.runs.append((name, waited))
        hook = self.hooks.get(name)
        if hook is not None:
            hook()

    @property
    def ran(self):
        return [name for name, __ in self.runs]

    @property
    def lanes(self):
        return [waited for __, waited in self.runs]


def make_scheduler(resident=frozenset(), policy="greedy", blocks=None):
    """A scheduler over ``resident`` instances (mutable sets stay live) and
    ``blocks`` (instance -> block, default: each instance its own block)."""
    blocks = {} if blocks is None else blocks
    run = Recorder()
    if policy == "greedy":
        sched = ChunkScheduler(
            lambda iid: iid in resident, lambda iid: blocks.get(iid, iid), run
        )
    else:
        sched = FixedOrderScheduler(policy, run)
    return sched, run


class TestBasicExecution:
    def test_runs_all_chunks(self):
        sched, run = make_scheduler()
        for i in range(5):
            sched.schedule(unit(i, i))
        assert sched.run_to_exhaustion() == 5
        assert sorted(run.ran) == [0, 1, 2, 3, 4]

    def test_chunks_scheduled_during_execution_run(self):
        sched, run = make_scheduler()
        run.hooks["outer"] = lambda: sched.schedule(unit(2, "inner"))
        sched.schedule(unit(1, "outer"))
        sched.run_to_exhaustion()
        assert run.ran == ["outer", "inner"]

    def test_idle_property(self):
        sched, __ = make_scheduler()
        assert sched.idle
        sched.schedule(unit(1, "a"))
        assert not sched.idle
        sched.run_to_exhaustion()
        assert sched.idle


class TestPriorities:
    def test_greedy_runs_cheapest_first(self):
        sched, run = make_scheduler()
        sched.schedule(unit(1, "expensive"), 9.0)
        sched.schedule(unit(2, "cheap"), 0.5)
        sched.run_to_exhaustion()
        assert run.ran == ["cheap", "expensive"]

    def test_resident_chunks_run_before_cheap_nonresident(self):
        sched, run = make_scheduler(resident={7})
        sched.schedule(unit(1, "cheap"), 0.0)
        sched.schedule(unit(7, "resident"), 99.0)
        sched.run_to_exhaustion()
        assert run.runs == [("resident", False), ("cheap", True)]

    def test_user_requests_preempt_other_queue_work(self):
        sched, run = make_scheduler()
        sched.schedule(unit(1, "normal"), 0.0)
        sched.schedule(unit(2, "user"), 5.0, user_request=True)
        sched.run_to_exhaustion()
        assert run.ran == ["user", "normal"]

    def test_fifo_policy_order(self):
        sched, run = make_scheduler(policy="fifo")
        for i in range(4):
            sched.schedule(unit(i, i), 4 - i)
        sched.run_to_exhaustion()
        assert run.ran == [0, 1, 2, 3]
        assert run.lanes == [True] * 4  # no residency routing: every unit waited

    def test_lifo_policy_order(self):
        sched, run = make_scheduler(policy="lifo")
        for i in range(4):
            sched.schedule(unit(i, i))
        sched.run_to_exhaustion()
        assert run.ran == [3, 2, 1, 0]


class TestBlockPromotion:
    def test_on_block_loaded_promotes(self):
        sched, run = make_scheduler(blocks={1: 10, 2: 20, 3: 10})
        sched.schedule(unit(1, "a"), 3.0)
        sched.schedule(unit(2, "b"), 0.5)
        sched.schedule(unit(3, "c"), 1.0)
        # Block 10 (holding instances 1 and 3) becomes resident: its parked
        # work is promoted in the order it was parked, not by price.
        sched.on_block_loaded(10)
        sched.run_to_exhaustion()
        assert run.runs == [("a", True), ("c", True), ("b", True)]

    def test_promotion_does_not_duplicate_execution(self):
        sched, run = make_scheduler(blocks={1: 10})
        sched.schedule(unit(1, "a"))
        sched.on_block_loaded(10)
        assert sched.run_to_exhaustion() == 1
        assert run.ran == ["a"]

    def test_clear_drops_everything(self):
        sched, __ = make_scheduler()
        sched.schedule(unit(1, "a"))
        sched.clear()
        assert sched.run_to_exhaustion() == 0

    def test_chunk_loading_own_block_runs_once(self):
        """Regression: a heap-popped unit whose body loads its own block
        must not be promoted by on_block_loaded into a second execution."""
        sched, run = make_scheduler(blocks={1: 10})
        # The unit's work faults in its own block (touch -> buffer load ->
        # promotion callback), exactly what a mark does.
        run.hooks["a"] = lambda: sched.on_block_loaded(10)
        sched.schedule(unit(1, "a"), 1.0)
        sched.run_to_exhaustion()
        assert run.ran == ["a"]

    def test_pop_prunes_block_index(self):
        sched, run = make_scheduler(blocks={1: 10, 2: 10})
        sched.schedule(unit(1, "a"), 0.5)
        sched.schedule(unit(2, "b"), 1.0)
        sched.run_to_exhaustion()
        # Both consumed from the heap; the shared block's index entry must
        # be gone so a later load promotes nothing.
        sched.on_block_loaded(10)
        assert sched.run_to_exhaustion() == 0
        assert run.ran == ["a", "b"]

    def test_unplaced_instance_runs_from_the_heap(self):
        sched, run = make_scheduler(blocks={1: None, 2: 20})
        sched.schedule(unit(1, "unplaced"), 0.5)
        sched.schedule(unit(2, "placed"), 1.0)
        sched.on_block_loaded(20)
        sched.run_to_exhaustion()
        assert run.ran == ["placed", "unplaced"]


class TestBlockDemotion:
    """Regression: eviction between scheduling and execution used to leave
    residency-routed entries in the very-high deque, running them against a
    non-resident block ahead of properly priced work."""

    def test_evict_between_schedule_and_run_demotes_chunk(self):
        resident, blocks = {1}, {1: 10, 2: 20}
        sched, run = make_scheduler(resident, blocks=blocks)
        sched.schedule(unit(1, "evicted"), 0.0)
        sched.schedule(unit(2, "cheap"), 0.5)
        resident.discard(1)
        sched.on_block_evicted(10)
        sched.run_to_exhaustion()
        # Demoted out of the very-high deque: the cheap parked unit now
        # rightly runs first, and the demoted work still runs exactly once,
        # still counted in the lane it was first queued in.
        assert run.runs == [("cheap", True), ("evicted", False)]

    def test_demoted_resident_work_reenters_at_one_outside_the_user_class(self):
        resident, blocks = {1}, {1: 10, 2: 20, 3: 30, 4: 40}
        sched, run = make_scheduler(resident, blocks=blocks)
        sched.schedule(unit(1, "demoted"), 0.0, user_request=True)
        sched.schedule(unit(2, "below"), 0.9)
        sched.schedule(unit(3, "above"), 1.1)
        sched.schedule(unit(4, "user"), 5.0, user_request=True)
        resident.discard(1)
        sched.on_block_evicted(10)
        sched.run_to_exhaustion()
        assert run.runs == [
            ("user", True),
            ("below", True),
            ("demoted", False),
            ("above", True),
        ]

    def test_demoted_promoted_work_keeps_its_class_and_price(self):
        blocks = {1: 10, 2: 20}
        sched, run = make_scheduler(blocks=blocks)
        sched.schedule(unit(1, "promoted"), 2.0, user_request=True)
        sched.schedule(unit(2, "cheap"), 0.3)
        sched.on_block_loaded(10)
        sched.on_block_evicted(10)
        # Back in the heap at (user class, 2.0) under block 10; the stale
        # heap copy from before the promotion never runs.
        assert sched.run_to_exhaustion() == 2
        assert run.runs == [("promoted", True), ("cheap", True)]

    def test_demoted_chunk_promoted_again_on_reload(self):
        resident, blocks = {1}, {1: 10, 2: 20}
        sched, run = make_scheduler(resident, blocks=blocks)
        sched.schedule(unit(1, "bounced"), 9.0)
        sched.schedule(unit(2, "other"), 0.5)
        resident.discard(1)
        sched.on_block_evicted(10)
        resident.add(1)
        sched.on_block_loaded(10)
        sched.run_to_exhaustion()
        assert run.runs == [("bounced", False), ("other", True)]

    def test_evicted_fast_entry_demoted_and_runs_once(self):
        resident, blocks = {1, 2}, {1: 10, 2: 20, 3: 30}
        sched, run = make_scheduler(resident, blocks=blocks)
        sched.schedule(unit(1, "resident"))
        sched.schedule(unit(3, "parked"), 0.2)
        sched.on_block_loaded(30)  # promoted behind the resident unit
        sched.schedule(unit(2, "stays"))
        resident.discard(1)
        sched.on_block_evicted(10)
        assert sched.run_to_exhaustion() == 3
        assert run.runs == [("parked", True), ("stays", False), ("resident", False)]

    def test_eviction_of_unrelated_block_keeps_order(self):
        resident, blocks = {1, 2}, {1: 10, 2: 20, 3: 30}
        sched, run = make_scheduler(resident, blocks=blocks)
        sched.schedule(unit(1, "a"))
        sched.schedule(unit(3, "b"))
        sched.on_block_loaded(30)
        sched.schedule(unit(2, "c"))
        sched.on_block_evicted(99)
        sched.run_to_exhaustion()
        assert run.ran == ["a", "b", "c"]

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
        sched, run = make_scheduler(resident={1, 2})
        sched.schedule(unit(1, "a"))
        sched.schedule(unit(2, "b"))
        assert sched.run_to_exhaustion() == 2
        assert run.runs == [("a", False), ("b", False)]

    def test_fast_entries_interleave_with_resident_chunks_in_order(self):
        sched, run = make_scheduler(resident={1, 3})
        sched.schedule(unit(1, "resident1"))
        sched.schedule(unit(2, "promoted"), 5.0)
        sched.on_block_loaded(2)
        sched.schedule(unit(3, "resident2"))
        sched.run_to_exhaustion()
        # Resident and promoted work share the very-high deque: strict FIFO.
        assert run.runs == [
            ("resident1", False),
            ("promoted", True),
            ("resident2", False),
        ]


class TestBackgroundLane:
    def test_background_runs_after_the_queues_drain_within_budget(self):
        sched, run = make_scheduler()
        steps = []

        def task():
            steps.append(len(run.ran))
            sched.schedule(unit(9, f"spawned{len(steps)}"))
            return len(steps) < 3

        sched.set_background(task, budget=2)
        sched.schedule(unit(1, "query"))
        # One budget per drain, after the queue emptied; work the task
        # schedules runs in the same drain.
        assert sched.run_to_exhaustion() == 3
        assert steps == [1, 1]
        assert run.ran == ["query", "spawned1", "spawned2"]
        assert sched.background_executed == 2
        # Returning False deregisters the task.
        assert sched.run_to_exhaustion() == 1
        assert sched.run_to_exhaustion() == 0
        assert sched.background_executed == 3
