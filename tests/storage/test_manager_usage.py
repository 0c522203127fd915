"""Unit tests for the storage manager and usage statistics."""

import pytest

from repro.errors import StorageError
from repro.storage.manager import StorageManager
from repro.storage.usage import DecayingAverage, UsageStats


class TestPlacement:
    def test_place_fills_current_block(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=4)
        a = mgr.place(1, 40)
        b = mgr.place(2, 40)
        assert a == b  # same block

    def test_place_overflows_to_new_block(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=4)
        a = mgr.place(1, 80)
        b = mgr.place(2, 80)
        assert a != b

    def test_duplicate_placement_rejected(self):
        mgr = StorageManager()
        mgr.place(1, 10)
        with pytest.raises(StorageError):
            mgr.place(1, 10)

    def test_remove_frees_space(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=4)
        block = mgr.place(1, 80)
        mgr.remove(1)
        assert not mgr.is_placed(1)
        assert mgr.disk.block(block).free == 100

    def test_resize_in_place(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=4)
        block = mgr.place(1, 40)
        mgr.resize(1, 60)
        assert mgr.block_of(1) == block

    def test_resize_relocates_on_overflow(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=4)
        mgr.place(1, 60)
        mgr.place(2, 30)
        original = mgr.block_of(1)
        mgr.resize(1, 90)  # no longer fits alongside 2
        assert mgr.block_of(1) != original

    def test_block_of_unplaced_raises(self):
        mgr = StorageManager()
        with pytest.raises(StorageError):
            mgr.block_of(9)


class TestTouch:
    def test_touch_counts_access_and_reads(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=2)
        mgr.place(1, 10)
        mgr.touch(1)
        assert mgr.usage.access_count(1) == 1
        assert mgr.disk.stats.reads == 1
        mgr.touch(1)  # now resident: no further read
        assert mgr.disk.stats.reads == 1
        assert mgr.usage.access_count(1) == 2

    def test_is_resident(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=2)
        mgr.place(1, 10)
        assert not mgr.is_resident(1)
        mgr.touch(1)
        assert mgr.is_resident(1)


class TestApplyLayout:
    def test_layout_installs_groups(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=4)
        for iid in (1, 2, 3, 4):
            mgr.place(iid, 20)
        mgr.apply_layout([[1, 3], [2, 4]], sizes=lambda iid: 20)
        assert mgr.block_of(1) == mgr.block_of(3)
        assert mgr.block_of(2) == mgr.block_of(4)
        assert mgr.block_of(1) != mgr.block_of(2)

    def test_layout_must_cover_all_instances(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=4)
        mgr.place(1, 20)
        mgr.place(2, 20)
        with pytest.raises(StorageError, match="mismatch"):
            mgr.apply_layout([[1]], sizes=lambda iid: 20)

    def test_layout_rejects_unknown_instances(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=4)
        mgr.place(1, 20)
        with pytest.raises(StorageError, match="mismatch"):
            mgr.apply_layout([[1, 99]], sizes=lambda iid: 20)

    def test_reorg_charged_separately(self):
        mgr = StorageManager(block_capacity=100, pool_capacity=4)
        mgr.place(1, 20)
        reads_before = mgr.disk.stats.reads
        mgr.apply_layout([[1]], sizes=lambda iid: 20)
        assert mgr.disk.stats.reads == reads_before
        assert mgr.reorg_writes == 1


class TestDecayingAverage:
    def test_starts_at_seed(self):
        avg = DecayingAverage(seed=4.0, decay=0.5)
        assert avg.value == 4.0

    def test_moves_toward_observations(self):
        avg = DecayingAverage(seed=4.0, decay=0.5)
        avg.observe(0.0)
        assert avg.value == 2.0
        avg.observe(0.0)
        assert avg.value == 1.0

    def test_converges_to_stationary_signal(self):
        avg = DecayingAverage(seed=10.0, decay=0.5)
        for __ in range(30):
            avg.observe(3.0)
        assert avg.value == pytest.approx(3.0, abs=1e-6)


class TestUsageStats:
    def test_crossing_counters(self):
        usage = UsageStats()
        usage.note_crossing(1, "p")
        usage.note_crossing(1, "p")
        assert usage.crossing_count(1, "p") == 2
        assert usage.crossing_count(1, "q") == 0

    def test_expected_io_uses_worst_case_before_observation(self):
        usage = UsageStats()
        usage.set_worst_case(1, "p", 7.0)
        assert usage.expected_io(1, "p") == 7.0

    def test_expected_io_adapts(self):
        usage = UsageStats(decay=0.5)
        usage.set_worst_case(1, "p", 8.0)
        usage.observe_io(1, "p", 0.0)
        assert usage.expected_io(1, "p") == 4.0

    def test_default_worst_case(self):
        usage = UsageStats()
        assert usage.expected_io(1, "p") == usage.default_worst_case

    def test_forget_instance(self):
        usage = UsageStats()
        usage.note_instance_access(1)
        usage.note_crossing(1, "p")
        usage.observe_io(1, "p", 2.0)
        usage.set_worst_case(1, "p", 3.0)
        usage.forget_instance(1, ports=["p"])
        assert usage.access_count(1) == 0
        assert usage.crossing_count(1, "p") == 0
        assert usage.expected_io(1, "p") == usage.default_worst_case

    def test_forget_instance_clears_peer_ghosts(self):
        # Regression: deleting instance 2 must also drop the *peers'*
        # statistics pointing at it, or greedy_cluster keeps weighing seed
        # order and frontier pushes with relationships that no longer exist.
        usage = UsageStats()
        usage.note_crossing(1, "to2")
        usage.observe_io(1, "to2", 3.0)
        usage.set_worst_case(1, "to2", 2.0)
        usage.note_crossing(2, "to1")
        usage.forget_instance(2, ports=["to1"], peer_keys=[(1, "to2")])
        assert usage.crossing_count(2, "to1") == 0
        assert usage.crossing_count(1, "to2") == 0
        assert usage.expected_io(1, "to2") == usage.default_worst_case

    def test_reseed_averages_falls_back_to_worst_case(self):
        usage = UsageStats(decay=0.5)
        usage.set_worst_case(1, "p", 8.0)
        usage.observe_io(1, "p", 0.0)
        assert usage.expected_io(1, "p") == 4.0
        usage.reseed_averages()
        assert usage.expected_io(1, "p") == 8.0

    def test_reset_counters_keeps_predictors(self):
        usage = UsageStats()
        usage.note_instance_access(1)
        usage.observe_io(1, "p", 2.0)
        usage.reset_counters()
        assert usage.access_count(1) == 0
        # Decaying average survives the epoch reset.
        assert usage.expected_io(1, "p") != usage.default_worst_case
