"""Counters arithmetic and the collect-chunk path of the engine."""

from repro.evaluation.counters import EvalCounters
from repro.workloads import link, sum_node_schema
from tests.references import ORDERS, db_in_order


class TestCounters:
    def test_snapshot_is_independent(self):
        counters = EvalCounters(rule_evaluations=3)
        snap = counters.snapshot()
        counters.rule_evaluations = 10
        assert snap.rule_evaluations == 3

    def test_delta_since(self):
        counters = EvalCounters()
        snap = counters.snapshot()
        counters.rule_evaluations += 4
        counters.slots_marked += 2
        delta = counters.delta_since(snap)
        assert delta.rule_evaluations == 4
        assert delta.slots_marked == 2
        assert delta.demands == 0

    def test_reset(self):
        counters = EvalCounters(rule_evaluations=5, demands=2)
        counters.reset()
        assert counters.rule_evaluations == 0
        assert counters.demands == 0


class TestCollectChunks:
    """Clean values on non-resident blocks are fetched by scheduled
    collect chunks, so value gathering is subject to I/O-aware ordering."""

    def build_gather(self, policy="greedy"):
        db = db_in_order(
            sum_node_schema(), policy, block_capacity=2048, pool_capacity=2
        )
        producers = [db.create("node", weight=i + 1) for i in range(40)]
        hub = db.create("node")
        for producer in producers:
            link(db, producer, hub)
        for producer in producers:
            # Warm both the totals and the transmitted values the hub reads.
            db.get_attr(producer, "total")
            db.get_transmitted(producer, "outputs", "total")
        return db, hub, producers

    def test_gather_computes_correct_sum(self):
        db, hub, producers = self.build_gather()
        assert db.get_attr(hub, "total") == sum(range(1, 41))

    def test_gather_collects_without_reevaluating_producers(self):
        db, hub, producers = self.build_gather()
        before = db.engine.counters.snapshot()
        db.get_attr(hub, "total")
        delta = db.engine.counters.delta_since(before)
        # Only the hub's own slot evaluates; producers are merely collected.
        assert delta.rule_evaluations == 1

    def test_collect_falls_back_to_request_when_invalidated(self):
        # A producer invalidated after the hub was marked still evaluates
        # correctly within the same demand.
        db, hub, producers = self.build_gather()
        db.set_attr(producers[0], "weight", 100)
        assert db.get_attr(hub, "total") == sum(range(1, 41)) + 99

    def test_policies_agree_on_gather(self):
        values = set()
        for policy in ORDERS:
            db, hub, __ = self.build_gather(policy)
            values.add(db.get_attr(hub, "total"))
        assert len(values) == 1

    def test_greedy_gather_reads_fewer_blocks_than_fifo(self):
        reads = {}
        for policy in ("greedy", "fifo"):
            db, hub, producers = self.build_gather(policy)
            # Interleave the hub's connection order across blocks by
            # reconnecting in a shuffled order.
            for producer in producers:
                db.disconnect(hub, "inputs", producer, "outputs")
            blocks = {}
            for producer in producers:
                blocks.setdefault(db.storage.block_of(producer), []).append(producer)
            groups = list(blocks.values())
            width = max(len(g) for g in groups)
            for i in range(width):
                for group in groups:
                    if i < len(group):
                        db.connect(hub, "inputs", group[i], "outputs")
            db.engine.invalidate_derived([(hub, "total")])
            db.storage.buffer.clear()
            before = db.storage.disk.stats.snapshot()
            db.get_attr(hub, "total")
            reads[policy] = db.storage.disk.stats.delta_since(before).reads
        assert reads["greedy"] <= reads["fifo"]
