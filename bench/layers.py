"""Per-layer metrics: names, units, and how each is computed.

Layer names are the repo's modules.  Times are *self time* per op (or
per transaction) from the traced segment of a ``--trace`` run; counts are
``Database.metrics()`` deltas over the same segment.  A layer a workload
bypasses reads 0, which is the prediction the workload exists to show.
"""

from __future__ import annotations

#: name -> (unit, better); BENCHMARK.json's ``per_layer`` list must equal this.
PER_LAYER: dict[str, tuple[str, str]] = {
    "client.sat_p50_ms": ("ms", "lower"),
    "client.sat_p99_ms": ("ms", "lower"),
    "client.sat_p999_ms": ("ms", "lower"),
    "client.paced_p95_ms": ("ms", "lower"),
    "client.paced_p99_ms": ("ms", "lower"),
    "client.paced_p999_ms": ("ms", "lower"),
    "client.paced_late_p99_ms": ("ms", "lower"),
    "client.codec_us_per_txn": ("us", "lower"),
    "server.protocol.encode_us_per_txn": ("us", "lower"),
    "server.protocol.decode_us_per_txn": ("us", "lower"),
    "server.protocol.bytes_per_txn": ("B", "lower"),
    "server.mux.submit_us_per_txn": ("us", "lower"),
    "server.mux.step_batch_us_per_txn": ("us", "lower"),
    "server.mux.queue_wait_us_per_txn": ("us", "lower"),
    "server.mux.steps_per_txn": ("count", "lower"),
    "server.mux.rejected_ratio": ("ratio", "lower"),
    "server.loop_us_per_txn": ("us", "lower"),
    "txn.step_us_per_txn": ("us", "lower"),
    "txn.to_check_us_per_txn": ("us", "lower"),
    "txn.to_checks_per_txn": ("count", "lower"),
    "txn.restart_ratio": ("ratio", "lower"),
    "txn.commit_us_per_txn": ("us", "lower"),
    "core.primitive_us_per_op": ("us", "lower"),
    "core.primitives_per_op": ("count", "lower"),
    "evaluation.mark_us_per_op": ("us", "lower"),
    "evaluation.eval_us_per_op": ("us", "lower"),
    "evaluation.slots_marked_per_op": ("count", "lower"),
    "evaluation.rule_evaluations_per_op": ("count", "lower"),
    "evaluation.mark_edge_visits_per_op": ("count", "lower"),
    "evaluation.unchanged_eval_ratio": ("ratio", "lower"),
    "evaluation.chunks_per_op": ("count", "lower"),
    "evaluation.fast_path_ratio": ("ratio", "higher"),
    "compile.freeze_s": ("s", "lower"),
    "compile.plans_built": ("count", "lower"),
    "compile.fallbacks": ("count", "lower"),
    "dsl.compile_schema_s": ("s", "lower"),
    "storage.busy_us_per_op": ("us", "lower"),
    "storage.buffer_hit_ratio": ("ratio", "higher"),
    "storage.disk_reads_per_op": ("count", "lower"),
    "storage.disk_writes_per_op": ("count", "lower"),
    "index.maintain_us_per_write": ("us", "lower"),
    "index.sweep_us_per_query": ("us", "lower"),
    "index.swept_slots_per_query": ("count", "lower"),
    "index.indexed_query_ratio": ("ratio", "higher"),
    "index.entries": ("count", "lower"),
    "dsl.query.compile_us": ("us", "lower"),
    "dsl.query.plan_us": ("us", "lower"),
    "dsl.query.exec_us": ("us", "lower"),
    "dsl.query.exec_p50_us.eq": ("us", "lower"),
    "dsl.query.exec_p50_us.range": ("us", "lower"),
    "dsl.query.exec_p50_us.extent": ("us", "lower"),
    "dsl.query.exec_p50_us.scan": ("us", "lower"),
    "persistence.append_us_per_txn": ("us", "lower"),
    "persistence.fsync_us_per_txn": ("us", "lower"),
    "persistence.fsyncs_per_txn": ("count", "lower"),
    "persistence.wal_bytes_per_txn": ("B", "lower"),
    "persistence.checkpoint_s": ("s", "lower"),
    "persistence.load_s": ("s", "lower"),
    "persistence.recovery_s": ("s", "lower"),
    "persistence.replayed_records": ("count", "lower"),
    "harness.unattributed_us_per_op": ("us", "lower"),
    "harness.trace_overhead_ratio": ("ratio", "higher"),
}

#: Counters that must repeat exactly between two runs of one seed on the
#: embedded workloads (single caller, no timers).
DETERMINISTIC = (
    "engine.slots_marked",
    "engine.rule_evaluations",
    "engine.mark_edge_visits",
    "engine.unchanged_evaluations",
    "engine.chunk_executions",
    "engine.fast_path_hits",
    "engine.waves",
    "engine.demands",
    "buffer.hits",
    "buffer.misses",
    "disk.reads",
    "disk.writes",
    "index.inserts",
    "index.removes",
    "index.sweeps",
    "index.swept_slots",
    "index.queries",
    "index.indexed_queries",
    "index.extent_queries",
    "index.scan_queries",
    "txn.commits",
)


def deterministic(counters: dict) -> dict:
    return {name: counters.get(name, 0) for name in DETERMINISTIC}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(
    counters: dict,
    per: int,
    trace: dict | None,
    final: dict,
    extra: dict,
    writes: int = 0,
) -> dict[str, float]:
    """Every per-layer metric; ``extra`` carries the ones only the caller
    can measure (client latencies, set-up stages, replayed decodes ...)."""
    c = counters.get
    self_s = trace["self_s"] if trace else {}
    calls = trace["calls"] if trace else {}

    def us(point: str, count: int = per) -> float:
        return 1e6 * _ratio(self_s.get(point, 0.0), count)

    queries = c("index.queries", 0)
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(
        {
            "server.protocol.encode_us_per_txn": us("server.protocol.encode"),
            "server.mux.submit_us_per_txn": us("server.mux.submit"),
            "server.mux.step_batch_us_per_txn": us("server.mux.step_batch"),
            "server.mux.queue_wait_us_per_txn": 1e6
            * _ratio(trace["queue_wait_s"], trace["txns_done"])
            if trace
            else 0.0,
            "server.mux.steps_per_txn": _ratio(calls.get("txn.step", 0), per),
            "server.mux.rejected_ratio": _ratio(
                c("server.txns_rejected", 0),
                c("server.txns_rejected", 0) + c("server.txns_submitted", 0),
            ),
            "txn.step_us_per_txn": us("txn.step"),
            "txn.to_check_us_per_txn": us("txn.to_check"),
            "txn.to_checks_per_txn": _ratio(
                c("cc.reads_checked", 0) + c("cc.writes_checked", 0), per
            ),
            "txn.restart_ratio": _ratio(
                c("cc.transactions_restarted", 0), c("cc.transactions_started", 0)
            ),
            "txn.commit_us_per_txn": us("txn.commit"),
            "core.primitive_us_per_op": us("core.primitive"),
            "core.primitives_per_op": _ratio(calls.get("core.primitive", 0), per),
            "evaluation.mark_us_per_op": us("evaluation.mark"),
            "evaluation.eval_us_per_op": us("evaluation.eval"),
            "evaluation.slots_marked_per_op": _ratio(c("engine.slots_marked", 0), per),
            "evaluation.rule_evaluations_per_op": _ratio(c("engine.rule_evaluations", 0), per),
            "evaluation.mark_edge_visits_per_op": _ratio(c("engine.mark_edge_visits", 0), per),
            "evaluation.unchanged_eval_ratio": _ratio(
                c("engine.unchanged_evaluations", 0), c("engine.rule_evaluations", 0)
            ),
            "evaluation.chunks_per_op": _ratio(c("engine.chunk_executions", 0), per),
            "evaluation.fast_path_ratio": _ratio(
                c("engine.fast_path_hits", 0),
                c("engine.fast_path_hits", 0) + c("engine.chunk_executions", 0),
            ),
            "compile.plans_built": final.get("compile.plans_built", 0),
            "compile.fallbacks": final.get("compile.fallbacks", 0),
            "storage.busy_us_per_op": us("storage.busy"),
            "storage.buffer_hit_ratio": _ratio(
                c("buffer.hits", 0), c("buffer.hits", 0) + c("buffer.misses", 0)
            ),
            "storage.disk_reads_per_op": _ratio(c("disk.reads", 0), per),
            "storage.disk_writes_per_op": _ratio(c("disk.writes", 0), per),
            "index.maintain_us_per_write": us("index.maintain", writes),
            "index.sweep_us_per_query": us("index.sweep", queries),
            "index.swept_slots_per_query": _ratio(c("index.swept_slots", 0), queries),
            "index.indexed_query_ratio": _ratio(
                c("index.indexed_queries", 0) + c("index.extent_queries", 0), queries
            ),
            "index.entries": final.get("index.entries", 0),
            "dsl.query.plan_us": us("dsl.query.plan", calls.get("dsl.query.plan", 0)),
            "dsl.query.exec_us": us("dsl.query.exec", calls.get("dsl.query.exec", 0)),
            "persistence.append_us_per_txn": us("persistence.append"),
            "persistence.fsync_us_per_txn": us("persistence.fsync"),
            "persistence.fsyncs_per_txn": _ratio(c("wal.fsyncs", 0), per),
            "persistence.wal_bytes_per_txn": _ratio(c("wal.bytes_appended", 0), per),
        }
    )
    unknown = set(extra) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    values.update(extra)
    return {name: float(value) for name, value in values.items()}
