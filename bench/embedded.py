"""The embedded workloads: ``Database`` called in process, single-threaded,
for a fixed op count, so every work counter repeats exactly."""

from __future__ import annotations

import gc
import random
from time import perf_counter

from bench import calib, gen, layers, stats
from bench.checks import Checks
from bench.trace import Tracer, delta


def _build(spec: dict, dag: gen.Dag, setup: dict):
    """Compile the schema and load the DAG; stage times go into ``setup``."""
    from repro.core.database import Database
    from repro.dsl import compile_schema
    from repro.env.milestones import MILESTONE_SCHEMA, VERY_LATE_EXTENSION

    source = MILESTONE_SCHEMA
    if spec["indexed"]:
        source += VERY_LATE_EXTENSION.format(limit=10)
    started = perf_counter()
    schema = compile_schema(source, freeze=False)
    if spec["indexed"]:
        schema.add_index("milestone", "sched_compl")  # intrinsic
        schema.add_index("milestone", "exp_compl")  # derived
    setup["dsl.compile_schema_s"] = perf_counter() - started
    started = perf_counter()
    schema.freeze()
    setup["compile.freeze_s"] = perf_counter() - started

    started = perf_counter()
    db = Database(schema, pool_capacity=spec["pool_capacity"])
    # One batched transaction per slice of a layer.  With the predicate
    # subtype declared, a batch of >= 200 connected creates overflows the
    # interpreter stack (README, limit a), so that schema loads by 50.
    step = 50 if spec["indexed"] else dag.width
    for first in range(0, len(dag.local_work), step):
        with db.transaction("load", batch=True):
            for node in range(first, min(first + step, len(dag.local_work))):
                iid = db.create(
                    "milestone",
                    sched_compl=dag.sched_compl[node],
                    local_work=dag.local_work[node],
                )
                assert iid == node + 1, "instance ids must follow node order"
                for parent in dag.parents[node]:
                    db.connect(iid, "depends_on", parent + 1, "consists_of")
    setup["load_s"] = perf_counter() - started
    return db


def _segment(op, apply, stream, first: int, every: int):
    """Apply ``stream`` in order; returns per-op latencies, kinds, and the
    calibration kernel's times, sampled every ``every`` ops."""
    latencies: list[float] = []
    kinds: list[str] = []
    spins: list[float] = []
    for index, item in enumerate(stream, first):
        started = perf_counter()
        kind = apply(index, item)
        latencies.append(perf_counter() - started)
        kinds.append(kind)
        op.after(index, item)  # shadow model and query checks: not timed
        if index % every == 0:
            spins.append(calib.spin())
    return latencies, kinds, spins


def run(spec: dict, seed: int, seconds: float, traced: bool, corrupt: bool = False) -> dict:
    checks = Checks(corrupt)
    setup: dict[str, float] = {}
    setup_started = perf_counter()
    dag = gen.milestone_dag(seed, spec["layers"], spec["width"], spec["random_parent"])
    ops = max(40, round(spec["ops_per_second"] * seconds))
    if spec["indexed"]:
        stream = gen.churn_stream(seed, dag, ops)
    else:
        stream = gen.wave_stream(seed, dag, ops, spec["write_depth"], spec["reads"])
    db = _build(spec, dag, setup)

    # Warm-up: demand the last layer so construction's lazy marks are
    # evaluated before anything is timed.
    started = perf_counter()
    last = [node + 1 for node in dag.layer(-1)]
    for iid in last:
        db.get_attr(iid, "late")
    if spec["indexed"]:
        op = _ChurnOps(db, dag, checks)
        for kind in gen.QUERY_TEXT:
            op.query(kind, dag.sched_compl[0], check=True)
    else:
        for iid in last[:: spec["watch_every"]]:
            db.watch(iid, "late")
        op = _WaveOps(db, dag)
    setup["warm_s"] = perf_counter() - started
    # The loaded graph is long-lived: keep it out of later collections
    # (bench.host does the same for the served database).
    gc.collect()
    gc.freeze()
    setup_s = perf_counter() - setup_started

    # A traced run first measures an untraced reference segment on the same
    # warmed database, so the tracing overhead is a ratio within one run.
    reference = len(stream) // 4 if traced else 0
    every = max(1, spec["chunk"] // 5)
    ref_rate = 0.0
    if reference:
        ref_latencies, *__ = _segment(op, op.apply, stream[:reference], 0, every)
        ref_rate = stats.chunk_rate(ref_latencies, spec["chunk"])
    tracer = trace_before = None
    apply = op.apply
    if traced:
        tracer = Tracer()
        tracer.install()
        apply, trace_before = tracer.root(op.apply), tracer.snapshot()
    before = db.metrics()
    try:
        latencies, kinds, spins = _segment(op, apply, stream[reference:], reference, every)
    finally:
        if tracer is not None:
            tracer.uninstall()
    measured, run_s = len(latencies), sum(latencies)
    counters = (db.metrics() - before).flatten()
    trace_delta = delta(tracer.snapshot(), trace_before) if tracer is not None else None

    op.verify(checks, random.Random(gen.subseed(seed, "verify")))

    summary = stats.summarize_ms(latencies)
    rate = stats.chunk_rate(latencies, spec["chunk"])
    # The tail is the highest percentile with ten samples beyond it.
    tail_ms = 1e3 * stats.percentile(sorted(latencies), summary["supported_tail"])
    as_measured, scaled = calib.at_reference(spins, rate, summary["p50"], tail_ms)
    end_to_end = {"setup_s": setup_s, **scaled, "peak_rss_mb": stats.peak_rss_mb()}
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(latency)
    extra = {
        "compile.freeze_s": setup["compile.freeze_s"],
        "dsl.compile_schema_s": setup["dsl.compile_schema_s"],
        "dsl.query.compile_us": 1e6 * stats.median(op.compile_s),
    }
    for kind in gen.QUERY_TEXT:
        extra[f"dsl.query.exec_p50_us.{kind}"] = 1e6 * stats.median(by_kind.get(kind, []))
    if tracer is not None:
        extra["harness.unattributed_us_per_op"] = (
            1e6 * trace_delta["self_s"]["harness.op"] / measured
        )
        extra["harness.trace_overhead_ratio"] = rate / ref_rate
    per_layer = layers.metrics(
        counters=counters,
        per=measured,
        trace=trace_delta,
        final=db.metrics().flatten(),
        extra=extra,
        writes=len(by_kind.get("write", [])),
    )
    result = {
        "end_to_end": end_to_end,
        "measured": as_measured,
        "per_layer": per_layer,
        "attempted": len(stream),
        "failed": 0,
        "checks_run": checks.run,
        "check_failures": checks.failures,
        "digests": {"stream": gen.digest(stream)},
        "counters": layers.deterministic(counters),
        "phases": {"setup_s": setup_s, "run_s": run_s, **setup},
        "samples": {
            "ops": measured,
            "supported_tail": summary["supported_tail"],
        },
    }
    if tracer is not None:
        result["tracer"] = tracer
    return result


class _WaveOps:
    """One transaction: a write 8 layers up, then reads on the last layer."""

    compile_s: tuple = ()  # no queries here

    def __init__(self, db, dag: gen.Dag) -> None:
        self.db, self.dag = db, dag
        self.work = list(dag.local_work)

    def apply(self, index: int, item) -> str:
        target, work, reads = item
        db = self.db
        with db.transaction("op"):
            db.set_attr(target + 1, "local_work", work)
            for node in reads:
                db.get_attr(node + 1, "late")
        return "wave"

    def after(self, index: int, item) -> None:
        self.work[item[0]] = item[1]

    def verify(self, checks: Checks, rng: random.Random) -> None:
        dag, db = self.dag, self.db
        expected = gen.milestone_expected(self.work, dag.parents)
        sample = list(dag.layer(-1)) + rng.sample(range(len(expected)), min(1000, len(expected)))
        for node in sample:
            checks.equal(db.get_attr(node + 1, "exp_compl"), expected[node], f"exp_compl[{node}]")
            checks.equal(
                bool(db.get_attr(node + 1, "late")),
                expected[node] > dag.sched_compl[node],
                f"late[{node}]",
            )


class _ChurnOps:
    """Queries and the write transactions that keep their indexes busy."""

    def __init__(self, db, dag: gen.Dag, checks: Checks) -> None:
        from repro.dsl.query import compile_query

        self.db, self.checks = db, checks
        self.work = list(dag.local_work)
        self.sched = list(dag.sched_compl)
        self.parents = [list(deps) for deps in dag.parents]
        self.alive = [True] * len(self.work)
        self.leaves: list[int] = []  # node index of every leaf created
        self.compile_query = compile_query
        self.compile_s: list[float] = []
        self.compiled: dict[tuple, object] = {}
        self.queries_seen = 0

    def _compiled(self, kind: str, literal):
        key = (kind, literal)
        query = self.compiled.get(key)
        if query is None:
            started = perf_counter()
            query = self.compile_query(self.db.schema, gen.QUERY_TEXT[kind].format(literal))
            self.compile_s.append(perf_counter() - started)
            self.compiled[key] = query
        return query

    def query(self, kind: str, literal, check: bool = False):
        query = self._compiled(kind, literal)
        result = query.run(self.db)
        if check:
            self.checks.equal(result, query.run_scan(self.db), f"{kind} query vs scan")
        return result

    def apply(self, index: int, item) -> str:
        kind, db = item[0], self.db
        if kind in gen.QUERY_TEXT:
            self.query(kind, item[1] if len(item) > 1 else None)
            return kind
        with db.transaction("op"):
            if kind == "work":
                db.set_attr(item[1] + 1, "local_work", item[2])
            elif kind == "sched":
                db.set_attr(item[1] + 1, "sched_compl", item[2])
            elif kind == "new":
                iid = db.create("milestone", local_work=item[2], sched_compl=item[3])
                db.connect(iid, "depends_on", item[1] + 1, "consists_of")
                self._new_iid = iid
            else:
                db.delete(self.leaves[item[1]] + 1)
        return "write"

    def after(self, index: int, item) -> None:
        kind = item[0]
        if kind in gen.QUERY_TEXT:
            self.queries_seen += 1
            if self.queries_seen % 100 == 0:  # 1 % of queries, re-run untimed
                self.query(kind, item[1] if len(item) > 1 else None, check=True)
        elif kind == "work":
            self.work[item[1]] = item[2]
        elif kind == "sched":
            self.sched[item[1]] = item[2]
        elif kind == "new":
            node = len(self.work)
            self.checks.equal(self._new_iid, node + 1, "created leaf id")
            self.work.append(item[2])
            self.sched.append(item[3])
            self.parents.append([item[1]])
            self.alive.append(True)
            self.leaves.append(node)
        else:
            self.alive[self.leaves[item[1]]] = False

    def verify(self, checks: Checks, rng: random.Random) -> None:
        db = self.db
        expected = gen.milestone_expected(self.work, self.parents)
        alive = [node for node, ok in enumerate(self.alive) if ok]
        leaves = [node for node in self.leaves if self.alive[node]]
        for node in leaves + rng.sample(alive, min(1000, len(alive))):
            checks.equal(db.get_attr(node + 1, "exp_compl"), expected[node], f"exp_compl[{node}]")
        very_late = [n + 1 for n in alive if expected[n] > self.sched[n] + 10]
        checks.equal(self.query("extent", None), very_late, "very_late extent")
        for node in rng.sample(alive, 5):
            same = [n + 1 for n in alive if self.sched[n] == self.sched[node]]
            checks.equal(self.query("eq", self.sched[node]), same, "sched_compl index")
        for node in self.leaves:
            checks.equal(db.exists(node + 1), self.alive[node], f"leaf {node} exists")
