"""The four workloads: why each exists and how big it is.

Sizes are for the 2-core sandbox the benchmark is judged in.  ``seconds``
(``--seconds``, ``run_seconds`` in BENCHMARK.json) is the measured part of
a run: serving workloads split it between a closed-loop *saturate* phase
and an open-loop *paced* phase; embedded workloads turn it into a fixed op
count (``ops_per_second`` x seconds) so their work counters repeat exactly.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    "serve_durable": {
        "kind": "serve",
        "why": (
            "client -> durable server -> response over 100 000 instances, far larger "
            "than the buffer pool: WAL append and one fsync per commit carry the cost"
        ),
        "durable": True,
        "pool_capacity": 256,
        "projects": 500,
        "zipf_s": 0.8,
        "block": {"upd": 70, "read": 20, "new": 8, "del": 2},
        "reads_per_txn": 4,
        "paced_rate": 150.0,
    },
    "serve_hot_mem": {
        "kind": "serve",
        "why": (
            "in-memory server, data fits the pool, hot keys: protocol, mux and timestamp "
            "ordering carry the cost; the bypass for persistence and storage misses"
        ),
        "durable": False,
        "pool_capacity": 1024,
        "projects": 100,
        "zipf_s": 1.1,
        "block": {"read": 80, "upd": 20},
        # 8 reads, not the issue's 4: with 4 the load generator costs as much
        # per transaction as the server, and runs fell into a server-bound
        # or a generator-bound mode (busy share 0.99 or 0.83) at random.
        "reads_per_txn": 8,
        "paced_rate": 500.0,
    },
    "embed_wave": {
        "kind": "embed",
        "why": (
            "the paper's milestone application in process: marking waves, rule evaluation "
            "and a thrashing buffer pool; no server, timestamps, WAL or index"
        ),
        "layers": 30,
        "width": 1000,
        "random_parent": True,
        "pool_capacity": 64,
        "indexed": False,
        "ops_per_second": 70.0,
        "chunk": 50,
        "write_depth": 8,
        "reads": 5,
        "watch_every": 20,
    },
    "embed_query_churn": {
        "kind": "embed",
        "why": (
            "indexed and extent queries interleaved with the writes that maintain them, "
            "all resident: planner, index sweeps and maintenance in one stream"
        ),
        "layers": 30,
        "width": 1000,
        "random_parent": False,
        "pool_capacity": 4096,
        "indexed": True,
        "ops_per_second": 200.0,
        "chunk": 200,
    },
}

#: Share of ``seconds`` a serving run spends saturating; the rest is paced.
SATURATE_SHARE = 0.625
#: Closed loop: connections x transactions in flight on each.
CONNECTIONS = 2
WINDOW = 8


def sized(name: str, quick: bool) -> dict:
    """The workload's parameters, at 1/50 of the data for ``--quick``."""
    spec = dict(WORKLOADS[name], name=name)
    if quick:
        if spec["kind"] == "serve":
            spec["projects"] = max(2, spec["projects"] // 50)
            spec["paced_rate"] = spec["paced_rate"] / 4
        else:
            spec["width"] = spec["width"] // 50
        spec["pool_capacity"] = max(4, spec["pool_capacity"] // 50)
    return spec
