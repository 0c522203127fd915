"""The server child process: ``python -m bench.host <spec.json>``.

The stock ``python -m repro.server`` cannot open a durable database or a
non-default schema, so the harness hosts ``ReproServer`` itself.  The child
loads the generated forest, serves it, and answers one-line JSON commands
on stdin (``snap``, ``trace_on``, ``trace_off``, ``quit``) with one-line
JSON replies on stdout.  With ``"mode": "recover"`` it instead reopens a
killed server's directory, times the recovery, answers one ``read``
command and exits.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import sys
from time import perf_counter, process_time

from bench import calib, gen, stats  # importing bench puts src/ on the path
from bench.trace import Tracer


#: The calibration kernel (about 1 ms) runs on the server's own loop.
CALIBRATE_EVERY_S = 0.05


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _open(spec: dict, schema):
    from repro.core.database import Database

    if spec["durable"]:
        return Database.open(
            spec["dir"], schema, sync=True, pool_capacity=spec["pool_capacity"]
        )
    return Database(schema, pool_capacity=spec["pool_capacity"])


def _load(spec: dict) -> tuple[object, dict]:
    """Schema, database, bulk load, warm-up, checkpoint; returns stage times."""
    from repro.workloads import sum_node_schema

    stages: dict[str, float] = {}
    started = perf_counter()
    schema = sum_node_schema()
    stages["compile.freeze_s"] = perf_counter() - started

    forest = gen.project_forest(spec["seed"], spec["projects"])
    started = perf_counter()
    db = _open(spec, schema)
    for first_node, end_node, first_edge, end_edge in forest.projects:
        with db.transaction("load", batch=True):
            for node in range(first_node, end_node):
                iid = db.create("node", weight=forest.weights[node])
                assert iid == node + 1, "instance ids must follow node order"
            for upstream, downstream in forest.edges[first_edge:end_edge]:
                db.connect(downstream + 1, "inputs", upstream + 1, "outputs")
    stages["load_s"] = perf_counter() - started

    # Demand every project's tail so construction's lazy marks are gone.
    started = perf_counter()
    for tail in forest.tails:
        db.get_attr(tail + 1, "total")
    stages["warm_s"] = perf_counter() - started

    stages["checkpoint_s"] = 0.0
    if spec["durable"]:
        started = perf_counter()
        db.checkpoint()
        stages["checkpoint_s"] = perf_counter() - started
    # The loaded graph is long-lived: keep it out of later collections,
    # as a deployed server would.
    gc.collect()
    gc.freeze()
    return db, stages


async def _serve(spec: dict) -> None:
    from repro.server.mux import ServerConfig
    from repro.server.server import ReproServer

    db, stages = _load(spec)
    server = ReproServer(db, ServerConfig())
    host, port = await server.start()
    _reply({"ready": True, "host": host, "port": port, "stages": stages})

    tracer: Tracer | None = None
    loop = asyncio.get_running_loop()
    spins: list[float] = []

    async def calibrate() -> None:
        while True:
            await asyncio.sleep(CALIBRATE_EVERY_S)
            spins.append(calib.spin())

    calibrating = asyncio.ensure_future(calibrate())
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        command = json.loads(line) if line.strip() else {"cmd": "quit"}
        name = command["cmd"]
        if name == "snap":
            _reply(
                {
                    "metrics": db.metrics().flatten(),
                    "cpu_s": process_time(),
                    "rss_mb": stats.peak_rss_mb(),
                    "trace": tracer.snapshot() if tracer is not None else None,
                    "spins": spins,
                }
            )
        elif name == "trace_on":
            tracer = Tracer()
            tracer.install()
            _reply({"ok": True})
        elif name == "trace_off":
            tracer.uninstall()
            written = tracer.write(command["path"])
            _reply(
                {
                    "spans": written,
                    "dropped_spans": tracer.dropped_spans,
                    "open_spans": tracer.open_spans,
                }
            )
        elif name == "quit":
            calibrating.cancel()
            await server.stop()
            db.close()
            _reply({"ok": True, "in_flight": server.mux.in_flight})
            return
        else:
            raise ValueError(f"unknown command {name!r}")


def _recover(spec: dict) -> None:
    from repro.workloads import sum_node_schema

    schema = sum_node_schema()
    started = perf_counter()
    db = _open(spec, schema)
    recovery_s = perf_counter() - started
    report = db.persistence.stats.recovery
    _reply(
        {
            "ready": True,
            "recovery_s": recovery_s,
            "replayed": report.replayed,
            "clean": report.clean,
        }
    )
    command = json.loads(sys.stdin.readline())
    _reply(
        {
            "exists": [db.exists(iid) for iid in command["exists"]],
            "weights": [db.get_attr(iid, "weight") for iid in command["weights"]],
            "totals": [db.get_attr(iid, "total") for iid in command["totals"]],
            "instances": len(db),
            "rss_mb": stats.peak_rss_mb(),
        }
    )
    db.close()


def main(argv: list[str]) -> int:
    with open(argv[0]) as handle:
        spec = json.load(handle)
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    if spec.get("mode") == "recover":
        _recover(spec)
    else:
        asyncio.run(_serve(spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
