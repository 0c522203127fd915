"""The serving workloads: one asyncio load generator, two connections, the
server in one child process (``bench.host``).

Two timed phases run on the same warmed server.  *Saturate* is a closed
loop -- ``CONNECTIONS`` x ``WINDOW`` transactions in flight, each slot
sending its next only after the reply (callers are tools that wait).
*Paced* is an open loop at a fixed seeded-Poisson rate well under
capacity; each request is timed from when it was *due*, so a stall is
charged to every request it delays.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import shutil
import signal
import sys
from time import perf_counter

from bench import OUT_DIR, REPO_ROOT, calib, gen, layers, stats
from bench.checks import Checks
from bench.trace import delta
from bench.workloads import CONNECTIONS, SATURATE_SHARE, WINDOW

#: Share of the saturate phase a traced run keeps untraced as its reference.
REFERENCE_SHARE = 0.35
#: Upper bound on what one connection can be asked for, transactions/second.
MAX_RATE_PER_CONNECTION = 4000
WARMUP_TXNS = 200
REPLY_TIMEOUT_S = 60.0
RATE_WINDOW_S = 0.5
TIMER_SLACK_S = 0.002
PACED_SETTLE_SHARE = 1 / 3


class _Host:
    """The child process and its one-line JSON command channel."""

    def __init__(self, process: asyncio.subprocess.Process) -> None:
        self.process = process

    @classmethod
    async def spawn(cls, spec_path: str) -> "_Host":
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "bench.host",
            spec_path,
            cwd=REPO_ROOT,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 26,
        )
        return cls(process)

    async def read(self) -> dict:
        line = await self.process.stdout.readline()
        if not line:
            raise RuntimeError("the server child exited without replying")
        return json.loads(line)

    async def ask(self, **command) -> dict:
        self.process.stdin.write((json.dumps(command) + "\n").encode())
        await self.process.stdin.drain()
        return await self.read()

    async def kill(self) -> None:
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGKILL)
        await self.process.wait()


class _Load:
    """Shared state of the load generator: resolving templates into op
    lists, recording outcomes, and the bookkeeping the checks need."""

    def __init__(self, clients, base_nodes: int) -> None:
        self.clients = clients
        self.base_nodes = base_nodes
        self.attempted = 0
        self.committed = 0
        self.failed = 0  # failed + rejected + protocol errors
        self.restarts = 0
        self.substituted = 0
        #: per connection: leaves created and acknowledged, oldest first.
        self.own_leaves: list[list[tuple[int, int, int]]] = [[] for __ in clients]
        #: key -> [(submitted, answered, value)] acknowledged weight writes.
        self.writes: dict[int, list[tuple[float, float, int]]] = {}
        self.created: list[tuple[int, int, int]] = []  # (iid, parent node, weight)
        self.deleted: set[int] = set()
        self.pending: set[asyncio.Future] = set()
        self.sample_requests: list[list] = []
        self.sample_responses: list[dict] = []

    def resolve(self, conn: int, template: tuple) -> tuple[tuple, list]:
        kind = template[0]
        if kind == "del":
            if self.own_leaves[conn]:
                leaf = self.own_leaves[conn].pop(0)
                ops = [["delete", leaf[0]], ["get_attr", template[1] + 1, "total"]]
                return ("del", leaf[0]), ops
            self.substituted += 1
            template = ("read", template[1])
            kind = "read"
        if kind == "upd":
            iid = template[1] + 1
            return template, [["set_attr", iid, "weight", template[2]], ["get_attr", iid, "total"]]
        if kind == "read":
            return template, [["get_attr", key + 1, "total"] for key in template[1:]]
        return template, [
            ["create", "node", {"weight": template[2]}],
            ["connect", {"$": 0}, "inputs", template[1] + 1, "outputs"],
            ["get_attr", {"$": 0}, "total"],
        ]

    async def send(
        self, conn: int, template: tuple, timed_from: float | None, sink: list
    ) -> asyncio.Future:
        """Submit one transaction; its outcome lands in ``sink`` when answered."""
        resolved, ops = self.resolve(conn, template)
        self.attempted += 1
        if len(self.sample_requests) < 2000:
            self.sample_requests.append(ops)
        submitted = perf_counter()
        future = await self.clients[conn].submit(ops)
        self.pending.add(future)
        origin = submitted if timed_from is None else timed_from

        def answered(done: asyncio.Future) -> None:
            now = perf_counter()
            self.pending.discard(done)
            if done.cancelled() or done.exception() is not None:
                self.failed += 1  # protocol error or connection loss
                return
            frame = done.result()
            if frame.get("status") != "committed":
                self.failed += 1
                return
            self.committed += 1
            self.restarts += frame.get("restarts", 0)
            sink.append((now, now - origin))
            if len(self.sample_responses) < 2000:
                self.sample_responses.append(frame)
            kind = resolved[0]
            if kind == "upd":
                self.writes.setdefault(resolved[1], []).append((submitted, now, resolved[2]))
            elif kind == "new":
                leaf = (frame["results"][0], resolved[1], resolved[2])
                self.own_leaves[conn].append(leaf)
                self.created.append(leaf)
            elif kind == "del":
                self.deleted.add(resolved[1])

        future.add_done_callback(answered)
        return future

    async def drain(self) -> int:
        """Wait for every outstanding reply; returns how many never came."""
        if self.pending:
            await asyncio.wait(list(self.pending), timeout=REPLY_TIMEOUT_S)
        return len(self.pending)


async def _saturate(load: _Load, streams, seconds: float) -> tuple[list, float]:
    """Closed loop; returns ``(answered_at, latency)`` pairs and the start."""
    sink: list[tuple[float, float]] = []
    started = perf_counter()
    deadline = started + seconds

    async def slot(conn: int) -> None:
        while perf_counter() < deadline:
            template = next(streams[conn], None)
            if template is None:
                return
            future = await load.send(conn, template, None, sink)
            try:
                await future
            except Exception:  # counted as failed by the reply callback
                pass

    await asyncio.gather(
        *(slot(conn) for conn in range(len(load.clients)) for __ in range(WINDOW)),
        return_exceptions=True,
    )
    return sink, started


async def _paced(load: _Load, streams, due: list[float]) -> tuple[list, list[float]]:
    """Open loop; latency counts from each request's due time."""
    sink: list[tuple[float, float]] = []
    lateness: list[float] = []
    started = perf_counter()
    for index, offset in enumerate(due):
        due_at = started + offset
        # The event loop's timers are a millisecond coarse, more than the
        # service time being measured: sleep until shortly before the due
        # time, then poll (still yielding, so replies keep being read).
        delay = due_at - perf_counter() - TIMER_SLACK_S
        if delay > 0:
            await asyncio.sleep(delay)
        while perf_counter() < due_at:
            await asyncio.sleep(0)
        conn = index % len(load.clients)
        template = next(streams[conn], None)
        if template is None:
            break
        lateness.append(perf_counter() - due_at)
        await load.send(conn, template, due_at, sink)
    await load.drain()
    return sink, lateness


class _Replay:
    """An in-memory socket stub feeding captured frames to ``recv_frame``."""

    def __init__(self, data: bytes) -> None:
        self.view, self.offset = memoryview(data), 0

    def recv(self, n: int) -> bytes:
        chunk = bytes(self.view[self.offset : self.offset + n])
        self.offset += len(chunk)
        return chunk


def _decode_us(payloads: list[dict]) -> tuple[float, float]:
    """Median microseconds to decode one captured frame, and its bytes."""
    from repro.server.protocol import encode_frame, recv_frame

    if not payloads:
        return 0.0, 0.0
    frames = [encode_frame(payload) for payload in payloads]
    stub = _Replay(b"".join(frames))
    samples = []
    for __ in frames:
        started = perf_counter()
        recv_frame(stub)
        samples.append(perf_counter() - started)
    return 1e6 * stats.median(samples), sum(map(len, frames)) / len(frames)


def _shadow_totals(forest: gen.Forest, weights: list[int]) -> list[int]:
    """``total = weight + sum(upstream totals)`` over plain lists; node
    order is creation order, which is topological."""
    upstream: list[list[int]] = [[] for __ in weights]
    for up, down in forest.edges:
        upstream[down].append(up)
    totals: list[int] = []
    for node, weight in enumerate(weights):
        totals.append(weight + sum(totals[up] for up in upstream[node]))
    return totals


class _Readback:
    """What to read from the final database, and how to judge the answer
    against the plain-list shadow model."""

    def __init__(self, forest: gen.Forest, load: _Load, seed: int) -> None:
        rng = random.Random(gen.subseed(seed, "verify"))
        self.forest, self.load = forest, load
        self.written = sorted(load.writes)
        self.untouched = [
            node
            for node in rng.sample(range(load.base_nodes), min(500, load.base_nodes))
            if node not in load.writes
        ]
        self.live = [leaf for leaf in load.created if leaf[0] not in load.deleted]
        self.sampled = rng.sample(range(load.base_nodes), min(1000, load.base_nodes))
        leaves = [leaf[0] for leaf in self.live]
        self.exists = [leaf[0] for leaf in load.created]
        self.weights = [node + 1 for node in self.written + self.untouched] + leaves
        self.totals = [node + 1 for node in self.sampled] + leaves

    def check(self, checks: Checks, weights: list, totals: list) -> None:
        forest, load = self.forest, self.load
        shadow = list(forest.weights)
        got = iter(weights)
        for node in self.written:
            value = next(got)
            history = load.writes[node]
            # A write answered before the last one was even submitted cannot
            # be the survivor; any later one may be (timestamp order decides).
            last_submitted = max(entry[0] for entry in history)
            candidates = {entry[2] for entry in history if entry[1] >= last_submitted}
            checks.expect(
                value in candidates, f"weight[{node}] = {value}, acknowledged {candidates}"
            )
            shadow[node] = value
        for node in self.untouched:
            checks.equal(next(got), forest.weights[node], f"untouched weight[{node}]")
        for leaf in self.live:
            checks.equal(next(got), leaf[2], f"leaf {leaf[0]} weight")
        expected = _shadow_totals(forest, shadow)
        got = iter(totals)
        for node in self.sampled:
            checks.equal(next(got), expected[node], f"total[{node}]")
        for leaf in self.live:
            checks.equal(next(got), leaf[2] + expected[leaf[1]], f"leaf {leaf[0]} total")


async def _verify_live(client, readback: _Readback, checks: Checks) -> None:
    """Read the final state back over the wire (the in-memory server)."""

    async def fetch(iids: list[int], attr: str) -> list:
        values: list = []
        for first in range(0, len(iids), 50):
            reply = await client.run([["get_attr", iid, attr] for iid in iids[first : first + 50]])
            checks.expect(reply.committed, f"read-back failed: {reply.error}")
            values.extend(reply.results)
        return values

    weights = await fetch(readback.weights, "weight")
    readback.check(checks, weights, await fetch(readback.totals, "total"))


async def _verify_durable(spec: dict, spec_path: str, readback: _Readback, checks: Checks) -> dict:
    """Reopen the killed server's directory and compare it with what the
    clients were told."""
    with open(spec_path, "w") as handle:
        json.dump({**spec, "mode": "recover"}, handle)
    host = await _Host.spawn(spec_path)
    try:
        opened = await host.read()
        checks.expect(opened["clean"], "recovery dropped a torn or corrupt WAL tail")
        answer = await host.ask(
            cmd="read", exists=readback.exists, weights=readback.weights, totals=readback.totals
        )
    finally:
        await host.kill()
    load = readback.load
    for leaf, exists in zip(load.created, answer["exists"]):
        checks.equal(exists, leaf[0] not in load.deleted, f"created instance {leaf[0]} exists")
    checks.equal(
        answer["instances"], load.base_nodes + len(readback.live), "instances after recovery"
    )
    readback.check(checks, answer["weights"], answer["totals"])
    return {**opened, "rss_mb": answer["rss_mb"]}


async def _measure(
    host: _Host, load: _Load, streams, due, sat_s: float, traced: bool, name: str
) -> dict:
    """The two timed phases, with a server snapshot at each boundary."""
    m: dict = {"reference_rate": 0.0, "trace_report": None, "client_codec": None}
    if traced:
        # An untraced reference segment first, on the same warmed server,
        # so the tracing overhead is a ratio within one run.
        ref_s = sat_s * REFERENCE_SHARE
        ref_sink, ref_started = await _saturate(load, streams, ref_s)
        m["reference_rate"] = _rate(ref_sink, ref_started, ref_s)
        sat_s -= ref_s
        await host.ask(cmd="trace_on")
        m["client_codec"] = _ClientCodec()
    m["sat_s"] = sat_s
    m["snap_a"] = await host.ask(cmd="snap")
    committed = load.committed
    m["sat_sink"], sat_started = await _saturate(load, streams, sat_s)
    m["snap_b"] = await host.ask(cmd="snap")
    m["sat_commits"] = load.committed - committed
    m["sat_rate"] = _rate(m["sat_sink"], sat_started, sat_s)

    m["paced_sink"], m["lateness"] = await _paced(load, streams, due)
    m["unanswered"] = await load.drain()
    m["snap_c"] = await host.ask(cmd="snap")
    if traced:
        m["client_codec"].uninstall()
        m["trace_report"] = await host.ask(
            cmd="trace_off", path=os.path.join(OUT_DIR, f"trace-{name}.jsonl")
        )
    return m


async def _run(
    spec: dict, seed: int, seconds: float, traced: bool, corrupt: bool, server_cpu: int | None
) -> dict:
    from repro.client import AsyncReproClient

    checks = Checks(corrupt)
    name = spec["name"]
    work = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec_path = os.path.join(work, "spec.json")
    host_spec = {
        "durable": spec["durable"],
        "dir": os.path.join(work, "db"),
        "pool_capacity": spec["pool_capacity"],
        "projects": spec["projects"],
        "seed": seed,
        "cpu": server_cpu,
    }
    sat_s = seconds * SATURATE_SHARE
    paced_s = seconds - sat_s
    host: _Host | None = None
    clients: list = []
    try:
        setup_started = perf_counter()
        with open(spec_path, "w") as handle:
            json.dump(host_spec, handle)
        host = await _Host.spawn(spec_path)

        # Generated while the child loads: the same forest (for the shadow
        # model) and every stream, up front, from the seed.
        forest = gen.project_forest(seed, spec["projects"])
        nodes = len(forest.weights)
        zipf = gen.Zipf(nodes, spec["zipf_s"], seed, stratum=nodes // spec["projects"])
        per_conn = int(MAX_RATE_PER_CONNECTION * seconds) + WARMUP_TXNS
        templates = [
            gen.serving_stream(
                seed, f"conn-{conn}", per_conn, zipf, spec["block"], spec["reads_per_txn"]
            )
            for conn in range(CONNECTIONS)
        ]
        due = gen.poisson_schedule(seed, "paced", spec["paced_rate"], paced_s)
        digests = {
            f"conn-{conn}": gen.digest(stream) for conn, stream in enumerate(templates)
        }
        digests["paced"] = gen.digest(due)
        streams = [iter(stream) for stream in templates]

        ready = await host.read()
        for __ in range(CONNECTIONS):
            clients.append(await AsyncReproClient().connect(ready["host"], ready["port"]))
        load = _Load(clients, nodes)
        # Warm-up: a short closed-loop burst so both sides have run every
        # code path before anything is timed.
        warm = [itertools.islice(stream, WARMUP_TXNS // CONNECTIONS) for stream in streams]
        await _saturate(load, warm, seconds=30.0)
        setup_s = perf_counter() - setup_started

        m = await _measure(host, load, streams, due, sat_s, traced, name)

        # -- accounting -------------------------------------------------------
        server = m["snap_c"]["metrics"]
        checks.equal(m["unanswered"], 0, "transactions never answered")
        checks.equal(server["server.txns_in_flight"], 0, "server transactions in flight")
        checks.equal(
            server["server.txns_committed"], load.committed, "server commits vs client commits"
        )
        checks.equal(
            load.committed + load.failed + m["unanswered"],
            load.attempted,
            "every txn answered once",
        )

        readback = _Readback(forest, load, seed)
        if not spec["durable"]:
            await _verify_live(clients[0], readback, checks)
        for client in clients:
            await client.close()
        clients = []
        recovery = {"recovery_s": 0.0, "replayed": 0, "rss_mb": 0.0}
        if spec["durable"]:
            checks.expect(
                server["wal.fsyncs"] >= server["wal.commits_logged"],
                "a logged commit was not fsynced",
            )
            await host.kill()  # SIGKILL: no clean shutdown, no final flush
            recovery = await _verify_durable(host_spec, spec_path, readback, checks)
        else:
            stopped = await host.ask(cmd="quit")
            checks.equal(stopped["in_flight"], 0, "in flight at shutdown")
            await host.process.wait()
    finally:
        for client in clients:
            await client.close()
        if host is not None:
            await host.kill()
        shutil.rmtree(work, ignore_errors=True)

    result = _report(spec, m, ready["stages"], recovery, load, setup_s, paced_s)
    result.update(
        failed=load.failed + m["unanswered"],
        checks_run=checks.run,
        check_failures=checks.failures,
        digests=digests,
    )
    return result


def _report(spec, m, stages, recovery, load: _Load, setup_s: float, paced_s: float) -> dict:
    """Turn one run's samples and snapshots into metrics."""
    snap_a, snap_b, snap_c = m["snap_a"], m["snap_b"], m["snap_c"]
    sat_s, sat_commits = m["sat_s"], m["sat_commits"]
    sat = stats.summarize_ms([latency for __, latency in m["sat_sink"]])
    # The first third of the paced phase still works off what the saturate
    # phase left out of date; the median is over the settled rest.
    paced_sink = m["paced_sink"]
    settled = paced_sink[0][0] + paced_s * PACED_SETTLE_SHARE if paced_sink else 0.0
    paced = stats.summarize_ms([latency for at, latency in paced_sink if at >= settled])
    late = stats.summarize_ms(m["lateness"])
    # Timings at reference speed (bench/calib.py), by the kernel's pace
    # while the server was busy.
    measured, scaled = calib.at_reference(
        snap_b["spins"][len(snap_a["spins"]) :], m["sat_rate"], paced["p50"], sat["p90"]
    )
    end_to_end = {
        "setup_s": setup_s,
        **scaled,
        "peak_rss_mb": max(snap_c["rss_mb"], recovery["rss_mb"]),
    }
    extra = {
        "client.sat_p50_ms": sat["p50"],
        "client.sat_p99_ms": sat["p99"],
        "client.sat_p999_ms": sat["p999"],
        "client.paced_p95_ms": paced["p95"],
        "client.paced_p99_ms": paced["p99"],
        "client.paced_p999_ms": paced["p999"],
        "client.paced_late_p99_ms": late["p99"],
        "compile.freeze_s": stages["compile.freeze_s"],
        "persistence.checkpoint_s": stages["checkpoint_s"],
        "persistence.load_s": stages["load_s"] if spec["durable"] else 0.0,
        "persistence.recovery_s": recovery["recovery_s"],
        "persistence.replayed_records": recovery["replayed"],
    }
    cpu_s = snap_b["cpu_s"] - snap_a["cpu_s"]
    trace_delta = None
    if m["trace_report"] is not None:
        trace_delta = delta(snap_b["trace"], snap_a["trace"])
        decode_us, request_bytes = _decode_us(
            [{"t": "txn", "id": i, "ops": ops} for i, ops in enumerate(load.sample_requests)]
        )
        client_decode_us, response_bytes = _decode_us(load.sample_responses)
        # Busy time is CPU time plus the fsync waits (which burn no CPU but
        # block the single-threaded driver just the same).
        busy_s = cpu_s + trace_delta["self_s"]["persistence.fsync"]
        loop_us = 1e6 * (busy_s - sum(trace_delta["self_s"].values())) / sat_commits
        extra.update(
            {
                "client.codec_us_per_txn": m["client_codec"].encode_us() + client_decode_us,
                "server.protocol.decode_us_per_txn": decode_us,
                "server.protocol.bytes_per_txn": request_bytes + response_bytes,
                "server.loop_us_per_txn": loop_us,
                # What no measured function accounts for: the event loop
                # and the sockets, less the decode the replay prices.
                "harness.unattributed_us_per_op": loop_us - decode_us,
                "harness.trace_overhead_ratio": m["sat_rate"] / m["reference_rate"],
            }
        )
    per_layer = layers.metrics(
        counters=_delta(snap_b["metrics"], snap_a["metrics"]),
        per=sat_commits,
        trace=trace_delta,
        final=snap_c["metrics"],
        extra=extra,
    )
    result = {
        "end_to_end": end_to_end,
        "measured": measured,
        "per_layer": per_layer,
        "attempted": load.attempted,
        "counters": {
            "commits": load.committed,
            "restarts": load.restarts,
            "substituted_deletes": load.substituted,
            "created": len(load.created),
            "deleted": len(load.deleted),
            "instances": load.base_nodes,
        },
        "phases": {
            "setup_s": setup_s,
            "saturate_s": sat_s,
            "paced_s": paced_s,
            "paced_rate": spec["paced_rate"],
            **stages,
        },
        "samples": {
            "saturate": sat["n"],
            "paced": paced["n"],
            "saturate_supported_tail": sat["supported_tail"],
            "paced_supported_tail": paced["supported_tail"],
        },
        "extra": {
            "recovery_s": recovery["recovery_s"],
            "wal_bytes_per_txn": per_layer["persistence.wal_bytes_per_txn"],
            "restart_ratio": per_layer["txn.restart_ratio"],
            "server_busy_share": cpu_s / sat_s,
        },
    }
    if m["trace_report"] is not None:
        result["trace_report"] = m["trace_report"]
        result["server_busy_us_per_txn"] = 1e6 * busy_s / sat_commits
    return result


def _rate(sink: list[tuple[float, float]], started: float, seconds: float) -> float:
    """Committed transactions per second: the median half-second window."""
    return stats.window_rate([at for at, __ in sink], started, seconds, RATE_WINDOW_S)


def _delta(after: dict, before: dict) -> dict:
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


class _ClientCodec:
    """Times ``encode_frame`` as the client module binds it (traced runs)."""

    def __init__(self) -> None:
        import repro.client.client as client

        self.module, self.original = client, client.encode_frame
        self.seconds, self.calls = 0.0, 0

        def encode_frame(*args, **kwargs):
            started = perf_counter()
            try:
                return self.original(*args, **kwargs)
            finally:
                self.seconds += perf_counter() - started
                self.calls += 1

        client.encode_frame = encode_frame

    def uninstall(self) -> None:
        self.module.encode_frame = self.original

    def encode_us(self) -> float:
        return 1e6 * self.seconds / self.calls if self.calls else 0.0


def run(spec: dict, seed: int, seconds: float, traced: bool, corrupt: bool = False) -> dict:
    # Left alone, the scheduler now and then pulls the two processes onto
    # one CPU (they wake each other over loopback): runs then fell into a
    # second mode with the server 84 % busy instead of 99 %.  Give the
    # load generator and the server a CPU each.
    allowed = sorted(os.sched_getaffinity(0))
    cpus = (allowed[0], allowed[-1]) if len(allowed) > 1 else (None, None)
    try:
        if cpus[0] is not None:
            os.sched_setaffinity(0, {cpus[0]})
        return asyncio.run(_run(spec, seed, seconds, traced, corrupt, cpus[1]))
    finally:
        os.sched_setaffinity(0, allowed)

