"""``python -m repro.server`` -- run a server, or the self-contained smoke check.

Plain mode binds a server over a fresh sum-node database and serves until
interrupted.  ``--smoke`` (what ``make server-check`` runs) starts a
:class:`~repro.server.server.ServerThread`, drives a burst of concurrent
client transactions -- including a deliberately failing one, an abrupt
disconnect half-way through a transaction's frame, and a whole frame
followed by a close -- asserts exact accounting, shuts down cleanly, and
exits non-zero on any discrepancy.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import threading
import time

from repro.core.database import Database
from repro.server.mux import ServerConfig
from repro.server.server import ServerThread, serve
from repro.workloads import sum_node_schema


def _smoke(config: ServerConfig) -> int:
    import socket

    from repro.client import ReproClient, TxnBuilder
    from repro.server.protocol import encode_frame

    db = Database(sum_node_schema(), pool_capacity=256)
    clients = 8
    txns_per_client = 4
    committed: list[int] = []
    failed: list[int] = []
    errors: list[str] = []

    with ServerThread(db, config) as thread:
        host, port = thread.address

        def worker(worker_id: int) -> None:
            try:
                with ReproClient(host, port) as client:
                    client.ping()
                    for t in range(txns_per_client):
                        txn = TxnBuilder()
                        a = txn.create("node", weight=worker_id)
                        b = txn.create("node", weight=t)
                        txn.connect(a, "outputs", b, "inputs")
                        txn.get_attr(b, "total")
                        result = client.run(txn)
                        if result.committed:
                            committed.append(worker_id)
                        else:
                            failed.append(worker_id)
            except Exception as exc:  # noqa: BLE001 - report, don't hang
                errors.append(f"worker {worker_id}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        # One transaction that must fail (unknown class aborts it) ...
        with ReproClient(host, port) as client:
            bad = client.run([["create", "no_such_class", {}]])
            if bad.status != "failed":
                errors.append(f"expected failed status, got {bad.status!r}")

        expected = clients * txns_per_client
        nodes = 2 * expected
        frame = encode_frame(
            {"t": "txn", "id": 1, "ops": [["create", "node", {"weight": 1}]] * 64}
        )
        with ReproClient(host, port) as client:

            def disconnect(payload: bytes) -> dict:
                """Send ``payload`` on a raw socket, close it, and return the
                server counters once the server has torn that connection
                down (its transaction, if any, committed or rolled back)."""
                closed = client.metrics()["server"]["connections_closed"]
                raw = socket.create_connection((host, port))
                raw.sendall(payload)
                raw.close()
                deadline = time.monotonic() + 30
                while True:
                    server = client.metrics()["server"]
                    if (
                        server["connections_closed"] > closed
                        and server["txns_in_flight"] == 0
                    ):
                        return server
                    if time.monotonic() > deadline:
                        errors.append("the server did not tear a closed socket down")
                        return server
                    time.sleep(0.01)

            # ... one abrupt disconnect mid-transaction, half a frame sent:
            # the server never sees the transaction, and nothing else moves.
            server = disconnect(frame[: len(frame) // 2])
            if server["txns_committed"] != expected:
                errors.append(
                    f"server counted {server['txns_committed']} commits, "
                    f"expected {expected}"
                )
            if len(db) != nodes:
                errors.append(f"{len(db) - nodes} stray nodes after a half frame")

            # ... and one whole frame, then a close: the server may commit
            # the transaction before it reads the EOF, or roll it back, but
            # never keep part of it.
            server = disconnect(frame)
            outcome = (server["txns_committed"], len(db) - nodes)
            if outcome not in ((expected + 1, 64), (expected, 0)):
                errors.append(
                    f"a closed whole frame left {outcome[0]} commits and "
                    f"{outcome[1]} new nodes: not all or nothing"
                )
            whole = "committed" if outcome[1] else "rolled back"

    if len(committed) != expected:
        errors.append(f"committed {len(committed)} of {expected} transactions")
    if failed:
        errors.append(f"unexpected failures from workers: {failed}")
    if errors:
        for line in errors:
            print(f"smoke: FAIL: {line}", file=sys.stderr)
        return 1
    print(
        f"smoke: ok ({expected} transactions committed over {clients} connections, "
        f"half frame dropped, closed whole frame {whole}, clean shutdown)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a Cactis database over the wire protocol.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--max-inflight", type=int, default=256, help="admission control limit"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="seeded scheduling order"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the self-contained smoke check and exit",
    )
    args = parser.parse_args(argv)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        seed=args.seed,
    )
    if args.smoke:
        return _smoke(config)
    db = Database(sum_node_schema(), pool_capacity=256)
    try:
        asyncio.run(serve(db, config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
