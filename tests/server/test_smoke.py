"""End-to-end server tests over real sockets.

The headline test drives 16 concurrent client connections through a full
workload and asserts *exact* accounting: every submitted transaction is answered exactly once,
nothing is lost or duplicated, and the server's own counters agree with
the clients' tallies.  The rest covers the serving edges: abrupt
disconnect mid-transaction, admission rejection, per-connection
pipelining, the connection cap, and protocol errors.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.client import AsyncReproClient, ReproClient, ServerError, TxnBuilder
from repro.core.database import Database
from repro.server.mux import ServerConfig
from repro.server.protocol import ProtocolError, encode_frame, recv_frame
from repro.server.server import ReproServer, ServerThread, _Connection
from repro.workloads import sum_node_schema


def build_db() -> Database:
    return Database(sum_node_schema(), pool_capacity=256)


def wait_until(predicate, timeout: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def test_sixteen_concurrent_clients_exact_accounting():
    clients, txns_each = 16, 3
    db = build_db()
    results: list = []

    def worker(worker_id: int) -> None:
        with ReproClient(*address) as client:
            for t in range(txns_each):
                txn = TxnBuilder()
                a = txn.create("node", weight=worker_id + 1)
                b = txn.create("node", weight=t + 1)
                txn.connect(a, "outputs", b, "inputs")
                txn.get_attr(b, "total")
                results.append((worker_id, t, client.run(txn)))

    with ServerThread(db) as thread:
        address = thread.address
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

        with ReproClient(*address) as probe:
            server = probe.metrics()["server"]

    submitted = clients * txns_each
    # Every transaction answered exactly once, and every one committed.
    assert len(results) == submitted
    assert all(r.committed for _, _, r in results)
    # No lost or duplicated work: every create produced a distinct iid,
    # and each derived total reflects exactly its own two-node chain.
    iids = [iid for _, _, r in results for iid in r.results[:2]]
    assert len(iids) == len(set(iids)) == 2 * submitted
    for worker_id, t, r in results:
        assert r.results[3] == (worker_id + 1) + (t + 1)
    # The server's books match the clients' tally exactly.
    assert server["txns_submitted"] == submitted
    assert server["txns_committed"] == submitted
    assert server["txns_failed"] == 0
    assert server["txns_rejected"] == 0
    assert server["txns_cancelled"] == 0
    assert server["txns_in_flight"] == 0
    assert server["connections_accepted"] == clients + 1  # + the probe


def test_abrupt_disconnect_mid_transaction_rolls_back_and_releases():
    db = build_db()
    with ServerThread(db) as thread:
        thread.pause()  # hold the scheduler so the txn stays mid-flight
        raw = socket.create_connection(thread.address)
        raw.sendall(
            encode_frame(
                {
                    "t": "txn",
                    "id": 1,
                    "ops": [["create", "node", {"weight": 7}]] * 10,
                }
            )
        )
        with ReproClient(*thread.address) as probe:
            wait_until(
                lambda: probe.metrics()["server"]["txns_in_flight"] == 1,
                what="transaction admission",
            )
            raw.close()  # abrupt disconnect: no goodbye frame
            wait_until(
                lambda: probe.metrics()["server"]["txns_cancelled"] == 1,
                what="disconnect teardown",
            )
            thread.resume()
            # The engine is clean: nothing in flight, and new work commits.
            server = probe.metrics()["server"]
            assert server["txns_in_flight"] == 0
            txn = TxnBuilder()
            txn.create("node", weight=1)
            assert probe.run(txn).committed


def test_admission_rejection_answers_rejected():
    db = build_db()
    config = ServerConfig(max_inflight=1)

    async def go(address):
        async with AsyncReproClient() as client:
            await client.connect(*address)
            futures = [
                await client.submit(
                    [["create", "node", {"weight": i + 1}]]
                )
                for i in range(3)
            ]
            # Frames on one connection dispatch in order, so a metrics
            # round-trip proves all three txns hit admission control
            # before the scheduler is allowed to retire the first one.
            assert (await client.metrics())["server"]["txns_in_flight"] == 1
            thread.resume()
            frames = await asyncio.gather(*futures)
            return [f["status"] for f in frames]

    with ServerThread(db, config) as thread:
        thread.pause()  # first txn is admitted but cannot finish...
        statuses = asyncio.run(go(thread.address))
    # ...so the other two bounce off admission control immediately.
    assert sorted(statuses) == ["committed", "rejected", "rejected"]


def test_async_client_pipelines_many_txns_on_one_connection():
    db = build_db()

    async def go(address):
        async with AsyncReproClient() as client:
            await client.connect(*address)
            await client.ping()
            futures = []
            for i in range(20):
                txn = TxnBuilder()
                iid = txn.create("node", weight=i)
                txn.get_attr(iid, "weight")
                futures.append(await client.submit(txn))
            frames = await asyncio.gather(*futures)
            return frames

    with ServerThread(db) as thread:
        frames = asyncio.run(go(thread.address))
    assert [f["status"] for f in frames] == ["committed"] * 20
    assert [f["results"][1] for f in frames] == list(range(20))
    # Responses matched to requests by id even if completion reordered.
    assert len({f["id"] for f in frames}) == 20


def test_connection_cap_rejects_with_error_frame():
    db = build_db()
    with ServerThread(db, ServerConfig(max_connections=1)) as thread:
        first = ReproClient(*thread.address)
        first.ping()  # occupy the one slot
        second = socket.create_connection(thread.address)
        frame = recv_frame(second)
        assert frame["t"] == "error" and "capacity" in frame["error"]
        assert second.recv(1) == b""  # server hung up
        second.close()
        first.close()

        def slot_free() -> bool:  # the FIN races the next connect
            try:
                with ReproClient(*thread.address) as third:
                    third.ping()
                return True
            except (ServerError, ProtocolError):
                return False

        wait_until(slot_free, what="connection slot release")


def test_unknown_request_type_answers_error_frame():
    db = build_db()
    with ServerThread(db) as thread:
        sock = socket.create_connection(thread.address)
        sock.sendall(encode_frame({"t": "bogus", "id": 9}))
        frame = recv_frame(sock)
        assert frame == {"t": "error", "id": 9, "error": "unknown request type 'bogus'"}
        # The connection survives a bad request type...
        sock.sendall(encode_frame({"t": "ping", "id": 10}))
        assert recv_frame(sock) == {"t": "pong", "id": 10}
        # ...but not a malformed op list answered by validation.
        sock.sendall(encode_frame({"t": "txn", "id": 11, "ops": []}))
        frame = recv_frame(sock)
        assert frame["t"] == "error" and "non-empty" in frame["error"]
        sock.close()


def test_oversized_response_degrades_to_error_and_serving_continues():
    """REVIEW regression: requests are capped, responses are not -- a txn
    of small get_attr ops over a large stored value builds a result frame
    over the limit.  That must answer an in-band error frame, never kill
    the driver task (which would silently halt serving for every client).
    """
    db = build_db()
    big = int("9" * 3000)  # a ~3 KB integer: one copy fits a request...
    with ServerThread(db, ServerConfig(max_frame_bytes=4096)) as thread:
        with ReproClient(*thread.address, timeout=10) as client:
            setup = TxnBuilder()
            setup.create("node", weight=big)
            stored = client.run(setup)
            assert stored.committed
            iid = stored.results[0]
            # ...but two copies in one response exceed the frame limit.
            with pytest.raises(ServerError, match="response dropped"):
                client.run([["get_attr", iid, "weight"]] * 2)
            # The driver survived: the same connection keeps being served.
            client.ping()
            follow_up = TxnBuilder()
            follow_up.create("node", weight=1)
            assert client.run(follow_up).committed
            server = client.metrics()["server"]
    # The oversized transaction itself committed; only its answer dropped.
    assert server["txns_committed"] == 3
    assert server["txns_in_flight"] == 0


def test_teardown_reclaims_capacity_when_sender_is_stuck():
    """REVIEW regression: a sender wedged in drain() against a stalled
    peer used to make teardown skip its accounting, leaking the
    connection-capacity budget until the server rejected everyone."""
    db = build_db()

    class _InertWriter:
        def close(self):
            pass

        async def wait_closed(self):
            pass

    async def go():
        server = ReproServer(db, ServerConfig(drain_timeout=0.05))
        conn = _Connection(1, _InertWriter())
        server._conns[1] = conn
        server.mux.connections_open += 1
        # A sender that never drains, standing in for a stalled peer.
        sender = asyncio.ensure_future(asyncio.sleep(60))
        await server._teardown(conn, sender)
        assert sender.done()
        assert server.mux.connections_open == 0
        assert server.mux.connections_closed == 1
        assert 1 not in server._conns

    asyncio.run(go())


def test_failed_transaction_reports_reason_and_restarts_field():
    db = build_db()
    with ServerThread(db) as thread:
        with ReproClient(*thread.address) as client:
            result = client.run([["create", "nope", {}]])
    assert result.status == "failed"
    assert not result.committed
    assert "nope" in result.error
    assert result.restarts == 0
    assert result.results == []
