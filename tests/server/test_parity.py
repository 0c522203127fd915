"""Property: serving a workload live produces exactly the batch outcomes.

The server path (admit transactions one by one into the
:class:`SessionMultiplexer`, then step the live scheduler to drain) and
the classic batch path (:meth:`MultiUserScheduler.run` over the same op
lists) must agree on *everything*: which transactions committed and which
failed (with the same reasons), how many CC restarts happened, every
per-op result, and the final durable state of the database.  Hypothesis
generates adversarial workloads -- overlapping writers and readers over a
shared pool of instances plus per-transaction creates.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.persistence.faults import database_fingerprint
from repro.server.mux import SessionMultiplexer
from repro.server.txnscript import scripts_for_workload
from repro.txn.manager import MultiUserScheduler
from repro.workloads import sum_node_schema


def build_db() -> tuple[Database, list[int]]:
    """A fresh database with 4 shared nodes."""
    db = Database(sum_node_schema(), pool_capacity=128)
    shared = [db.create("node", weight=w) for w in (1, 2, 3, 4)]
    db.connect(shared[0], "outputs", shared[1], "inputs")
    db.connect(shared[1], "outputs", shared[2], "inputs")
    return db, shared


# -- workload generation ----------------------------------------------------

_slot = st.integers(min_value=0, max_value=3)  # index into the shared pool
_value = st.integers(min_value=-5, max_value=50)

_op = st.one_of(
    st.tuples(st.just("set_attr"), _slot, _value),
    st.tuples(st.just("get_attr"), _slot, st.sampled_from(["weight", "total"])),
    st.tuples(st.just("create"), _value),
)

_txn = st.lists(_op, min_size=1, max_size=5)
_workload = st.lists(_txn, min_size=2, max_size=5)


def materialize(txns, shared) -> list[tuple[str, list]]:
    """Turn generated op tuples into concrete wire op lists."""
    workload = []
    for t, txn in enumerate(txns):
        ops = []
        for op in txn:
            if op[0] == "set_attr":
                ops.append(["set_attr", shared[op[1]], "weight", op[2]])
            elif op[0] == "get_attr":
                ops.append(["get_attr", shared[op[1]], op[2]])
            else:
                ops.append(["create", "node", {"weight": op[1]}])
        workload.append((f"t{t}", ops))
    return workload


def run_batch(db, workload):
    scheduler = MultiUserScheduler(db)
    triples = scripts_for_workload(workload)
    result = scheduler.run((name, script) for name, script, _ in triples)
    return result, {name: results for name, _, results in triples}


def run_live(db, workload):
    """The server path: submit everything, then drain the live scheduler."""
    mux = SessionMultiplexer(db)
    outcomes: dict[str, tuple[str, str | None]] = {}
    handles = []
    for name, ops in workload:
        handle = mux.submit(
            name,
            ops,
            on_done=lambda h, outcome, detail: outcomes.__setitem__(
                h.name, (outcome, detail)
            ),
        )
        assert handle is not None
        handles.append(handle)
    while mux.step_batch(64):
        pass
    return mux, outcomes, {h.name: h.results for h in handles}


@settings(max_examples=40, deadline=None)
@given(txns=_workload)
def test_live_serving_equals_batch_run(txns):
    db_a, shared_a = build_db()
    db_b, shared_b = build_db()
    assert shared_a == shared_b

    workload_a = materialize(txns, shared_a)
    workload_b = materialize(txns, shared_b)
    batch, batch_results = run_batch(db_a, workload_a)
    mux, live_outcomes, live_results = run_live(db_b, workload_b)

    # Identical commit/fail verdicts, in the same commit order...
    live_committed = [n for n, _ in workload_b if live_outcomes[n][0] == "committed"]
    assert set(batch.committed) == set(live_committed)
    assert batch.failed == {
        name: detail
        for name, (outcome, detail) in live_outcomes.items()
        if outcome == "failed"
    }
    assert not batch.cancelled and mux.txns_cancelled == 0
    # ... the same restart count (same interleaving, same conflicts) ...
    assert batch.restarts == mux.scheduler.total_restarts
    # ... the same per-op results for every committed transaction ...
    for name in batch.committed:
        assert batch_results[name] == live_results[name]
    # ... and bit-identical durable state.
    assert database_fingerprint(db_a) == database_fingerprint(db_b)
