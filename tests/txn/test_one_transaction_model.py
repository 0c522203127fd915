"""One transaction model: embedded and served work share one id space.

A served transaction (a :class:`~repro.txn.manager.Session`'s, driven by
the multiplexer) and an embedded one (``db.transaction()``, autocommit)
are the same object: a delta in the transaction manager's live table,
numbered by the manager's one allocator, whose id is also the TO
timestamp.  ``DeltaCatalog`` and the version facility key deltas by that
id, so two committed transactions must never share one -- not across
served and embedded work, not across CC restarts and cancels, and not
across a checkpoint, an image or a WAL reopen (the allocator is saved
and recovered, so an undone transaction's id is not reused).

The guard at the bottom keeps the retired second model out of ``src/``:
no delta adoption into the manager and one transaction-id counter.
"""

import ast
import pathlib
import re

import pytest

import repro
from repro.core.database import Database
from repro.core.rules import Constraint, Local
from repro.errors import TransactionAborted, TransactionError
from repro.server.mux import SessionMultiplexer
from repro.storage.codec import load_database, save_database
from repro.txn.manager import MultiUserScheduler
from repro.workloads import build_chain, sum_node_schema

ROOT = pathlib.Path(repro.__file__).parent


def submit(mux, name, ops):
    return mux.submit(name, ops, on_done=lambda handle, outcome, detail: None)


def ids(db):
    return [delta.txn_id for delta in db.txn.history]


def test_embedded_and_served_work_share_one_id_space(tmp_path):
    path = str(tmp_path / "db")
    db = Database.open(path, sum_node_schema(), sync=False)
    nodes = build_chain(db, 2)
    with db.transaction("embedded"):
        db.set_attr(nodes[0], "weight", 4)

    mux = SessionMultiplexer(db)
    # Round-robin: the victim reads, the younger blocker writes, the
    # victim's write violates TO and restarts under a fresh id.
    victim = submit(
        mux,
        "victim",
        [["get_attr", nodes[0], "weight"], ["set_attr", nodes[0], "weight", 99]],
    )
    blocker = submit(mux, "blocker", [["set_attr", nodes[0], "weight", 7]])
    mux.step_batch(100)
    assert (victim.outcome, blocker.outcome) == ("committed", "committed")
    assert victim.restarts == 1
    doomed = submit(
        mux, "doomed", [["set_attr", nodes[1], "weight", 5], ["create", "node", {}]]
    )
    mux.step_batch(1)
    assert mux.cancel(doomed) is True
    assert db.metrics()["cc"]["transactions_started"] == 4
    assert db.txn.live == {}

    db.set_attr(nodes[1], "weight", 6)
    served = [victim.state.session.ts, blocker.state.session.ts]
    assert set(served) <= set(ids(db))
    db.checkpoint()
    db.close()

    db = Database.open(path, sum_node_schema(), sync=False)
    db.create("node", weight=1)
    with db.transaction("after"):
        db.set_attr(nodes[1], "weight", 8)
    history = ids(db)
    assert history == sorted(set(history)), history
    db.close()


def test_served_transaction_follows_embedded_work():
    db = Database(sum_node_schema())
    nodes = build_chain(db, 2)
    mux = SessionMultiplexer(db)
    submit(mux, "served", [["set_attr", nodes[0], "weight", 3]])
    mux.step_batch(10)
    assert ids(db) == [1, 2, 3, 4]


def test_session_outlives_a_caught_abort_under_the_same_id():
    schema = sum_node_schema()
    schema.unfreeze()
    schema.extend_class("node").add_constraint(
        Constraint("cap", {"t": Local("total")}, lambda t: t <= 100)
    )
    schema.freeze()
    db = Database(schema)
    a = db.create("node", weight=10)
    seen = []

    def script(session):
        with pytest.raises(TransactionAborted):
            session.set_attr(a, "weight", 500)
        session.set_attr(a, "weight", 20)
        seen.append(session.ts)
        yield

    result = MultiUserScheduler(db).run([("s", script)])
    assert result.committed == ["s"]
    assert ids(db) == [1, seen[0]]
    assert db.get_attr(a, "weight") == 20
    assert db.txn.live == {}


def test_checkpoint_waits_for_served_transactions(tmp_path):
    """A served write is visible before commit and an abort logs nothing,
    so an image taken between steps would make a cancelled write durable."""
    path = str(tmp_path / "db")
    db = Database.open(path, sum_node_schema(), sync=False)
    a = db.create("node", weight=1)
    mux = SessionMultiplexer(db)
    handle = submit(mux, "w", [["set_attr", a, "weight", 99], ["get_attr", a, "weight"]])
    mux.step_batch(1)
    with pytest.raises(TransactionError, match="live"):
        db.checkpoint()
    mux.cancel(handle)
    db.checkpoint()
    db.close()
    db = Database.open(path, sum_node_schema(), sync=False)
    assert db.get_attr(a, "weight") == 1
    db.close()


def _three_creates_and_an_undo(db):
    for weight in range(3):
        db.create("node", weight=weight)
    db.undo()


@pytest.mark.parametrize("checkpoint", [True, False], ids=["checkpoint", "wal"])
def test_reopen_does_not_reuse_an_undone_id(tmp_path, checkpoint):
    path = str(tmp_path / "db")
    db = Database.open(path, sum_node_schema(), sync=False)
    _three_creates_and_an_undo(db)
    if checkpoint:
        db.checkpoint()
    db.close()
    db = Database.open(path, sum_node_schema(), sync=False)
    db.create("node")
    assert ids(db) == [1, 2, 4]
    db.close()


def test_image_round_trip_does_not_reuse_an_undone_id(tmp_path):
    db = Database(sum_node_schema())
    _three_creates_and_an_undo(db)
    path = str(tmp_path / "image.json")
    save_database(db, path)
    loaded, header = load_database(path, sum_node_schema())
    assert header["next_txn_id"] == 4
    loaded.create("node")
    assert ids(loaded) == [1, 2, 4]


# ---------------------------------------------------------------------------
# guard: one model in src/
# ---------------------------------------------------------------------------

#: names of the retired second model: delta adoption into the manager and
#: the timestamp manager's own allocator.
RETIRED = {"adopt", "release", "_Adoption", "_adopted", "new_timestamp"}

#: the one site that bumps a transaction-id (timestamp) counter.
COUNTER_SITE = "txn/transaction.py:TransactionManager._open"


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text())


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    return None


def _is_id_counter(name):
    return name is not None and re.search(r"(txn_id|_ts|timestamp)$", name) is not None


def _bumps(func):
    """Targets of ``x += 1`` / ``x = y + 1`` that name a txn id or timestamp."""
    for node in ast.walk(func):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            targets = [node.target]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp):
            targets = node.targets
        else:
            continue
        if any(_is_id_counter(_name(target)) for target in targets):
            yield node


def test_no_delta_adoption_under_src():
    offenders = sorted(
        f"{module}:{node.lineno} {_name(node)}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Call) and _name(node.func) in RETIRED)
        or (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in RETIRED)
    )
    assert not offenders, offenders


def test_exactly_one_transaction_id_counter():
    sites = set()
    for module, tree in _modules():
        for owner in ast.walk(tree):
            if not isinstance(owner, ast.ClassDef):
                continue
            for func in owner.body:
                if isinstance(func, ast.FunctionDef) and any(_bumps(func)):
                    sites.add(f"{module}:{owner.name}.{func.name}")
    assert sites == {COUNTER_SITE}
