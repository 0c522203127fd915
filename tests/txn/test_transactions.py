"""Transaction lifecycle, autocommit, and the Undo meta-action."""

import pytest

from repro.core.database import Database
from repro.errors import TransactionError
from repro.txn.log import SetAttrRecord
from repro.workloads import build_chain, link, sum_node_schema


class TestExplicitTransactions:
    def test_commit_keeps_changes(self, db):
        db.begin()
        iid = db.create("node", weight=3)
        db.commit()
        assert db.get_attr(iid, "weight") == 3

    def test_abort_discards_changes(self, db):
        base = db.create("node", weight=1)
        db.begin()
        other = db.create("node", weight=9)
        db.set_attr(base, "weight", 100)
        db.abort()
        assert db.get_attr(base, "weight") == 1
        assert not db.exists(other)

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.abort()

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_abort_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.abort()

    def test_context_manager_commits(self, db):
        with db.transaction():
            iid = db.create("node", weight=5)
        assert db.get_attr(iid, "weight") == 5

    def test_context_manager_aborts_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.create("node", weight=5)
                raise RuntimeError("boom")
        assert len(db) == 0

    def test_labels_recorded(self, db):
        db.begin("alpha")
        db.create("node")
        delta = db.commit()
        assert delta.label == "alpha"


class TestAutocommit:
    def test_each_primitive_is_a_transaction(self, db):
        db.create("node")
        db.create("node")
        assert len(db.txn.history) == 2

    def test_composite_primitive_is_one_transaction(self, db):
        a, b = db.create("node"), db.create("node")
        link(db, a, b)
        history_before = len(db.txn.history)
        db.delete(a)  # disconnect + delete: one autocommit transaction
        assert len(db.txn.history) == history_before + 1

    def test_undo_autocommitted_primitive(self, db):
        iid = db.create("node", weight=2)
        db.set_attr(iid, "weight", 9)
        db.undo()
        assert db.get_attr(iid, "weight") == 2


class TestUndo:
    def test_undo_without_history_rejected(self, db):
        with pytest.raises(TransactionError):
            db.undo()

    def test_undo_during_transaction_rejected(self, db):
        db.begin()
        db.create("node")
        with pytest.raises(TransactionError):
            db.undo()
        db.abort()

    def test_undo_walks_history_backwards(self, db):
        iid = db.create("node", weight=1)
        db.set_attr(iid, "weight", 2)
        db.set_attr(iid, "weight", 3)
        db.undo()
        assert db.get_attr(iid, "weight") == 2
        db.undo()
        assert db.get_attr(iid, "weight") == 1
        db.undo()  # undoes the create
        assert not db.exists(iid)

    def test_undo_structural_change(self, db):
        a, b = db.create("node", weight=1), db.create("node", weight=2)
        link(db, a, b)
        assert db.get_attr(b, "total") == 3
        db.undo()
        assert db.get_attr(b, "total") == 2
        assert db.view(b).connections("inputs") == []

    def test_undo_delete_restores_connections_and_values(self, db):
        nodes = build_chain(db, 3)
        assert db.get_attr(nodes[2], "total") == 3
        db.delete(nodes[1])
        assert db.get_attr(nodes[2], "total") == 1
        db.undo()
        assert db.exists(nodes[1])
        assert db.view(nodes[1]).connections("inputs") == [nodes[0]]
        assert db.get_attr(nodes[2], "total") == 3

    def test_undo_restores_connection_order(self, db):
        hub = db.create("node")
        ups = [db.create("node", weight=i) for i in range(3)]
        for u in ups:
            db.connect(hub, "inputs", u, "outputs")
        db.disconnect(hub, "inputs", ups[1], "outputs")
        db.undo()
        assert db.view(hub).connections("inputs") == ups

    def test_undo_of_multi_record_transaction(self, db):
        a = db.create("node", weight=1)
        db.begin()
        b = db.create("node", weight=2)
        link(db, a, b)
        db.set_attr(a, "weight", 50)
        db.commit()
        assert db.get_attr(b, "total") == 52
        db.undo()
        assert db.get_attr(a, "weight") == 1
        assert not db.exists(b)

    def test_read_only_transaction_leaves_no_trace(self, db):
        """A transaction that records nothing enters no history: Undo after
        it undoes the last writer, not the empty delta."""
        iid = db.create("node", weight=1)
        db.set_attr(iid, "weight", 5)
        commits = db.txn.commits
        with db.transaction("look"):
            assert db.get_attr(iid, "weight") == 5
        assert db.txn.commits == commits + 1
        assert [len(delta) for delta in db.txn.history] == [1, 1]
        db.undo()
        assert db.get_attr(iid, "weight") == 1

    def test_read_only_transaction_costs_no_durability_io(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), sum_node_schema(), sync=True)
        iid = db.create("node", weight=1)
        db.set_attr(iid, "weight", 5)
        wal = db.metrics()["wal"]
        with db.transaction("look"):
            db.get_attr(iid, "weight")
        after = db.metrics()["wal"]
        assert (after["wal_bytes"], after["fsyncs"]) == (wal["wal_bytes"], wal["fsyncs"])
        assert after["commits_logged"] == 2
        db.close()

    def test_unlimited_by_default(self):
        db = Database(sum_node_schema())
        iid = db.create("node")
        for value in range(20):
            db.set_attr(iid, "weight", value + 1)
        assert len(db.txn.history) == 21  # create + 20 sets

    def test_undo_ripple_correctness(self, db):
        """Undo restores values whose ripple was far larger than the delta."""
        nodes = build_chain(db, 100)
        original = db.get_attr(nodes[-1], "total")
        db.set_attr(nodes[0], "weight", 1000)
        assert db.get_attr(nodes[-1], "total") == original + 999
        db.undo()
        assert db.get_attr(nodes[-1], "total") == original


class TestDeltaEconomy:
    """E6: delta size proportional to the *initial* changes, not the ripple."""

    def test_delta_one_record_regardless_of_ripple(self, db):
        nodes = build_chain(db, 500)
        db.get_attr(nodes[-1], "total")
        db.begin()
        db.set_attr(nodes[0], "weight", 77)  # ripples through 500 nodes
        delta = db.commit()
        assert delta.records == [SetAttrRecord(nodes[0], "weight", 1, 77)]

    def test_delta_size_scales_with_primitive_count_only(self, db):
        sizes = {}
        for chain_len in (10, 300):
            nodes = build_chain(db, chain_len)
            db.get_attr(nodes[-1], "total")
            db.begin()
            db.set_attr(nodes[0], "weight", 42)
            sizes[chain_len] = db.commit().size_estimate()
        assert sizes[10] == sizes[300]
