"""Version stream tests (experiment E10)."""

import pytest

from repro.core.database import Database
from repro.errors import VersionError
from repro.persistence.faults import database_fingerprint
from repro.versions import VersionStream
from repro.workloads import build_chain, sum_node_schema


@pytest.fixture
def versioned(db):
    stream = VersionStream(db)
    nodes = build_chain(db, 4)
    stream.tag("v1")
    return db, stream, nodes


class TestTagging:
    def test_tag_collects_pending_deltas(self, versioned):
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 5)
        db.set_attr(nodes[1], "weight", 6)
        version = stream.tag("v2")
        assert version.record_count() == 2
        assert stream.pending == []

    def test_duplicate_name_rejected(self, versioned):
        __, stream, __ = versioned
        with pytest.raises(VersionError):
            stream.tag("v1")

    def test_lineage(self, versioned):
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 5)
        stream.tag("v2")
        assert stream.lineage("v2") == [0, 1, 2]


class TestCheckout:
    def test_round_trip(self, versioned):
        db, stream, nodes = versioned
        original = db.get_attr(nodes[-1], "total")
        db.set_attr(nodes[0], "weight", 100)
        stream.tag("v2")
        stream.checkout("v1")
        assert db.get_attr(nodes[-1], "total") == original
        stream.checkout("v2")
        assert db.get_attr(nodes[-1], "total") == original + 99

    def test_checkout_to_current_is_noop(self, versioned):
        db, stream, nodes = versioned
        value = db.get_attr(nodes[-1], "total")
        stream.checkout("v1")
        assert db.get_attr(nodes[-1], "total") == value

    def test_checkout_blocked_by_pending(self, versioned):
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 9)
        with pytest.raises(VersionError, match="pending"):
            stream.checkout("v1")

    def test_checkout_discard_pending(self, versioned):
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 9)
        stream.checkout("v1", discard_pending=True)
        assert db.get_attr(nodes[0], "weight") == 1

    def test_undone_work_is_not_tagged(self, versioned):
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 5)
        db.undo()
        assert stream.pending == []
        stream.tag("v2")
        stream.checkout("v1")
        stream.checkout("v2")
        assert db.get_attr(nodes[0], "weight") == 1

    def test_structural_changes_cross_versions(self, versioned):
        db, stream, nodes = versioned
        db.delete(nodes[1])
        stream.tag("pruned")
        assert not db.exists(nodes[1])
        stream.checkout("v1")
        assert db.exists(nodes[1])
        assert db.get_attr(nodes[-1], "total") == 4
        stream.checkout("pruned")
        assert not db.exists(nodes[1])

    def test_unknown_version_rejected(self, versioned):
        __, stream, __ = versioned
        with pytest.raises(VersionError):
            stream.checkout("ghost")
        with pytest.raises(VersionError):
            stream.version(99)


class TestUndoOfTaggedWork:
    """Undo takes back untagged work only: a delta frozen into a version is
    what ``current`` names, so undoing it would leave the stream stale and
    a later checkout would replay its inverse a second time."""

    def _refused(self, db, stream):
        history, current = list(db.txn.history), stream.current
        before = database_fingerprint(db)
        with pytest.raises(VersionError, match="check out an earlier version"):
            db.undo()
        assert db.txn.history == history and stream.current == current
        assert database_fingerprint(db) == before

    def test_undo_of_a_tagged_set_is_refused(self):
        db = Database(sum_node_schema())
        stream = VersionStream(db)
        a = db.create("node", weight=1)
        stream.tag("v1")
        db.set_attr(a, "weight", 5)
        stream.tag("v2")
        self._refused(db, stream)
        assert db.get_attr(a, "weight") == 5
        stream.checkout("v1")
        assert db.get_attr(a, "weight") == 1
        stream.checkout("v2")
        assert db.get_attr(a, "weight") == 5

    def test_undo_of_a_tagged_create_is_refused(self):
        db = Database(sum_node_schema())
        stream = VersionStream(db)
        a = db.create("node", weight=1)
        stream.tag("v1")
        b = db.create("node", weight=2)
        db.connect(b, "inputs", a, "outputs")
        stream.tag("v2")
        self._refused(db, stream)
        assert db.instance_ids() == [a, b]
        stream.checkout("v1")
        assert db.instance_ids() == [a]
        stream.checkout("v2")
        assert db.instance_ids() == [a, b]
        assert db.get_attr(b, "total") == 3

    def test_undo_after_a_checkout_is_refused(self, versioned):
        """History still ends with the work a checkout walked away from."""
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 7)
        stream.tag("v2")
        stream.checkout("v1")
        self._refused(db, stream)
        assert db.get_attr(nodes[0], "weight") == 1

    def test_untagged_work_is_still_undone(self, versioned):
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 5)
        db.set_attr(nodes[1], "weight", 6)
        db.undo()
        db.undo()
        assert stream.pending == []
        assert db.get_attr(nodes[-1], "total") == 4
        self._refused(db, stream)


class TestDurableCheckout:
    def test_checkout_survives_reopen(self, tmp_path):
        """A checkout's replay reaches the disk: reopening lands on the
        checked-out version plus what was committed after it."""
        path = str(tmp_path / "db")
        db = Database.open(path, sum_node_schema(), sync=False)
        stream = VersionStream(db)
        db.create("node", weight=1)
        stream.tag("v1")
        db.create("node", weight=2)
        stream.tag("v2")
        stream.checkout("v1")
        db.create("node", weight=3)
        assert db.instance_ids() == [1, 3]
        live = database_fingerprint(db)
        db.persistence.close()
        reopened = Database.open(path, sum_node_schema(), sync=False)
        assert reopened.instance_ids() == [1, 3]
        assert database_fingerprint(reopened) == live
        reopened.close()

    def test_discarding_pending_work_survives_reopen(self, tmp_path):
        path = str(tmp_path / "db")
        db = Database.open(path, sum_node_schema(), sync=False)
        stream = VersionStream(db)
        iid = db.create("node", weight=1)
        stream.tag("v1")
        db.set_attr(iid, "weight", 9)
        stream.checkout("v1", discard_pending=True)
        db.close()
        reopened = Database.open(path, sum_node_schema(), sync=False)
        assert reopened.get_attr(iid, "weight") == 1
        reopened.close()


class TestBranching:
    def test_branch_from_old_version(self, versioned):
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 100)
        stream.tag("v2")
        stream.checkout("v1")
        db.set_attr(nodes[1], "weight", 50)
        branch = stream.tag("branch")
        assert branch.parent == stream.version("v1").version_id
        assert sorted(v.name for v in stream.tips()) == ["branch", "v2"]

    def test_cross_branch_checkout(self, versioned):
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 100)
        stream.tag("v2")
        stream.checkout("v1")
        db.set_attr(nodes[1], "weight", 50)
        stream.tag("branch")
        stream.checkout("v2")
        assert db.get_attr(nodes[0], "weight") == 100
        assert db.get_attr(nodes[1], "weight") == 1
        stream.checkout("branch")
        assert db.get_attr(nodes[0], "weight") == 1
        assert db.get_attr(nodes[1], "weight") == 50

    def test_distance_counts_replayed_records(self, versioned):
        db, stream, nodes = versioned
        db.set_attr(nodes[0], "weight", 2)
        stream.tag("v2")
        db.set_attr(nodes[0], "weight", 3)
        db.set_attr(nodes[1], "weight", 3)
        stream.tag("v3")
        assert stream.distance("v1", "v2") == 1
        assert stream.distance("v1", "v3") == 3
        assert stream.distance("v3", "v3") == 0


class TestDeltaEconomyAcrossVersions:
    def test_version_size_independent_of_ripple(self, db):
        stream = VersionStream(db)
        nodes = build_chain(db, 200)
        db.get_attr(nodes[-1], "total")
        stream.tag("base")
        db.set_attr(nodes[0], "weight", 7)  # ripples through 200 nodes
        version = stream.tag("tweak")
        assert version.record_count() == 1
        assert version.change_size() < 200
