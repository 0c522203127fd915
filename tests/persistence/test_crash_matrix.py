"""The crash matrix: recovery must land on a transaction boundary.

A deterministic workload of six durable events (commits and an Undo, with
an aborting transaction and derived-value reads interleaved) runs against
a durable database while a fault injector kills the process around a
chosen WAL append.  Recovery of the crashed directory must then fingerprint
identically to a never-crashed run of exactly the durable prefix --
instances, intrinsic values, connections, constraint outcomes, and
history all equal, never a mixture of two transactions.  A damaged
checkpoint image is refused with a ``StorageError``, never half-loaded.
"""

import json

import pytest

from repro.core.database import Database
from repro.errors import StorageError
from repro.persistence.checkpoint import write_checkpoint
from repro.persistence.faults import (
    CrashPoint,
    crash_after,
    crash_before,
    database_fingerprint,
    flip_record_bit,
    torn_write,
    truncate_tail,
)
from repro.persistence.manager import CHECKPOINT_NAME, PersistenceManager
from repro.storage.codec import load_database
from repro.workloads.topologies import build_chain, link, sum_node_schema

SCHEMA = sum_node_schema()


# ---------------------------------------------------------------------------
# the workload: six durable events (each is exactly one WAL append)
# ---------------------------------------------------------------------------


def _event_build(db):
    with db.transaction("build"):
        build_chain(db, 3, weight=2)  # iids 1, 2, 3


def _event_retune(db):
    # First a doomed transaction: its create consumes an instance id and its
    # write takes effect in memory, but the abort rolls both back and the
    # WAL never hears about it (aborts cost no durability I/O).
    with pytest.raises(RuntimeError):
        with db.transaction("doomed"):
            db.create("node", weight=99)  # consumes iid 4
            db.set_attr(1, "weight", 50)
            raise RuntimeError("abandon this transaction")
    with db.transaction("retune"):
        db.set_attr(1, "weight", 7)
        db.set_attr(3, "weight", 5)


def _event_extend(db):
    with db.transaction("extend"):
        new = db.create("node", weight=10)  # iid 5 (4 went to the doomed create)
        link(db, 3, new)
    # A derived read is not a durable event; it must not disturb the matrix.
    assert db.get_attr(new, "total") == 10 + db.get_attr(3, "total")


def _event_undo(db):
    db.undo()  # rolls back "extend": one durable undo record


def _event_regrow(db):
    with db.transaction("regrow"):
        new = db.create("node", weight=4)  # iid 6
        link(db, new, 1)


def _event_prune(db):
    with db.transaction("prune"):
        db.disconnect(3, "inputs", 2, "outputs")
        db.delete(3)


EVENTS = [
    _event_build,
    _event_retune,
    _event_extend,
    _event_undo,
    _event_regrow,
    _event_prune,
]
N = len(EVENTS)


def run_events(db, upto=N):
    for event in EVENTS[:upto]:
        event(db)


def clean_fingerprint(upto):
    """Fingerprint of a never-crashed, purely in-memory run of ``upto`` events."""
    db = Database(SCHEMA)
    run_events(db, upto)
    return database_fingerprint(db)


def crashed_run(directory, injector):
    """Drive the workload into an injected crash; returns appends survived."""
    db = Database.open(str(directory), SCHEMA, sync=False, injector=injector)
    with pytest.raises(CrashPoint):
        run_events(db)
    # The process is "dead": no close, no flush beyond what append did.
    return db.persistence.stats


def recover(directory):
    db = Database.open(str(directory), SCHEMA, sync=False)
    return db, db.persistence.stats.recovery


# ---------------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------------


class TestCrashMatrix:
    @pytest.mark.parametrize("k", range(1, N + 1))
    def test_crash_after_append_k_preserves_k_events(self, tmp_path, k):
        crashed_run(tmp_path / "db", crash_after(k))
        db, report = recover(tmp_path / "db")
        assert database_fingerprint(db) == clean_fingerprint(k)
        assert report.clean and report.replayed == k

    @pytest.mark.parametrize("k", range(1, N + 1))
    def test_crash_before_append_k_preserves_k_minus_1(self, tmp_path, k):
        crashed_run(tmp_path / "db", crash_before(k))
        db, report = recover(tmp_path / "db")
        assert database_fingerprint(db) == clean_fingerprint(k - 1)
        assert report.clean and report.replayed == k - 1

    @pytest.mark.parametrize("k", [1, 3, 4, N])
    @pytest.mark.parametrize("keep", [3, 20])
    def test_torn_write_drops_the_torn_record(self, tmp_path, k, keep):
        # keep=3 cuts inside the 8-byte frame header, keep=20 inside the
        # payload; both must scan as torn and truncate back to k-1 events.
        crashed_run(tmp_path / "db", torn_write(k, keep_bytes=keep))
        db, report = recover(tmp_path / "db")
        assert database_fingerprint(db) == clean_fingerprint(k - 1)
        assert report.dropped == "torn"
        assert report.truncated_bytes == keep
        assert report.replayed == k - 1

    def test_undo_record_is_durable(self, tmp_path):
        # Crash right after the undo append: the undone transaction must
        # stay undone after recovery (instance 5 gone, history popped).
        crashed_run(tmp_path / "db", crash_after(4))
        db, __ = recover(tmp_path / "db")
        assert not db.exists(5)
        assert [label for __, label, __ in database_fingerprint(db)["history"]] == [
            "build",
            "retune",
        ]

    def test_crash_leaves_wal_replayable_again(self, tmp_path):
        # Recovery is idempotent: recovering the same directory twice gives
        # the same state (the repair truncation converges).
        crashed_run(tmp_path / "db", torn_write(5, keep_bytes=11))
        db1, report1 = recover(tmp_path / "db")
        db1.close()
        db2, report2 = recover(tmp_path / "db")
        assert database_fingerprint(db1) == database_fingerprint(db2)
        assert not report1.clean and report2.clean


class TestPostHocCorruption:
    def _full_run(self, directory):
        db = Database.open(str(directory), SCHEMA, sync=False)
        run_events(db)
        db.close()

    def test_bit_flip_in_final_record_is_rejected_not_replayed(self, tmp_path):
        self._full_run(tmp_path / "db")
        flip_record_bit(str(tmp_path / "db" / "wal.log"), record=-1, byte=7, bit=1)
        db, report = recover(tmp_path / "db")
        assert database_fingerprint(db) == clean_fingerprint(N - 1)
        assert report.dropped == "crc"
        assert report.replayed == N - 1

    def test_truncated_tail_recovers_prefix(self, tmp_path):
        self._full_run(tmp_path / "db")
        truncate_tail(str(tmp_path / "db" / "wal.log"), 9)
        db, report = recover(tmp_path / "db")
        assert database_fingerprint(db) == clean_fingerprint(N - 1)
        assert report.dropped == "torn"

    def test_clean_shutdown_recovers_everything(self, tmp_path):
        self._full_run(tmp_path / "db")
        db, report = recover(tmp_path / "db")
        assert database_fingerprint(db) == clean_fingerprint(N)
        assert report.clean and report.replayed == N


class TestCheckpointRecovery:
    def test_checkpoint_then_tail_replay(self, tmp_path):
        db = Database.open(
            str(tmp_path / "db"), SCHEMA, sync=False, injector=crash_after(5)
        )
        run_events(db, 3)
        db.checkpoint()
        with pytest.raises(CrashPoint):
            for event in EVENTS[3:]:
                event(db)
        recovered, report = recover(tmp_path / "db")
        assert database_fingerprint(recovered) == clean_fingerprint(5)
        assert report.checkpoint_seq == 3
        assert report.replayed == 2  # only the post-checkpoint tail

    def test_crash_between_checkpoint_install_and_wal_truncation(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), SCHEMA, sync=False)
        run_events(db, 4)
        # Install the image but "die" before the WAL truncation: every WAL
        # record is now also in the image, and recovery must skip rather
        # than double-apply them.
        manager = db.persistence
        write_checkpoint(db, manager.checkpoint_path, manager.seq)
        recovered, report = recover(tmp_path / "db")
        assert database_fingerprint(recovered) == clean_fingerprint(4)
        assert report.checkpoint_seq == 4
        assert report.replayed == 0 and report.skipped == 4

    def test_checkpoint_shrinks_wal(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), SCHEMA, sync=False)
        run_events(db, 3)
        before = db.persistence.wal_bytes
        db.checkpoint()
        assert before > 0 and db.persistence.wal_bytes == 0
        db.close()


class TestContinuationAfterRecovery:
    def test_recovered_database_keeps_logging(self, tmp_path):
        crashed_run(tmp_path / "db", crash_after(2))
        db, __ = recover(tmp_path / "db")
        with db.transaction("post-recovery"):
            db.create("node", weight=11)
        db.close()
        again, report = recover(tmp_path / "db")
        assert report.clean and report.replayed == 3
        assert database_fingerprint(again) == database_fingerprint(db)

    def test_new_instance_ids_do_not_collide_with_replayed_ones(self, tmp_path):
        crashed_run(tmp_path / "db", crash_after(5))
        db, __ = recover(tmp_path / "db")
        with db.transaction("fresh"):
            fresh = db.create("node", weight=1)
        assert fresh == 7  # beyond every id the WAL ever mentioned (1-6)
        db.close()


class TestDurableConfiguration:
    def test_sync_true_fsyncs_every_commit(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), SCHEMA, sync=True)
        run_events(db, 2)
        assert db.persistence._wal.syncs == 2
        db.close()
        recovered, __ = recover(tmp_path / "db")
        assert database_fingerprint(recovered) == clean_fingerprint(2)

    def test_aborts_append_nothing(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), SCHEMA, sync=False)
        run_events(db, 2)  # includes the doomed transaction
        stats = db.persistence.stats
        assert stats.commits_logged == 2 and stats.undos_logged == 0
        assert db.persistence._wal.appended == 2
        db.close()

    def test_opening_fresh_directory_creates_empty_database(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), SCHEMA, sync=False)
        assert len(db) == 0
        assert db.persistence.stats.recovery.replayed == 0
        assert database_fingerprint(db) == clean_fingerprint(0)
        db.close()


# ---------------------------------------------------------------------------
# damaged checkpoint images
# ---------------------------------------------------------------------------


def _with_line(lines, index, edit):
    entry = json.loads(lines[index])
    edit(entry)
    return lines[:index] + [json.dumps(entry) + "\n"] + lines[index + 1 :]


#: damage name -> every damaged text it makes from the image's lines.
DAMAGES = {
    "cut_at_each_record_boundary": lambda lines: [
        "".join(lines[:k]) for k in range(len(lines))
    ],
    "cut_mid_line": lambda lines: [
        "".join(lines[:k]) + lines[k][: len(lines[k]) // 2]
        for k in range(len(lines))
    ],
    "non_json_line": lambda lines: [
        "".join(lines[:2] + ["{not json\n"] + lines[3:])
    ],
    "instance_without_class": lambda lines: [
        "".join(_with_line(lines, 1, lambda entry: entry.pop("class")))
    ],
    "missing_trailer": lambda lines: ["".join(lines[:-1])],
    "mismatched_trailer": lambda lines: [
        "".join(
            _with_line(lines, -1, lambda entry: entry["end"].update(instances=99))
        )
    ],
    "format_1": lambda lines: [
        json.dumps({"format": 1, "wal_seq": N, "image": {"instances": []}})
    ],
}


class TestDamagedCheckpoint:
    def _checkpointed(self, directory):
        db = Database.open(str(directory), SCHEMA, sync=False)
        run_events(db)
        db.checkpoint()
        db.close()
        return directory / CHECKPOINT_NAME

    def test_intact_checkpoint_recovers_everything(self, tmp_path):
        self._checkpointed(tmp_path / "db")
        db, report = recover(tmp_path / "db")
        assert database_fingerprint(db) == clean_fingerprint(N)
        assert report.checkpoint_seq == N and report.replayed == 0

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_image_is_a_storage_error(self, tmp_path, damage):
        path = self._checkpointed(tmp_path / "db")
        lines = path.read_text().splitlines(keepends=True)
        for text in DAMAGES[damage](lines):
            path.write_text(text)
            with pytest.raises(StorageError):
                Database.open(str(tmp_path / "db"), SCHEMA, sync=False)
            with pytest.raises(StorageError):
                load_database(str(path), SCHEMA)

    def test_failed_write_keeps_the_previous_checkpoint(self, tmp_path):
        db = Database.open(str(tmp_path / "db"), SCHEMA, sync=False)
        run_events(db, 3)
        db.checkpoint()
        path = tmp_path / "db" / CHECKPOINT_NAME
        before = path.read_bytes()
        db.instance(1).attrs["weight"] = object()  # not serialisable
        with pytest.raises(StorageError, match="not serialisable"):
            db.checkpoint()
        assert path.read_bytes() == before
        assert not (tmp_path / "db" / (CHECKPOINT_NAME + ".tmp")).exists()
