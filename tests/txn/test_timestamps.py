"""Basic timestamp-ordering protocol unit tests."""

import pytest

from repro.core.database import Database
from repro.errors import ConcurrencyAbort
from repro.txn.manager import Session
from repro.txn.timestamps import TimestampManager
from repro.workloads import sum_node_schema


class TestProtocol:
    def test_timestamps_monotonic(self):
        txn = Database(sum_node_schema()).txn
        assert txn.start() < txn.start()

    def test_read_after_older_write_ok(self):
        tsm = TimestampManager()
        t1, t2 = 1, 2
        tsm.check_write(t1, 7)
        tsm.check_read(t2, 7)  # younger reads older write: fine

    def test_read_of_younger_write_aborts(self):
        tsm = TimestampManager()
        t1, t2 = 1, 2
        tsm.check_write(t2, 7)
        with pytest.raises(ConcurrencyAbort):
            tsm.check_read(t1, 7)

    def test_write_after_younger_read_aborts(self):
        tsm = TimestampManager()
        t1, t2 = 1, 2
        tsm.check_read(t2, 7)
        with pytest.raises(ConcurrencyAbort):
            tsm.check_write(t1, 7)

    def test_write_after_younger_write_aborts(self):
        tsm = TimestampManager()
        t1, t2 = 1, 2
        tsm.check_write(t2, 7)
        with pytest.raises(ConcurrencyAbort):
            tsm.check_write(t1, 7)

    def test_serial_transaction_passes_all_checks(self):
        tsm = TimestampManager()
        t1 = 1
        tsm.check_read(t1, 1)
        tsm.check_write(t1, 1)
        tsm.check_read(t1, 1)
        t2 = 2
        tsm.check_read(t2, 1)
        tsm.check_write(t2, 1)

    def test_independent_instances_never_conflict(self):
        tsm = TimestampManager()
        t1, t2 = 1, 2
        tsm.check_write(t2, 1)
        tsm.check_write(t1, 2)  # different instance: fine

    def test_read_marks_advance_monotonically(self):
        tsm = TimestampManager()
        t1, t2, t3 = 1, 2, 3
        tsm.check_read(t3, 7)
        tsm.check_read(t1, 7)  # reading older is fine
        with pytest.raises(ConcurrencyAbort):
            tsm.check_write(t2, 7)  # t3 already read


class TestReadMarkRetraction:
    """Tracked read marks must retract *exactly*.  REVIEW regression: a
    max-only read mark made retraction lossy -- a young reader's teardown
    could erase all trace of an intermediate live reader, letting an older
    writer commit a non-serializable schedule."""

    def test_retraction_preserves_intermediate_reader(self):
        tsm = TimestampManager()
        t1, t2, t3, t4 = 1, 2, 3, 4
        tsm.check_read(t1, 7, track=True)
        tsm.check_read(t4, 7, track=True)  # journalled previous mark: t1
        tsm.check_read(t3, 7, track=True)  # intermediate; max stays t4
        tsm.retract_read(t4, 7, t1)  # t4's transaction is torn down
        with pytest.raises(ConcurrencyAbort):
            tsm.check_write(t2, 7)  # t3 is still a live reader

    def test_retracting_every_reader_frees_the_record(self):
        tsm = TimestampManager()
        t1, t2, t3 = 1, 2, 3
        tsm.check_read(t2, 7, track=True)
        tsm.check_read(t3, 7, track=True)
        tsm.retract_read(t3, 7, t2)
        tsm.retract_read(t2, 7, 0)
        tsm.check_write(t1, 7)  # no live reader left: the write is legal

    def test_confirmed_read_survives_later_retractions(self):
        tsm = TimestampManager()
        t1, t2, t3, t4 = 1, 2, 3, 4
        tsm.check_read(t3, 7, track=True)
        tsm.confirm_read(t3, 7)  # t3 committed: its read stands forever
        tsm.check_read(t4, 7, track=True)
        tsm.retract_read(t4, 7, t3)
        with pytest.raises(ConcurrencyAbort):
            tsm.check_write(t2, 7)

    def test_untracked_reads_are_never_retracted(self):
        tsm = TimestampManager()
        t1, t2, t3 = 1, 2, 3
        tsm.check_read(t2, 7)  # a batch (untracked) reader
        tsm.check_read(t3, 7, track=True)
        tsm.retract_read(t3, 7, t2)
        with pytest.raises(ConcurrencyAbort):
            tsm.check_write(t1, 7)  # t2's mark still stands

    def test_repeated_reads_by_one_transaction_balance(self):
        tsm = TimestampManager()
        t1, t2 = 1, 2
        tsm.check_read(t2, 7, track=True)
        tsm.check_read(t2, 7, track=True)
        tsm.retract_read(t2, 7, 0)
        with pytest.raises(ConcurrencyAbort):
            tsm.check_write(t1, 7)  # one journalled read remains
        tsm.retract_read(t2, 7, 0)
        tsm.check_write(t1, 7)


class TestSessionMarkJournal:
    """The mark journal spans restart attempts.  REVIEW regression:
    ``start()`` used to clear it on every (re)begin, so a transaction that
    restarted and was then cancelled left its earlier attempts' marks
    behind as permanent ghosts."""

    def test_cancel_after_restart_retracts_all_attempts_marks(self):
        tsm = TimestampManager()
        session = Session(Database(sum_node_schema()), tsm, "s", track_marks=True)
        session.start()
        session._check_write(7)
        session._check_read(8)
        session.start()  # CC restart: fresh timestamp, journal retained
        session._check_write(7)
        session.release_marks()  # client disconnect teardown
        assert tsm._marks[7].write_ts == 0
        assert tsm._marks[8].read_ts == 0

    def test_confirm_seals_marks_against_later_release(self):
        tsm = TimestampManager()
        session = Session(Database(sum_node_schema()), tsm, "s", track_marks=True)
        session.start()
        session._check_read(8)
        session.confirm_marks()  # terminal outcome: the marks stand
        session.release_marks()  # a later teardown must not retract them
        assert tsm._marks[8].read_ts == session.ts


class TestStats:
    def test_rejections_counted(self):
        tsm = TimestampManager()
        t1, t2 = 1, 2
        tsm.check_write(t2, 7)
        with pytest.raises(ConcurrencyAbort):
            tsm.check_read(t1, 7)
        assert tsm.stats.read_rejections == 1
        assert tsm.stats.abort_rate > 0

    def test_forget_instance_clears_marks(self):
        tsm = TimestampManager()
        t1, t2 = 1, 2
        tsm.check_write(t2, 7)
        tsm.forget_instance(7)
        tsm.check_read(t1, 7)  # marks gone: no conflict
