"""Regression: Session.create must check timestamps before acting.

The write primitives all follow check-then-act -- a timestamp-ordering
rejection aborts the operation before anything mutates.  ``create`` used to
be the one exception: it created the instance first and checked afterwards,
so a doomed create allocated an instance id, placed a record, and logged a
CreateRecord, all of which had to be unwound by the restart's rollback.
These tests pin the fixed ordering: a create that fails ``check_write``
leaves no trace at all.
"""

import pytest

from repro.core.database import Database
from repro.errors import ConcurrencyAbort
from repro.txn.manager import MultiUserScheduler, Session
from repro.txn.timestamps import TimestampManager
from repro.workloads import sum_node_schema


def doomed_session(db: Database) -> tuple[Session, TimestampManager]:
    """A session whose next create must be rejected by basic TO.

    A younger transaction (ts=50) has already read the state of the id the
    create would allocate, so an older writer (ts=1) violates ordering.
    """
    tsm = TimestampManager()
    tsm.check_read(50, db.next_instance_id)
    session = Session(db, tsm, "old")
    session.start()  # ts=1 < read_ts=50
    return session, tsm


def test_doomed_create_allocates_no_instance_id():
    db = Database(sum_node_schema())
    predicted = db.next_instance_id
    session, __ = doomed_session(db)
    with pytest.raises(ConcurrencyAbort):
        session.create("node", weight=3)
    assert db.next_instance_id == predicted
    assert len(db) == 0


def test_doomed_create_logs_nothing():
    db = Database(sum_node_schema())
    session, __ = doomed_session(db)
    with pytest.raises(ConcurrencyAbort):
        session.create("node")
    delta = db.txn.live.get(session.ts)
    assert delta is not None and len(delta) == 0
    # Rollback of the (empty) delta is a no-op rather than a cleanup.
    session.rollback()
    assert len(db) == 0


def test_successful_create_still_records_write_mark():
    db = Database(sum_node_schema())
    tsm = TimestampManager()
    session = Session(db, tsm, "s")
    session.start()
    db.txn.enter(session.ts)  # what a scheduler step does
    iid = session.create("node", weight=1)
    session.commit()
    # The write mark protects the created instance: an older reader must
    # now be rejected.
    with pytest.raises(ConcurrencyAbort):
        tsm.check_read(0, iid)


class TestFailedCreateRetractsItsMark:
    """Regression: a create that fails *validation* must unmark its target.

    ``Session.create`` records a provisional write mark on the id it is
    about to allocate.  When the create itself then fails (unknown class,
    bad atom type) the id was never consumed -- leaving the mark behind
    poisoned ``next_instance_id``, spuriously aborting whichever older
    transaction later allocated that id.
    """

    def test_failed_create_leaves_no_write_mark(self):
        db = Database(sum_node_schema())
        tsm = TimestampManager()
        older = Session(db, tsm, "older")
        older.start()  # ts=1
        younger = Session(db, tsm, "younger")
        younger.start()  # ts=2
        with pytest.raises(Exception) as excinfo:
            younger.create("no_such_class")
        assert not isinstance(excinfo.value, ConcurrencyAbort)
        # The older session now allocates the very id the failed create
        # targeted; a leftover ts=2 mark would abort it here.
        db.txn.enter(older.ts)
        iid = older.create("node", weight=1)
        older.commit()
        assert db.get_attr(iid, "weight") == 1

    def test_retraction_restores_the_previous_mark(self):
        db = Database(sum_node_schema())
        tsm = TimestampManager()
        target = db.next_instance_id
        tsm.check_write(3, target)  # pre-existing younger mark
        session = Session(db, tsm, "s")
        session.start()  # ts=1 -- doomed against the ts=3 mark
        with pytest.raises(ConcurrencyAbort):
            session.create("node")
        # A CC rejection happens before anything is marked: ts=3 survives.
        with pytest.raises(ConcurrencyAbort):
            tsm.check_read(2, target)

    def test_cc_rejection_is_not_swallowed_by_the_retraction_path(self):
        db = Database(sum_node_schema())
        session, tsm = doomed_session(db)
        with pytest.raises(ConcurrencyAbort):
            session.create("node", weight=3)
        # The younger reader's mark is intact.
        assert tsm._marks[db.next_instance_id].read_ts == 50


def test_scheduler_restart_still_converges_with_creates():
    db = Database(sum_node_schema())

    def creator(session: Session):
        session.create("node", weight=2)
        yield
        session.create("node", weight=3)

    result = MultiUserScheduler(db).run(
        [("u1", creator), ("u2", creator)]
    )
    assert sorted(result.committed) == ["u1", "u2"]
    assert len(db) == 4
