"""Scheduler crash paths and fairness.

Regressions pinned here:

* an unhandled non-CC abort (constraint violation, commit audit failure)
  escaping one script used to propagate out of
  :meth:`MultiUserScheduler.run`, abandoning every other session mid-step
  with its delta still adopted.  The scheduler now retires the offending
  script, records it in :attr:`ScheduleResult.failed`, and runs everyone
  else to completion.
* the same failure class on the *restart* path: a script exceeding
  ``max_restarts`` used to raise :class:`TransactionAborted` out of
  ``_restart``, escaping ``run()`` mid-schedule.  It now retires into
  ``failed`` like any other final abort.
* a :class:`ConcurrencyAbort` raised at *commit* time (out of the commit
  machinery rather than a script step) used to leave the session's delta
  stranded inside the transaction manager -- ``Session.commit`` had
  already detached it -- so the restart's rollback was a no-op and the
  next adopted step blew up with ``TransactionError: cannot adopt``.
* the round-robin cursor used to index into the *shrinking* list of
  runnable scripts, so the first completion skewed the rotation and let
  one script step twice while its neighbour starved.
"""

import pytest

from repro.core.database import Database
from repro.core.rules import Constraint, Local
from repro.errors import ConcurrencyAbort, TransactionAborted
from repro.txn.manager import MultiUserScheduler
from repro.workloads import build_chain, link, sum_node_schema


def constrained_db():
    from repro.workloads.topologies import sum_node_schema as base

    schema = base()
    schema.unfreeze()
    schema.extend_class("node").add_constraint(
        Constraint("cap", {"t": Local("total")}, lambda t: t <= 100)
    )
    schema.freeze()
    return Database(schema, pool_capacity=64)


class TestNonCCFailures:
    def test_unhandled_violation_fails_one_script_not_the_run(self):
        db = constrained_db()
        a = db.create("node", weight=10)
        b = db.create("node", weight=10)
        link(db, a, b)

        def violator(session):
            yield
            session.set_attr(a, "weight", 500)  # trips cap; NOT caught
            yield

        def bystander(session):
            session.set_attr(b, "weight", 20)
            yield
            session.get_attr(b, "total")

        result = MultiUserScheduler(db).run(
            [("violator", violator), ("bystander", bystander)]
        )
        assert result.committed == ["bystander"]
        assert set(result.failed) == {"violator"}
        assert result.failed["violator"]  # reason captured
        # The violator's work is rolled back; the bystander's is not.
        assert db.get_attr(a, "weight") == 10
        assert db.get_attr(b, "weight") == 20
        assert db.get_attr(b, "total") == 30

    def test_failed_script_leaves_no_adopted_delta_behind(self):
        db = constrained_db()
        a = db.create("node", weight=10)

        def violator(session):
            session.set_attr(a, "weight", 999)
            yield

        result = MultiUserScheduler(db).run([("violator", violator)])
        assert result.committed == []
        assert set(result.failed) == {"violator"}
        # The database is back to single-stream health: a plain
        # transaction can run after the schedule.
        with db.transaction("after"):
            db.set_attr(a, "weight", 11)
        assert db.get_attr(a, "weight") == 11

    def test_exceeding_max_restarts_fails_one_script_not_the_run(self):
        """Regression: the blown restart budget used to raise out of run().

        Before the fix, ``_restart`` raised :class:`TransactionAborted`
        straight through ``run()``, abandoning every other live session
        mid-script -- the same failure class the constraint-violation path
        already handles.  Now the script retires into ``failed`` and the
        bystanders run to completion.
        """
        db = Database(sum_node_schema())
        nodes = build_chain(db, 2)

        def old_reader(session):
            yield  # let the younger writer get its mark in first
            session.get_attr(nodes[0], "weight")

        def young_writer(session):
            session.set_attr(nodes[0], "weight", 7)
            yield
            yield

        def bystander(session):
            session.set_attr(nodes[1], "weight", 3)
            yield
            session.get_attr(nodes[1], "weight")

        # A pathological cap turns the first genuine CC restart terminal.
        result = MultiUserScheduler(db).run(
            [
                ("old", old_reader),
                ("young", young_writer),
                ("bystander", bystander),
            ],
            max_restarts=0,
        )
        assert sorted(result.committed) == ["bystander", "young"]
        assert set(result.failed) == {"old"}
        assert "restarts" in result.failed["old"]
        # The doomed script's work is gone; everyone else's committed.
        assert db.get_attr(nodes[0], "weight") == 7
        assert db.get_attr(nodes[1], "weight") == 3
        # The database is back to single-stream health.
        with db.transaction("after"):
            db.set_attr(nodes[0], "weight", 8)
        assert db.get_attr(nodes[0], "weight") == 8


class TestCommitTimeConcurrencyAbort:
    """A ConcurrencyAbort out of the commit machinery must restart cleanly.

    ``Session.commit`` detaches the delta before handing it to the
    transaction manager.  Before the fix, a ConcurrencyAbort escaping
    ``TransactionManager.commit`` (a commit-time check) left that delta
    adopted-but-uncommitted inside the manager: the scheduler's restart
    rollback was a no-op (the session had no delta), and the next adopted
    step raised ``TransactionError: cannot adopt``.  The delta now never
    leaves the manager's table of live transactions, so the restart's
    rollback aborts it by id and the script re-runs to a real commit.
    """

    def _run_with_flaky_commit(self, seed=None):
        db = Database(sum_node_schema())
        x = db.create("node", weight=0)
        y = db.create("node", weight=0)
        rejections = {"left": 1}
        real_audit = db.audit_constraints

        def flaky_audit():
            # Simulate a commit-time TO rejection against the victim's
            # first commit attempt (the adopted delta carries the session
            # name as its label, so the rejection targets the right script
            # under any interleaving order).
            active = db.txn._active
            if rejections["left"] and active is not None and active.label == "victim":
                rejections["left"] -= 1
                raise ConcurrencyAbort("commit-time validation rejected")
            real_audit()

        db.audit_constraints = flaky_audit

        body_runs = []

        def victim(session):
            body_runs.append(session.ts)
            session.set_attr(x, "weight", 5)
            yield

        def bystander(session):
            session.set_attr(y, "weight", 9)
            yield

        scheduler = MultiUserScheduler(db, seed=seed)
        result = scheduler.run([("victim", victim), ("bystander", bystander)])
        return db, x, y, result, body_runs

    @pytest.mark.parametrize("seed", [None, 7], ids=["round-robin", "seeded"])
    def test_commit_abort_restarts_and_recommits(self, seed):
        db, x, y, result, body_runs = self._run_with_flaky_commit(seed)
        assert sorted(result.committed) == ["bystander", "victim"]
        assert result.failed == {}
        # Exactly one restart was charged, and the script's body really
        # re-ran (fresh timestamp) rather than being double-committed.
        assert result.restarts == 1
        assert len(body_runs) == 2
        assert body_runs[0] != body_runs[1]
        assert db.get_attr(x, "weight") == 5
        assert db.get_attr(y, "weight") == 9
        # Each committed script appears exactly once (no double count).
        assert len(result.committed) == len(set(result.committed))
        # The manager is clean: a plain transaction runs afterwards.
        with db.transaction("after"):
            db.set_attr(x, "weight", 6)
        assert db.get_attr(x, "weight") == 6


class TestRoundRobinFairness:
    def test_rotation_stays_fair_after_a_script_finishes(self):
        db = Database(sum_node_schema())
        order = []

        def script(tag, yields):
            def body(session):
                for __ in range(yields):
                    order.append(tag)
                    yield

            return body

        result = MultiUserScheduler(db).run(
            [
                ("s", script("s", 1)),
                ("b", script("b", 3)),
                ("c", script("c", 3)),
                ("d", script("d", 3)),
            ]
        )
        # After "s" commits, the rotation resumes with the script that was
        # due next ("b") -- not with whichever index the shrunken runnable
        # list happened to put under the cursor.
        assert order == ["s", "b", "c", "d", "b", "c", "d", "b", "c", "d"]
        assert sorted(result.committed) == ["b", "c", "d", "s"]
        assert result.failed == {}
