"""The query read path against the naive per-view reference.

``Query.run_scan`` reads every input and order key through a view and
``get_attr``, one slot at a time.  The planner's paths read plan slots
straight from storage through ``Database.read_inputs``.  These tests pin
what the direct reader keeps: the same rule evaluations (and, with a
``limit``, the ordered walk's short-circuit), the same answer when an
evaluation mid-query flips a subtype and re-marks another candidate's
input, the same errors, one demand per slot served, and one touch per
candidate.
"""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.core.predicates import Predicate
from repro.core.rules import Local, Received, SelfRef, subtype_attr_name
from repro.dsl import compile_schema
from repro.dsl.query import Query, compile_query
from repro.env.milestones import MILESTONE_SCHEMA
from repro.errors import (
    RuleEvaluationError,
    UnknownAttributeError,
    UnknownRelationshipError,
)

WIDTH, LAYERS = 6, 4


def milestones() -> Database:
    """A layered milestone DAG, every value demanded once (clean start)."""
    db = Database(compile_schema(MILESTONE_SCHEMA), pool_capacity=64)
    for layer in range(LAYERS):
        for col in range(WIDTH):
            iid = db.create(
                "milestone", sched_compl=20 * layer + col, local_work=1 + col % 4
            )
            if layer:
                for dep in {col, (col + 1) % WIDTH}:
                    db.connect(iid, "depends_on", iid - WIDTH + dep - col, "consists_of")
    for iid in db.instance_ids():
        db.get_attr(iid, "late")
    return db


def dirty(db: Database) -> None:
    """Stale chains with shared stale dependencies (no important slot)."""
    db.set_attr(1, "local_work", 9)
    db.set_attr(3, "local_work", 7)


def counted(db: Database, run) -> tuple[list[int], dict]:
    before = db.metrics()
    result = run(db)
    delta = (db.metrics() - before).flatten()
    return result, delta


class TestSameEvaluations:
    def test_scan_path_evaluates_what_run_scan_evaluates(self):
        query = compile_query(
            compile_schema(MILESTONE_SCHEMA),
            "select milestone where late and local_work > 1",
        )
        planned, reference = milestones(), milestones()
        for db in (planned, reference):
            dirty(db)
        assert query.plan(planned).access_path == "scan"
        result, fast = counted(planned, query.run)
        expected, naive = counted(reference, query.run_scan)
        assert result == expected
        assert naive["engine.rule_evaluations"] > 0
        for counter in (
            "engine.rule_evaluations",
            "engine.unchanged_evaluations",
            "engine.slots_marked",
            "engine.demands",
        ):
            assert fast[counter] == naive[counter], counter

    def test_index_order_with_limit_still_short_circuits(self):
        source = """
        object class item is
          attributes
            score : integer;
            cost  : integer;
            flag  : boolean;
          rules
            flag = cost > 5;
        end object;
        """

        def build() -> Database:
            schema = compile_schema(source, freeze=False)
            schema.add_index("item", "score")
            schema.freeze()
            db = Database(schema)
            for i in range(20):
                db.create("item", score=10 * i, cost=10)
            for iid in db.instance_ids():
                db.get_attr(iid, "flag")
            return db

        query = compile_query(
            build().schema, "select item where flag order by score desc limit 3"
        )
        top = [20, 19, 18]  # the highest scores: the walk's first matches
        planned, reference = build(), build()
        for db in (planned, reference):
            for iid in top:
                db.set_attr(iid, "cost", 9)  # stale inputs inside the walk
        assert query.plan(planned).access_path == "index_order"
        result, fast = counted(planned, query.run)
        expected, naive = counted(reference, query.run_scan)
        assert result == expected == top
        assert fast["engine.rule_evaluations"] == naive["engine.rule_evaluations"] == 3

        # A stale input beyond the limit is never evaluated by the walk.
        for db in (planned, reference):
            db.set_attr(1, "cost", 8)
        result, fast = counted(planned, query.run)
        expected, naive = counted(reference, query.run_scan)
        assert result == expected
        assert fast["engine.rule_evaluations"] == 0
        assert naive["engine.rule_evaluations"] == 1
        assert planned.engine.is_out_of_date((1, "flag"))

    def test_scan_with_limit_stops_reading_at_the_limit(self):
        """The scan path's twin of the ordered walk's short-circuit: with a
        ``limit`` and no ``order by``, the filter stops once ``limit``
        candidates match, and later candidates' inputs are never read."""
        source = """
        object class item is
          attributes
            cost : integer;
            flag : boolean;
          rules
            flag = cost > 5;
        end object;
        """

        def build() -> Database:
            db = Database(compile_schema(source))
            for __ in range(20):
                db.create("item", cost=10)
            for iid in db.instance_ids():
                db.get_attr(iid, "flag")
            return db

        query = compile_query(build().schema, "select item where flag limit 3")
        first = [1, 2, 3]  # the lowest iids: the scan's first matches
        planned, reference = build(), build()
        for db in (planned, reference):
            for iid in first:
                db.set_attr(iid, "cost", 9)  # stale inputs inside the limit
        assert query.plan(planned).access_path == "scan"
        result, fast = counted(planned, query.run)
        expected, naive = counted(reference, query.run_scan)
        assert result == expected == first
        assert fast["engine.rule_evaluations"] == naive["engine.rule_evaluations"] == 3
        assert fast["engine.demands"] == 3

        # A stale input beyond the limit is never evaluated by the scan.
        for db in (planned, reference):
            db.set_attr(20, "cost", 8)
        result, fast = counted(planned, query.run)
        expected, naive = counted(reference, query.run_scan)
        assert result == expected
        assert fast["engine.rule_evaluations"] == 0
        assert naive["engine.rule_evaluations"] == 1
        assert planned.engine.is_out_of_date((20, "flag"))


FEED = """
relationship feed is
    v : integer from plug;
end relationship;

object class node is
  relationships
    outs : feed multi plug;
    ins  : feed multi socket;
    one  : feed socket;
  attributes
    w     : integer;
    k     : integer;
    total : integer;
  rules
    outs v = k;
    total = begin
        s : integer;
        s := 0;
        for each p related to ins do
            s := s + p.v;
        end for;
        return s;
    end;
end object;

object class big subtype of node where w > 5 is
  attributes
    tag : boolean;
  rules
    outs v = k * 100;
    tag = true;
end object;
"""


def feed() -> tuple[Database, int, int]:
    """``a`` feeds ``b``; ``a``'s membership in ``big`` is never evaluated.

    ``b``'s inputs are all clean, so a reader reaches them without asking
    the engine anything.
    """
    db = Database(compile_schema(FEED))
    a = db.create("node", w=10, k=2)
    b = db.create("node", w=1, k=1)
    db.connect(a, "outs", b, "ins")
    assert db.get_attr(b, "total") == 2
    assert db.get_attr(b, subtype_attr_name("big")) is False
    assert db.get_attr(a, "total") == 0
    assert db.instance(a).active_subtypes == set()
    return db, a, b


#: reads a's membership first (evaluating it flips a into ``big``, whose
#: override re-marks b's ``total``), then every candidate's ``total``.
FLIP = Predicate(
    {"m": Local(subtype_attr_name("big")), "t": Local("total")},
    lambda m, t: t > 50,
    "total > 50",
)


def flip_query() -> Query:
    return Query("node", FLIP, order_by=None, descending=False, limit=None)


class TestSubtypeFlipMidScan:
    def test_remarked_input_is_demanded_not_read_stale(self):
        (planned, a, b), (reference, *__) = feed(), feed()
        assert not planned.engine.is_out_of_date((b, "total"))
        result = flip_query().run(planned)
        assert result == flip_query().run_scan(reference) == [b]
        assert planned.get_attr(b, "total") == 200

    def test_remark_deferred_by_a_batch_lands_before_the_next_read(self):
        (planned, a, b), (reference, *__) = feed(), feed()
        with planned.batch():
            result = flip_query().run(planned)
        with reference.batch():
            expected = flip_query().run_scan(reference)
        assert result == expected == [b]


def wired() -> tuple[Database, int, int]:
    """``feed()`` plus ``c``: ``b`` receives from ``a`` and ``c``, ``c``'s
    single port from ``a``, and ``a``'s transmit slots are out of date."""
    db, a, b = feed()
    c = db.create("node", w=1, k=5)
    db.connect(c, "outs", b, "ins")
    db.connect(a, "outs", c, "one")
    db.set_attr(a, "k", 3)
    return db, b, c


class TestReceivedAndSelfRef:
    def test_received_inputs_and_self_ref_match_the_view_reference(self):
        predicate = Predicate(
            {
                "many": Received("ins", "v"),
                "single": Received("one", "v"),
                "me": SelfRef(),
            },
            lambda many, single, me: sum(many) + single + me > 4,
        )
        (planned, b, c), (reference, *__) = wired(), wired()
        expected = [
            iid
            for iid in reference.instances_of("node")
            if predicate.on_view(reference.view(iid))
        ]
        assert planned.select("node", predicate) == expected == [b, c]


def raised(run) -> type[BaseException] | None:
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - the class is the observation
        return type(exc)
    return None


ITEMS = """
object class item is
  attributes
    w     : integer;
    ratio : integer;
  rules
    ratio = 100 / (w - 3);
end object;
"""


def items() -> Database:
    db = Database(compile_schema(ITEMS))
    for w in (1, 2, 3, 4):
        db.create("item", w=w)
    return db


class TestSameErrors:
    @pytest.mark.parametrize(
        "text, error",
        [
            # w = 3's rule divides by zero.
            ("select item where ratio > 1", RuleEvaluationError),
            # The where body fails on w = 1 before w = 3's rule is read.
            ("select item where 100 / (w - 1) > ratio", ZeroDivisionError),
            ("select item where w > 0 order by ratio", RuleEvaluationError),
        ],
    )
    def test_failing_rule_or_body_raises_the_same_class(self, text, error):
        query = compile_query(items().schema, text)
        assert raised(lambda: query.run(items())) is error
        assert raised(lambda: query.run_scan(items())) is error

    @pytest.mark.parametrize(
        "decl, error",
        [(Local("nope"), UnknownAttributeError), (Received("nope", "v"), UnknownRelationshipError)],
    )
    def test_unresolvable_input_raises_the_same_class(self, decl, error):
        predicate = Predicate({"x": decl}, lambda x: True)

        def reference():
            db = items()
            return [i for i in db.instances_of("item") if predicate.on_view(db.view(i))]

        assert raised(lambda: items().select("item", predicate)) is error
        assert raised(reference) is error


class TestAccounting:
    def test_one_demand_per_slot_and_one_touch_per_candidate(self):
        query = compile_query(
            compile_schema(MILESTONE_SCHEMA),
            "select milestone where late and local_work > 1",
        )
        planned, reference = milestones(), milestones()
        n = len(planned.instance_ids())
        __, fast = counted(planned, query.run)
        __, naive = counted(reference, query.run_scan)
        assert fast["engine.demands"] == naive["engine.demands"] == 2 * n
        assert fast["engine.rule_evaluations"] == naive["engine.rule_evaluations"] == 0
        assert naive["buffer.hits"] == 2 * n  # one touch per input read
        assert fast["buffer.hits"] == n  # one touch per candidate

    def test_order_keys_touch_once_per_candidate_per_pass(self):
        query = compile_query(
            compile_schema(MILESTONE_SCHEMA),
            "select milestone where local_work > 2 order by exp_compl desc",
        )
        planned, reference = milestones(), milestones()
        result, fast = counted(planned, query.run)
        expected, naive = counted(reference, query.run_scan)
        assert result == expected
        n, matched = len(planned.instance_ids()), len(result)
        assert fast["buffer.hits"] == n + matched
        assert fast["engine.demands"] == naive["engine.demands"] == n + matched
