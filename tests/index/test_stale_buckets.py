"""A sweep reads one stale bucket; a ranged top-k walks from its bound.

Before a reader trusts a derived index or an extent, the manager
re-evaluates the covered slots still marked out of date under the
structure's slot name.  It finds them in the engine's bucket for that name
(``engine.stale_by_name``), so the refresh costs the same however many
unrelated slots are stale elsewhere.  The constraint audit reads the
constraint names' buckets the same way.
"""

import sys
import tracemalloc

from repro.core.database import Database
from repro.dsl import compile_schema
from repro.dsl.query import compile_query
from repro.env.milestones import MILESTONE_SCHEMA, VERY_LATE_EXTENSION

SOURCE = """
object class item is
  attributes
    base    : integer;
    level   : integer;
    doubled : integer;
    high    : boolean;
  rules
    doubled = base * 2;
    high = level > 3;
end object;

object class big_item subtype of item where base > 50 is
  attributes
    big : boolean;
  rules
    big = true;
end object;
"""

ORDERED = "select item order by doubled desc limit 2"
EXTENT = "select big_item"


class _CountingSet(set):
    """A set that counts the elements its iteration hands out."""

    handed_out = 0

    def __iter__(self):
        for item in super().__iter__():
            self.handed_out += 1
            yield item


def _read_cost(unrelated: int) -> tuple[int, list[int], list[int], int]:
    """Elements of engine mark state iterated by one derived-index read and
    one extent read, with ``unrelated`` stale ``high`` slots elsewhere; plus
    both answers and the slots the sweeps evaluated."""
    schema = compile_schema(SOURCE, freeze=False)
    schema.add_index("item", "doubled")
    schema.freeze()
    db = Database(schema, pool_capacity=256)
    with db.batch():
        iids = [db.create("item", base=i % 50, level=0) for i in range(unrelated + 3)]
    ordered = compile_query(schema, ORDERED)
    extent = compile_query(schema, EXTENT)
    for iid in iids:  # clean start: every slot and membership evaluated
        db.get_attr(iid, "high")
    ordered.run(db), extent.run(db)
    with db.batch():
        for iid in iids[3:]:
            db.set_attr(iid, "level", 5)  # unrelated: marks only ``high``
        for iid in iids[:3]:
            db.set_attr(iid, "base", 90)  # related: three stale ``doubled``
    engine = db.engine
    assert len(engine.out_of_date) >= unrelated
    engine.out_of_date = _CountingSet(engine.out_of_date)
    counted = [engine.out_of_date]
    buckets = getattr(engine, "stale_by_name", {})
    for name in list(buckets):
        buckets[name] = _CountingSet(buckets[name])
        counted.append(buckets[name])
    swept = db.indexes.stats.swept_slots
    assert ordered.plan(db).access_path == "index_order"
    assert extent.plan(db).access_path == "extent"
    top, members = ordered.run(db), extent.run(db)
    return (
        sum(s.handed_out for s in counted),
        top,
        members[:3],
        db.indexes.stats.swept_slots - swept,
    )


def test_sweep_cost_does_not_depend_on_unrelated_stale_slots():
    few, many = _read_cost(10), _read_cost(10_000)
    assert few == many
    iterated, top, members, swept = few
    assert top == [1, 2] and members == [1, 2, 3] and swept == 3
    assert iterated == 3  # the three stale ``doubled`` slots, nothing else


def _churn_db() -> Database:
    schema = compile_schema(MILESTONE_SCHEMA + VERY_LATE_EXTENSION.format(limit=10), freeze=False)
    schema.add_index("milestone", "sched_compl")
    schema.add_index("milestone", "exp_compl")
    schema.freeze()
    db = Database(schema, pool_capacity=256)
    previous = None
    for i in range(60):
        iid = db.create("milestone", sched_compl=3 * i, local_work=1 + i % 7)
        if previous is not None and i % 3:
            db.connect(iid, "depends_on", previous, "consists_of")
        previous = iid
    return db


def test_the_churn_range_query_walks_the_index_from_its_bound():
    db = _churn_db()
    query = compile_query(
        db.schema, "select milestone where exp_compl > 5 order by exp_compl desc limit 10"
    )
    plan = query.plan(db)
    assert plan.access_path == "index_order"
    assert plan.sarg is not None and plan.sarg.attr == "exp_compl"
    before = db.metrics()
    assert query.run(db) == query.run_scan(db)
    db.set_attr(7, "local_work", 30)  # re-marks a chain of exp_compl slots
    result = query.run(db)
    assert result == query.run_scan(db)
    assert len(result) == 10
    assert (db.metrics() - before).flatten()["index.short_circuits"] == 2


def _buckets_agree(engine) -> bool:
    return all(
        bucket == {iid for iid, n in engine.out_of_date if n == name}
        for name, bucket in engine.stale_by_name.items()
    )


def test_stale_buckets_track_the_marks_of_watched_names():
    db = _churn_db()
    engine = db.engine
    assert set(engine.stale_by_name) == {"exp_compl", "__subtype__very_late_milestone"}
    with db.batch():
        db.set_attr(1, "local_work", 9)
        engine.settle_marks()  # marks land; membership waits for the close
        assert engine.stale_by_name["exp_compl"] and _buckets_agree(engine)
    assert _buckets_agree(engine)
    db.delete(2)
    assert _buckets_agree(engine)
    db.undo()
    assert _buckets_agree(engine)
    with db.extend_schema() as schema:  # drop the derived index: unwatched
        schema.drop_index("milestone", "exp_compl")
    assert set(engine.stale_by_name) == {"__subtype__very_late_milestone"}
    assert _buckets_agree(engine)


CONSTRAINED = """
object class task is
  attributes effort : integer; budget : integer;
  constraints fits : effort <= budget;
end object;
"""


def test_constraint_audit_reads_the_constraint_buckets():
    db = Database(compile_schema(CONSTRAINED))
    engine = db.engine
    assert [name for name, __ in engine.stale_constraints] == ["__constraint__fits"]
    task = db.create("task", effort=1, budget=5)
    with db.transaction("raise the effort", batch=True):
        db.set_attr(task, "effort", 3)
        db.engine.settle_marks()
        assert engine.stale_by_name["__constraint__fits"] == {task}
    assert not engine.stale_by_name["__constraint__fits"]


def test_constraint_audit_builds_nothing_when_nothing_is_pending():
    db = Database(compile_schema(CONSTRAINED))
    db.create("task", effort=1, budget=5)
    audit = db.audit_constraints
    audit()  # warm: nothing pending from here on
    tracemalloc.start()
    try:
        current, __ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        audit()
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Walking the buckets takes an iterator; a pending set would take more.
    assert peak - current < sys.getsizeof(set())
