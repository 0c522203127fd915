"""The index-backed query planner.

Every test asserts two things: the planner picked the expected access
path, and the result is identical to :meth:`Query.run_scan` -- the naive
reference the indexed paths must reproduce byte for byte.
"""

import pytest

from repro.core.database import Database
from repro.dsl import compile_schema
from repro.dsl.query import compile_query, run_query
from repro.errors import QueryError
from repro.obs.events import IndexSweep, QueryPlanned

SOURCE = """
object class item is
  attributes
    bucket : integer;
    score  : integer;
    tag    : string;
    twice  : integer;
    oddly  : any;
  rules
    twice = bucket * 2;
    oddly = mixup(score);
end object;

object class heavy_item subtype of item where score > 50 is
  attributes
    heavy : boolean;
  rules
    heavy = true;
end object;
"""


def mixup(score):
    # Values of three incomparable kinds, keyed off the score.
    if score % 7 == 0:
        return None
    if score % 3 == 0:
        return f"s{score}"
    return score


@pytest.fixture
def db():
    schema = compile_schema(SOURCE, functions={"mixup": mixup}, freeze=False)
    for attr in ("bucket", "score", "twice", "oddly"):
        schema.add_index("item", attr)
    schema.freeze()
    db = Database(schema, pool_capacity=256)
    for i in range(120):
        db.create("item", bucket=i % 10, score=(i * 37) % 97, tag=f"t{i % 4}")
    return db


def check(db, text, path, **kwargs):
    """Plan, assert the access path, and A/B run() against run_scan()."""
    query = compile_query(db.schema, text, **kwargs)
    plan = query.plan(db)
    assert plan.access_path == path, (text, plan.access_path)
    assert query.run(db) == query.run_scan(db)
    return plan


class TestAccessPaths:
    def test_equality_uses_index(self, db):
        plan = check(db, "select item where bucket == 3", "index_eq")
        assert plan.cost < plan.scan_cost

    def test_range_uses_index(self, db):
        check(db, "select item where score >= 90", "index_range")
        check(db, "select item where score < 4", "index_range")
        check(db, "select item where 90 <= score", "index_range")

    def test_order_by_walks_index(self, db):
        plan = check(db, "select item order by score desc limit 5", "index_order")
        assert db.indexes.stats.short_circuits >= 1
        check(db, "select item order by score", "index_order")

    def test_unindexed_attribute_scans(self, db):
        check(db, "select item where tag == \"t1\"", "scan")

    def test_select_all_scans(self, db):
        check(db, "select item", "scan")

    def test_residual_conjuncts_filter_index_hits(self, db):
        check(
            db,
            "select item where bucket == 3 and score > 40 and tag <> \"t0\"",
            "index_eq",
        )

    def test_planner_prefers_cheaper_sarg(self, db):
        # score == 0 hits ~1 instance, bucket == 0 hits 12: the planner
        # must probe the more selective index.
        plan = check(db, "select item where bucket == 0 and score == 0", "index_eq")
        assert plan.sarg.attr == "score"

    def test_derived_attribute_index(self, db):
        plan = check(db, "select item where twice == 6", "index_eq")
        assert plan.index.derived

    def test_extent_answers_predicate_class(self, db):
        check(db, "select heavy_item", "extent")

    def test_supertype_index_serves_predicate_subtype(self, db):
        run_query(db, "select heavy_item")  # resolve the extent first
        plan = check(db, "select heavy_item where bucket == 4", "index_eq")
        assert plan.index.class_name == "item"


class TestSoundnessFallbacks:
    def test_mixed_type_keys_degrade_range_to_scan(self, db):
        # oddly holds ints, strings, and Nones: no ordered probe is sound.
        query = compile_query(db.schema, "select item where oddly > 10")
        run_query(db, "select item where oddly == 37")  # resolve the index
        plan = query.plan(db)
        assert plan.access_path == "scan"
        with pytest.raises(TypeError):
            query.run_scan(db)
        with pytest.raises(TypeError):
            query.run(db)

    def test_mixed_type_equality_still_indexed(self, db):
        # Equality never compares across keys, so it stays sound.
        check(db, "select item where oddly == 37", "index_eq")

    def test_order_by_mixed_attribute_raises_query_error_both_paths(self, db):
        query = compile_query(db.schema, "select item order by oddly")
        with pytest.raises(QueryError) as scan_err:
            query.run_scan(db)
        with pytest.raises(QueryError) as run_err:
            query.run(db)
        assert str(scan_err.value) == str(run_err.value)


class TestFreshness:
    def test_index_sees_updates_between_runs(self, db):
        query = compile_query(db.schema, "select item where bucket == 3")
        before = query.run(db)
        moved = before[0]
        db.set_attr(moved, "bucket", 4)
        after = query.run(db)
        assert moved not in after
        assert after == query.run_scan(db)

    def test_derived_index_swept_lazily(self, db):
        query = compile_query(db.schema, "select item where twice == 8")
        baseline = query.run(db)
        target = db.instances_of("item")[0]
        db.set_attr(target, "bucket", 4)  # twice -> 8, lazily
        result = query.run(db)
        assert target in result
        assert result == query.run_scan(db)
        assert baseline != result

    def test_extent_tracks_flips_between_runs(self, db):
        query = compile_query(db.schema, "select heavy_item")
        before = set(query.run(db))
        light = next(
            i for i in db.instances_of("item") if db.get_attr(i, "score") <= 50
        )
        db.set_attr(light, "score", 99)
        after = set(query.run(db))
        assert light not in before and light in after
        assert sorted(after) == query.run_scan(db)


class TestObservability:
    def test_query_planned_and_sweep_events(self, db):
        events = []
        db.obs.hub.subscribe(events.append)
        run_query(db, "select item where twice == 6")
        planned = [e for e in events if isinstance(e, QueryPlanned)]
        assert planned and planned[0].access_path == "index_eq"
        assert planned[0].index_attr == "twice"
        assert planned[0].cost <= planned[0].scan_cost

    def test_stats_count_paths(self, db):
        stats = db.indexes.stats
        base = stats.queries
        run_query(db, "select item where bucket == 1")
        run_query(db, "select heavy_item")
        run_query(db, "select item where tag == \"t0\"")
        assert stats.queries == base + 3
        assert stats.indexed_queries >= 1
        assert stats.extent_queries >= 1
        assert stats.scan_queries >= 1


class TestNoCompileEngine:
    def test_planner_consistent_without_compiled_rules(self):
        from tests.references import interpreted

        schema = compile_schema(SOURCE, functions={"mixup": mixup}, freeze=False)
        schema.add_index("item", "twice")
        schema.freeze()
        db = Database(interpreted(schema))
        for i in range(30):
            db.create("item", bucket=i % 5, score=i)
        query = compile_query(schema, "select item where twice == 4")
        assert query.plan(db).access_path == "index_eq"
        assert query.run(db) == query.run_scan(db)
