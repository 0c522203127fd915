"""Property: indexed query results equal the naive scan, always (hypothesis).

Random scripts of creates, updates, deletes, undos and schema extensions
(which drop or re-declare an index and re-sync the manager) churn
attribute values, derived slots, and predicate-subtype membership; after
every script a battery of queries must answer identically through
:meth:`Query.run` (planner, indexes, extents) and :meth:`Query.run_scan`
(the naive reference) -- with rule bodies compiled and with every body
swapped back to its interpreter (:func:`tests.references.interpreted`).
After every step, each stale bucket the engine watches equals the marks
of its name in ``engine.out_of_date``.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
from tests.references import interpreted

from repro.core.database import Database
from repro.dsl import compile_schema
from repro.dsl.query import compile_query

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=25,
)

SOURCE = """
object class item is
  attributes
    bucket : integer;
    score  : integer;
    twice  : integer;
  rules
    twice = bucket * 2;
  constraints
    scored : score >= 0;
end object;

object class heavy_item subtype of item where score > 50 is
  attributes
    heavy : boolean;
  rules
    heavy = true;
end object;
"""

#: unsargable derived conjuncts, and the access path each must take: the
#: scan, or for a predicate subtype its extent -- both filter through the
#: query read path that run_scan is independent of.
UNSARGABLE = {
    "select item where twice > score": "scan",
    "select item where twice + score > 60 and not (bucket == 1) limit 3": "scan",
    "select item where twice * 10 < score or bucket == 4": "scan",
    "select heavy_item where twice + 40 < score": "extent",
}

QUERIES = [
    "select item",
    "select item where bucket == 2",
    "select item where bucket == 2 and score > 30",
    "select item where score >= 40",
    "select item where score < 25 order by bucket",
    "select item order by score desc limit 3",
    "select item order by twice limit 4",
    "select item where twice == 4",
    "select heavy_item",
    "select heavy_item where bucket <= 2 order by score desc",
    # bounded ordered walks: a sarg on the order key, with and without a
    # residual, in both directions
    "select item where score > 40 order by score desc limit 3",
    "select item where score >= 40 order by score limit 4",
    "select item where score < 60 order by score desc limit 5",
    "select item where score <= 30 order by score",
    "select item where score == 55 order by score desc",
    "select item where twice > 2 order by twice desc limit 3",
    "select item where twice >= 4 and not (bucket == 3) order by twice limit 2",
    "select item where score > 20 and twice < 6 order by score desc limit 3",
    "select heavy_item where score > 70 order by score limit 2",
    "select item order by score desc limit 0",
    *UNSARGABLE,
]


def make_db(interpret: bool = False):
    schema = compile_schema(SOURCE, freeze=False)
    for attr in ("bucket", "score", "twice"):
        schema.add_index("item", attr)
    schema.freeze()
    if interpret:
        interpreted(schema)
    return Database(schema, pool_capacity=256), schema


PRIMITIVES = ["create", "set_bucket", "set_score", "delete", "query"]


def script_strategy(kinds):
    return st.lists(
        st.tuples(
            st.sampled_from(kinds),
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=0, max_value=100),
        ),
        min_size=1,
        max_size=40,
    )


#: scripts run inside one open transaction: primitives only.
ops_strategy = script_strategy(PRIMITIVES)
#: scripts of autocommitted steps, which can also be undone or extend
#: the schema.
steps_strategy = script_strategy([*PRIMITIVES, "undo", "extend"])


def check_stale_buckets(db):
    """Each watched bucket holds exactly the marks of its name, and the
    watched names are the derived index attributes, the extents'
    membership slots and the constraint slots."""
    engine = db.engine
    for name, bucket in engine.stale_by_name.items():
        assert bucket == {iid for iid, n in engine.out_of_date if n == name}, name
    mgr = db.indexes
    watched = {i.attr for i in mgr.attr_indexes.values() if i.derived}
    watched |= {e.slot_name for e in mgr.extents.values()}
    watched |= {name for name, __ in engine.stale_constraints}
    assert set(engine.stale_by_name) == watched
    assert {name for name, __ in engine.stale_constraints} == {"__constraint__scored"}


def run_script(db, schema, ops):
    """Apply the script, A/B-checking a query at every 'query' op."""
    live = []
    for op, a, b in ops:
        if op == "undo":
            if db.txn.history:
                db.undo()
                live = list(db.instances_of("item"))
        elif op == "extend":
            # Drop or re-declare the derived index: sync re-registers the
            # watched names and seeds a re-watched bucket from the marks.
            with db.extend_schema() as extended:
                if "twice" in extended.indexes.get("item", ()):
                    extended.drop_index("item", "twice")
                else:
                    extended.add_index("item", "twice")
        elif op == "create":
            live.append(db.create("item", bucket=a % 5, score=b))
        elif op == "set_bucket" and live:
            db.set_attr(live[a % len(live)], "bucket", b % 5)
        elif op == "set_score" and live:
            # Crossing 50 flips heavy_item membership.
            db.set_attr(live[a % len(live)], "score", b)
        elif op == "delete" and live:
            db.delete(live.pop(a % len(live)))
        elif op == "query":
            text = QUERIES[a % len(QUERIES)]
            query = compile_query(schema, text)
            assert query.run(db) == query.run_scan(db), text
        check_stale_buckets(db)
    # Final sweep: every query in the battery agrees.
    for text in QUERIES:
        query = compile_query(schema, text)
        assert query.run(db) == query.run_scan(db), text
        check_stale_buckets(db)


def test_unsargable_queries_take_the_scan_path():
    db, schema = make_db()
    for i in range(30):
        db.create("item", bucket=i % 5, score=(i * 37) % 100)
    for text, path in UNSARGABLE.items():
        query = compile_query(schema, text)
        assert query.plan(db).access_path == path, text
        assert query.run(db) == query.run_scan(db), text


def test_a_ranged_top_k_walks_the_index_from_its_bound():
    db, schema = make_db()
    for i in range(40):
        db.create("item", bucket=i % 5, score=(i * 37) % 100)
    expected = {
        "select item where score > 40 order by score desc limit 3": "index_order",
        "select item where score >= 40 order by score limit 4": "index_order",
        "select item where score == 55 order by score desc": "index_eq",
        "select item where score > 20 and bucket == 2 order by score": "index_eq",
    }
    for text, path in expected.items():
        query = compile_query(schema, text)
        plan = query.plan(db)
        assert plan.access_path == path, text
        assert query.run(db) == query.run_scan(db), text
    top = "select item where score > 40 order by score desc limit 3"
    plan = compile_query(schema, top).plan(db)
    assert plan.sarg is not None and plan.cost == 3.0


@given(ops=steps_strategy)
@settings(**COMMON)
def test_indexed_equals_scan_compiled_engine(ops):
    db, schema = make_db()
    run_script(db, schema, ops)


@given(ops=steps_strategy)
@settings(**COMMON)
def test_indexed_equals_scan_interpreted_engine(ops):
    db, schema = make_db(interpret=True)
    run_script(db, schema, ops)


@given(ops=ops_strategy)
@settings(**COMMON)
def test_transaction_rollback_keeps_indexes_consistent(ops):
    db, schema = make_db()
    seed = [db.create("item", bucket=i % 5, score=i * 13 % 100) for i in range(6)]
    try:
        with db.transaction("doomed"):
            run_script(db, schema, ops)
            raise RuntimeError("abandon")
    except RuntimeError:
        pass
    assert sorted(db.instances_of("item")) == sorted(seed)
    for text in QUERIES:
        query = compile_query(schema, text)
        assert query.run(db) == query.run_scan(db), text
