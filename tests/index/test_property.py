"""Property: indexed query results equal the naive scan, always (hypothesis).

Random scripts of creates, updates, and deletes churn attribute values,
derived slots, and predicate-subtype membership; after every script a
battery of queries must answer identically through :meth:`Query.run`
(planner, indexes, extents) and :meth:`Query.run_scan` (the naive
reference) -- with rule bodies compiled and with every body swapped back
to its interpreter (:func:`tests.references.interpreted`).
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


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["create", "set_bucket", "set_score", "delete", "query"]),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=100),
    ),
    min_size=1,
    max_size=40,
)


def run_script(db, schema, ops):
    """Apply the script, A/B-checking a query at every 'query' op."""
    live = []
    for op, a, b in ops:
        if op == "create":
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
    # Final sweep: every query in the battery agrees.
    for text in QUERIES:
        query = compile_query(schema, text)
        assert query.run(db) == query.run_scan(db), text


def test_unsargable_queries_take_the_scan_path():
    db, schema = make_db()
    for i in range(30):
        db.create("item", bucket=i % 5, score=(i * 37) % 100)
    for text, path in UNSARGABLE.items():
        query = compile_query(schema, text)
        assert query.plan(db).access_path == path, text
        assert query.run(db) == query.run_scan(db), text


@given(ops=ops_strategy)
@settings(**COMMON)
def test_indexed_equals_scan_compiled_engine(ops):
    db, schema = make_db()
    run_script(db, schema, ops)


@given(ops=ops_strategy)
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
