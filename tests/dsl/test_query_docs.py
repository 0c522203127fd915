"""docs/QUERY.md is a reference: hold it to the implementation.

Same contract style as ``tests/obs/test_docs.py``: the metric bullets
must equal the live ``index.*`` section, the documented access paths must
equal the planner's, the documented grammar must compile, and the inline
Python snippet must run.
"""

from __future__ import annotations

import re

from tests.doccheck import assert_documents_exactly, doc_path

from repro.core.database import Database
from repro.dsl import compile_schema, run_query
from repro.dsl.query import compile_query
from repro.env.milestones import MilestoneManager
from repro.errors import DslSyntaxError, QueryError, SchemaError

DOC = doc_path("QUERY.md")
METRIC_BULLET = re.compile(r"^- `(index(?:\.[a-z_]+)+)`", re.MULTILINE)

ACCESS_PATHS = {"scan", "extent", "index_eq", "index_range", "index_order"}


def test_documented_index_metrics_match_live_section():
    schema = compile_schema(
        "object class item is attributes weight : integer; end object;",
        freeze=False,
    )
    schema.add_index("item", "weight")
    schema.freeze()
    assert_documents_exactly(
        METRIC_BULLET.findall(DOC.read_text()),
        {f"index.{key}" for key in Database(schema).indexes.metrics()},
        DOC.name,
        "IndexManager.metrics()",
    )


def test_documented_access_paths_match_planner():
    text = DOC.read_text()
    for path in ACCESS_PATHS:
        assert f"`{path}`" in text, f"access path {path!r} undocumented"


def test_documented_grammar_clauses_compile():
    # Every clause combination the grammar block promises must parse.
    schema = compile_schema(
        "object class item is attributes weight : integer; end object;"
    )
    for text in (
        "select item",
        "select item where weight > 1",
        "select item order by weight",
        "select item order by weight asc",
        "select item order by weight desc",
        "select item limit 3",
        "select item where weight > 1 order by weight desc limit 3",
        "select item limit 3 order by weight",
    ):
        compile_query(schema, text)


def test_documented_duplicate_clause_contract():
    schema = compile_schema(
        "object class item is attributes weight : integer; end object;"
    )
    for text in (
        "select item order by weight order by weight",
        "select item limit 1 limit 2",
    ):
        try:
            compile_query(schema, text)
        except DslSyntaxError as exc:
            assert exc.line is not None and exc.column is not None
        else:  # pragma: no cover - contract violation
            raise AssertionError(f"duplicate clause accepted: {text}")


def test_documented_index_declaration_contract():
    schema = compile_schema(
        """
        object class item is
          attributes weight : integer;
        end object;
        object class big_item subtype of item where weight > 5 is
          attributes big : boolean;
          rules big = true;
        end object;
        """,
        freeze=False,
    )
    schema.add_index("item", "weight")
    schema.drop_index("item", "weight")
    schema.add_index("big_item", "weight")  # documented as a freeze error
    try:
        schema.freeze()
    except SchemaError as exc:
        assert "predicate subtype" in str(exc)
    else:  # pragma: no cover - contract violation
        raise AssertionError("index on a predicate subtype was accepted")


def test_documented_query_error_contract():
    schema = compile_schema(
        """
        object class item is
          attributes
            seed : integer;
            val  : any;
          rules
            val = pick(seed);
        end object;
        """,
        functions={"pick": lambda s: None if s == 0 else s},
        freeze=False,
    )
    schema.freeze()
    db = Database(schema)
    db.create("item", seed=1)
    bad = db.create("item", seed=0)
    try:
        run_query(db, "select item order by val")
    except QueryError as exc:
        assert exc.iid == bad and exc.attr == "val"
    else:  # pragma: no cover - contract violation
        raise AssertionError("unorderable keys did not raise QueryError")


def test_documented_milestone_snippet_runs():
    mm = MilestoneManager()
    mm.add_milestone("a", scheduled=10, work=12)
    mm.add_milestone("b", scheduled=10, work=11)
    mm.add_milestone("c", scheduled=10, work=3)
    late = run_query(
        mm.db,
        "select milestone where late and local_work > 5 "
        "order by exp_compl desc limit 3",
    )
    assert [mm.db.get_attr(i, "local_work") for i in late] == [12, 11]
