"""Hypothesis properties tying the static analysis to the runtime.

1. **Soundness of CA603**: when the abstract interpreter reports no
   missing-return path for a random rule body, evaluating that body can
   never raise the fell-off-the-end ``DslRuntimeError`` -- pruned
   branches are genuinely infeasible, so the concrete paths are a subset
   of the abstract ones.
2. **Fold parity**: a database built with constraint folding behaves
   identically to one frozen without analysis facts
   (:func:`tests.references.unfolded`), whether rule bodies run as
   compiled closures or on the interpreter
   (:func:`tests.references.interpreted`) -- same values, same
   ``ConstraintViolation`` outcomes on randomized update scripts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from tests.references import interpreted, unfolded

from repro.analysis import analyze_source
from repro.core.database import Database
from repro.dsl import compile_schema
from repro.errors import ConstraintViolation, DslRuntimeError, TransactionAborted

# -- property 1: no CA603 means the body always returns ---------------------

SCHEMA_TEMPLATE = """
object class c is
  attributes
    x : integer;
    y : integer;
    d : integer;
  rules
    d = {body};
end;
"""

_num = st.integers(min_value=-9, max_value=9).map(str)
_atom = st.sampled_from(["x", "y"]) | _num
_cmp = st.sampled_from(["<", "<=", "==", "!=", ">", ">="])
_expr = st.one_of(
    _atom,
    st.tuples(_atom, _cmp, _atom).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
    st.tuples(_atom, st.sampled_from(["+", "-", "*"]), _atom).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    ),
)


@st.composite
def _stmts(draw, depth: int):
    out = []
    for __ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(["assign", "if", "return"]))
        if kind == "assign":
            out.append(f"a := {draw(_expr)};")
        elif kind == "return":
            out.append(f"return {draw(_expr)};")
        elif depth > 0:
            cond = draw(_expr)
            then = draw(_stmts(depth - 1))
            orelse = draw(_stmts(depth - 1))
            block = f"if {cond} then {' '.join(then)} "
            if orelse:
                block += f"else {' '.join(orelse)} "
            out.append(block + "end if;")
    return out


@st.composite
def _bodies(draw):
    stmts = draw(_stmts(depth=2))
    if draw(st.booleans()):
        stmts.append(f"return {draw(_expr)};")
    return f"begin a : integer; {' '.join(stmts)} end"


@given(
    body=_bodies(),
    x=st.integers(min_value=-20, max_value=20),
    y=st.integers(min_value=-20, max_value=20),
)
@settings(max_examples=120, deadline=None)
def test_no_ca603_means_the_body_always_returns(body, x, y):
    source = SCHEMA_TEMPLATE.format(body=body)
    clean = not any(
        d.code == "CA603" for d in analyze_source(source)
    )
    schema = compile_schema(source)
    rule = next(
        r
        for r in schema.resolved("c").rules
        if getattr(r.target, "attr", None) == "d"
    )
    kwargs = {"l_x": x, "l_y": y}
    kwargs = {kw: kwargs[kw] for kw in rule.inputs}
    try:
        rule.body(**kwargs)
    except DslRuntimeError as exc:
        if "without a return" in str(exc):
            assert not clean, (
                f"analysis saw no missing-return path in {body!r} but the "
                f"runtime fell off the end with x={x}, y={y}"
            )


# -- property 2: folding is observably invisible ----------------------------

FOLD_SRC = """
object class task is
  attributes
    effort : integer;
    budget : integer;
    level  : integer;
  rules
    level = begin
        if effort > budget then
            return 2;
        end if;
        return 1;
    end;
  constraints
    level_ok : level >= 1 and level <= 2;
    cap      : effort <= 100;
end;
"""


def _build(no_fold: bool, no_compile: bool):
    with unfolded(no_fold):
        schema = compile_schema(FOLD_SRC)
    expected = 0 if no_fold else 1
    assert schema.compile_stats["constraints_folded"] == expected
    return Database(interpreted(schema) if no_compile else schema)


def _apply(db, script):
    task = db.create("task", budget=10)
    log = []
    for attr, value in script:
        try:
            db.set_attr(task, attr, value)
            log.append(("ok", db.get_attr(task, "level")))
        except (ConstraintViolation, TransactionAborted) as exc:
            log.append((type(exc).__name__, str(exc)))
    return log


@given(
    script=st.lists(
        st.tuples(
            st.sampled_from(["effort", "budget"]),
            st.integers(min_value=-10, max_value=150),
        ),
        max_size=10,
    ),
    no_compile=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_folded_and_unfolded_databases_agree_in_both_engines(script, no_compile):
    folded = _apply(_build(False, no_compile), script)
    assert folded == _apply(_build(True, no_compile), script)
