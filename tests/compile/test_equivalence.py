"""Property test: compiled closures are observably equal to the interpreter.

Hypothesis generates random (but compilable) DSL rule bodies over a fixed
class shape -- two integer attributes, a multi port (``For Each`` coverage),
a single port (dangling-default coverage), a registered function, and a
named constant.  Each body is compiled twice by the normal pipeline: the
freeze-time pass swaps in a :class:`CompiledBody` whose ``__wrapped__``
keeps the original ``_RuleInterpreter``.  For random input assignments the
two must produce the same value or raise the same class of error.

Whole databases running on interpreter bodies are covered by
``tests/evaluation/test_reference_oracles.py``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import CompiledBody
from repro.dsl import compile_schema
from repro.errors import DslRuntimeError

FUNCTIONS = {"dbl": lambda v: 2 * v + 1}
CONSTANTS = {"kk": 7}

SCHEMA_TEMPLATE = """
relationship dep is
    t : integer from plug;
    u : integer from plug default 3;
end;
object class c is
  relationships
    ins : dep multi socket;
    one : dep socket;
  attributes
    x : integer;
    y : integer;
    d : integer;
  rules
    d = {body};
end;
"""

# -- body generation --------------------------------------------------------

_num = st.integers(min_value=-9, max_value=9).map(str)
_atom = st.sampled_from(["x", "y", "kk", "one.t"]) | _num
_binop = st.sampled_from(["+", "-", "*", "/", "%", "<", "<=", "==", "!=", ">", ">=", "and", "or"])


def _exprs(loop_vars: tuple[str, ...]):
    """Expression strategy; loop variables contribute ``var.t``/``var.u``."""
    leaves = [_atom]
    if loop_vars:
        refs = [f"{v}.{f}" for v in loop_vars for f in ("t", "u")]
        leaves.append(st.sampled_from(refs))
    leaf = st.one_of(*leaves)

    def extend(children):
        return st.one_of(
            st.tuples(children, _binop, children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            children.map(lambda e: f"(not {e})"),
            children.map(lambda e: f"(- {e})"),
            children.map(lambda e: f"dbl({e})"),
        )

    return st.recursive(leaf, extend, max_leaves=6)


@st.composite
def _stmts(draw, loop_vars: tuple[str, ...], depth: int):
    """A random statement list (no trailing return)."""
    out = []
    for __ in range(draw(st.integers(min_value=0, max_value=2))):
        kind = draw(st.sampled_from(["assign", "if", "for", "return"]))
        if kind == "assign":
            var = draw(st.sampled_from(["a", "b"]))
            out.append(f"{var} := {draw(_exprs(loop_vars))};")
        elif kind == "return":
            out.append(f"return {draw(_exprs(loop_vars))};")
        elif kind == "if" and depth > 0:
            cond = draw(_exprs(loop_vars))
            then = draw(_stmts(loop_vars, depth - 1))
            orelse = draw(_stmts(loop_vars, depth - 1))
            block = f"if {cond} then {' '.join(then)} "
            if orelse:
                block += f"else {' '.join(orelse)} "
            out.append(block + "end if;")
        elif kind == "for" and depth > 0:
            var = draw(st.sampled_from(["p", "q"]))
            body = draw(_stmts(loop_vars + (var,), depth - 1))
            out.append(
                f"for each {var} related to ins do {' '.join(body)} end for;"
            )
    return out


@st.composite
def _bodies(draw):
    """Either a bare expression or a begin/end block body."""
    if draw(st.booleans()):
        return draw(_exprs(()))
    stmts = draw(_stmts((), depth=2))
    decls = "a : integer; b : integer;"
    # Half the time guarantee a return; otherwise exercise the
    # fell-off-the-end error path on both backends.
    if draw(st.booleans()):
        stmts.append(f"return {draw(_exprs(()))};")
    return f"begin {decls} {' '.join(stmts)} end"


def _outcome(fn, kwargs):
    try:
        return ("value", fn(**kwargs))
    except DslRuntimeError as exc:
        # Messages cite source names/lines on the interpreter and canonical
        # registers on the compiled path; the error *class* must agree.
        return ("dsl_error", None)
    except ZeroDivisionError:
        return ("zero_division", None)


@given(
    body=_bodies(),
    x=st.integers(min_value=-50, max_value=50),
    y=st.integers(min_value=-50, max_value=50),
    fan=st.lists(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=3
    ),
    one=st.integers(min_value=-9, max_value=9),
    dangling=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_compiled_body_equals_interpreter(body, x, y, fan, one, dangling):
    schema = compile_schema(
        SCHEMA_TEMPLATE.format(body=body),
        functions=FUNCTIONS,
        constants=CONSTANTS,
    )
    rule = next(
        r
        for r in schema.resolved("c").rules
        if getattr(r.target, "attr", None) == "d"
    )
    compiled = rule.body
    assert isinstance(compiled, CompiledBody), f"declined: {body!r}"
    interpreter = compiled.__wrapped__

    kwargs = {}
    for kw in rule.inputs:
        if kw == "l_x":
            kwargs[kw] = x
        elif kw == "l_y":
            kwargs[kw] = y
        elif kw == "r_ins__t":
            kwargs[kw] = [t for t, __ in fan]
        elif kw == "r_ins__u":
            kwargs[kw] = [u for __, u in fan]
        elif kw == "r_one__t":
            # A single-valued port: the engine's DepBinding.assemble hands
            # the body a scalar -- the flow default when dangling.
            kwargs[kw] = 0 if dangling else one
        else:  # pragma: no cover - fixed schema shape
            raise AssertionError(f"unexpected input {kw}")

    assert _outcome(compiled, kwargs) == _outcome(interpreter, kwargs)
