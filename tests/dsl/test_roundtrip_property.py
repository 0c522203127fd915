"""Property test: tokenize -> parse -> print -> re-parse is the identity.

Hypothesis generates random (syntactically valid, not necessarily
semantically meaningful) schema declarations, prints them with
:func:`repro.dsl.printer.format_schema_decl`, re-parses the text, and
compares the two ASTs after normalising source spans away.  The parser
never resolves names, so identifiers can be arbitrary -- which lets the
generator cover far more shapes than the hand-written fixtures.

Literal values are compared with their types (``True == 1`` in Python, but
``true`` and ``1`` are different programs).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import ast
from repro.dsl.lexer import KEYWORDS
from repro.dsl.parser import parse
from repro.dsl.printer import format_expr, format_schema_decl

# -- generators -------------------------------------------------------------

_ident = (
    st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
    .filter(lambda s: s.lower() not in KEYWORDS)
)

# Reals must print without an exponent for the lexer to read them back.
_real = st.integers(min_value=0, max_value=10**6).map(lambda n: n / 8 + 0.5)
_string = st.text(
    alphabet=st.characters(
        codec="ascii", exclude_characters="\n", min_codepoint=32
    ),
    max_size=12,
)
_literal_value = st.one_of(
    st.booleans(),
    st.integers(min_value=0, max_value=10**9),
    _real,
    _string,
)

_COMPARE = ("==", "!=", "<", "<=", ">", ">=")
_ARITH = ("+", "-", "*", "/", "%")


def body_strategies(ident: st.SearchStrategy):
    """``(expression, rule body)`` strategies over an identifier strategy.

    The round trip below draws arbitrary identifiers; the compiler/analyzer
    agreement test (``tests/dsl/test_resolution_agreement.py``) draws them
    from a pool that mostly resolves.
    """
    leaf_expr = st.one_of(
        _literal_value.map(ast.Literal),
        ident.map(ast.Name),
        st.builds(ast.FieldRef, ident, ident),
    )

    def compound(children: st.SearchStrategy) -> st.SearchStrategy:
        return st.one_of(
            st.builds(
                ast.Binary,
                st.sampled_from(_ARITH + _COMPARE + ("and", "or")),
                children,
                children,
            ),
            st.builds(ast.Unary, st.sampled_from(("-", "not")), children),
            st.builds(
                ast.Call, ident, st.lists(children, max_size=3).map(tuple)
            ),
        )

    expr = st.recursive(leaf_expr, compound, max_leaves=12)

    def stmt_block(children: st.SearchStrategy) -> st.SearchStrategy:
        stmts = st.lists(children, max_size=3).map(tuple)
        return st.one_of(
            st.builds(ast.ForEach, ident, ident, stmts),
            st.builds(ast.If, expr, stmts, stmts),
        )

    stmt = st.recursive(
        st.one_of(
            st.builds(ast.VarDecl, ident, ident),
            st.builds(ast.Assign, ident, expr),
            st.builds(ast.Return, expr),
            st.builds(ast.ExprStmt, expr),
        ),
        stmt_block,
        max_leaves=8,
    )
    rule_body = st.one_of(
        expr,
        st.builds(ast.Block, st.lists(stmt, max_size=4).map(tuple)),
    )
    return expr, rule_body


_expr, _rule_body = body_strategies(_ident)

_rule = st.one_of(
    st.builds(
        ast.RuleDecl,
        target_attr=_ident,
        target_port=st.none(),
        target_value=st.none(),
        body=_rule_body,
    ),
    st.builds(
        ast.RuleDecl,
        target_attr=st.none(),
        target_port=_ident,
        target_value=_ident,
        body=_rule_body,
    ),
)

_attr = st.builds(
    ast.AttrDecl,
    _ident,
    _ident,
    st.booleans(),
    st.one_of(st.none(), _literal_value),
)
_port = st.builds(
    ast.PortDecl,
    _ident,
    _ident,
    st.sampled_from(("plug", "socket")),
    st.booleans(),
)
_constraint = st.builds(
    ast.ConstraintDecl, _ident, _expr, st.one_of(st.none(), _ident)
)

_flow = st.builds(
    ast.FlowDeclNode,
    _ident,
    _ident,
    st.sampled_from(("plug", "socket")),
    st.one_of(st.none(), _literal_value),
)
_relationship = st.builds(
    ast.RelationshipDecl, _ident, st.lists(_flow, max_size=3).map(tuple)
)

_class = st.builds(
    ast.ClassDecl,
    name=_ident,
    supertype=st.one_of(st.none(), _ident),
    where=st.none(),
    ports=st.lists(_port, max_size=3).map(tuple),
    attrs=st.lists(_attr, max_size=3).map(tuple),
    rules=st.lists(_rule, max_size=3).map(tuple),
    constraints=st.lists(_constraint, max_size=2).map(tuple),
) | st.builds(
    # 'where' requires a supertype, so generate that shape separately.
    ast.ClassDecl,
    name=_ident,
    supertype=_ident,
    where=_expr,
    ports=st.lists(_port, max_size=2).map(tuple),
    attrs=st.lists(_attr, max_size=2).map(tuple),
    rules=st.lists(_rule, max_size=2).map(tuple),
    constraints=st.lists(_constraint, max_size=2).map(tuple),
)

_schema = st.builds(
    ast.SchemaDecl,
    st.lists(_relationship, max_size=2).map(tuple),
    st.lists(_class, max_size=2).map(tuple),
)


# -- normalisation ----------------------------------------------------------


def _normalise(node):
    """Strip spans; tag literal-ish values with their type so that the
    comparison distinguishes ``true`` from ``1`` and ``1`` from ``1.0``."""
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        fields = {}
        for f in dataclasses.fields(node):
            if f.name in ("line", "column"):
                continue
            fields[f.name] = _normalise(getattr(node, f.name))
        return (type(node).__name__, tuple(sorted(fields.items())))
    if isinstance(node, tuple):
        return tuple(_normalise(item) for item in node)
    if isinstance(node, (bool, int, float, str)) or node is None:
        return (type(node).__name__, node)
    raise AssertionError(f"unexpected AST payload: {node!r}")


# -- properties -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(_schema)
def test_print_parse_roundtrip(decl: ast.SchemaDecl) -> None:
    source = format_schema_decl(decl)
    reparsed = parse(source)
    assert _normalise(reparsed) == _normalise(decl), source


@settings(max_examples=120, deadline=None)
@given(_expr)
def test_expr_roundtrip_via_constraint(expr: ast.Expr) -> None:
    # Wrap the expression in a minimal constraint so it is parseable at
    # the top level; the printer must parenthesise enough that the parse
    # tree survives.
    decl = ast.ClassDecl(
        name="c",
        supertype=None,
        where=None,
        ports=(),
        attrs=(),
        rules=(),
        constraints=(ast.ConstraintDecl("k", expr, None),),
    )
    source = format_schema_decl(ast.SchemaDecl((), (decl,)))
    reparsed = parse(source)
    got = reparsed.classes[0].constraints[0].predicate
    assert _normalise(got) == _normalise(expr), format_expr(expr)
