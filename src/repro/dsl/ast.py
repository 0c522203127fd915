"""AST node definitions for the Cactis data language.

The language reproduces the paper's Figures 1-4: ``Object Class ... is``
declarations with ``Relationships`` / ``Attributes`` / ``Rules`` /
``Constraints`` sections, rule bodies that are either a single expression or
a ``Begin ... End`` block with local variables, assignments,
``For Each x Related To port Do ... End`` loops, ``If/Then/Else`` and
``return``.  Relationship types are declared separately with the values
that flow across them.

All nodes carry a source span -- ``line`` and ``column`` taken from the
lexer token that introduced them -- for error reporting and diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    """An integer, real, string, or boolean literal."""

    value: Any
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Name:
    """A bare identifier: attribute, local variable, or named constant."""

    ident: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class FieldRef:
    """``base.field`` -- a value received across a relationship.

    ``base`` is either a ``For Each`` loop variable or the name of a
    single-valued port; ``field`` is the flow value being consumed.
    """

    base: str
    field_name: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Call:
    """``fn(arg, ...)`` -- builtin or environment-registered function."""

    fn: str
    args: tuple["Expr", ...]
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Unary:
    """``-x`` or ``not x``."""

    op: str
    operand: "Expr"
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Binary:
    """Arithmetic, comparison, or boolean operation."""

    op: str
    left: "Expr"
    right: "Expr"
    line: int = 0
    column: int = 0


Expr = Literal | Name | FieldRef | Call | Unary | Binary


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarDecl:
    """``name : type ;`` -- a block-local variable."""

    name: str
    type_name: str
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Assign:
    """``name := expr ;``"""

    name: str
    value: Expr
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class ForEach:
    """``For Each var Related To port Do ... End``"""

    var: str
    port: str
    body: tuple["Stmt", ...]
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class If:
    """``If cond Then ... [Else ...] End``"""

    cond: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...] = ()
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Return:
    """``return(expr) ;``"""

    value: Expr
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class ExprStmt:
    """A bare expression evaluated for effect (e.g. Figure 4's VOID call)."""

    value: Expr
    line: int = 0
    column: int = 0


Stmt = VarDecl | Assign | ForEach | If | Return | ExprStmt


@dataclass(frozen=True)
class Block:
    """``Begin ... End`` rule body."""

    body: tuple[Stmt, ...]
    line: int = 0
    column: int = 0


RuleBody = Expr | Block


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowDeclNode:
    """``value : type from plug|socket [default literal] ;``"""

    value: str
    type_name: str
    sent_by: str  # "plug" | "socket"
    default: Any = None
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class RelationshipDecl:
    """``Relationship name is <flows> End``"""

    name: str
    flows: tuple[FlowDeclNode, ...]
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class PortDecl:
    """``name : reltype [Multi] Plug|Socket ;``"""

    name: str
    rel_type: str
    end: str  # "plug" | "socket"
    multi: bool = False
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class AttrDecl:
    """``name : type [derived] [= default] ;``"""

    name: str
    type_name: str
    derived: bool = False
    default: Any = None
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class RuleDecl:
    """``attr = body ;`` or ``port value = body ;`` (transmitted)."""

    target_attr: str | None
    target_port: str | None
    target_value: str | None
    body: RuleBody
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class ConstraintDecl:
    """``name : expr [recover fn] ;``"""

    name: str
    predicate: Expr
    recover: str | None = None
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class ClassDecl:
    """``Object Class name [subtype of super [where expr]] is ... End Object``"""

    name: str
    supertype: str | None
    where: Expr | None
    ports: tuple[PortDecl, ...]
    attrs: tuple[AttrDecl, ...]
    rules: tuple[RuleDecl, ...]
    constraints: tuple[ConstraintDecl, ...]
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class SchemaDecl:
    """A whole source file: relationship and class declarations."""

    relationships: tuple[RelationshipDecl, ...] = ()
    classes: tuple[ClassDecl, ...] = ()


# ---------------------------------------------------------------------------
# traversal
# ---------------------------------------------------------------------------


def children(node: Any) -> tuple:
    """Direct sub-nodes of an expression, statement or block, in source order.

    The one description of the tree's shape: walkers that only need to
    visit or count nodes iterate this instead of re-listing node types.
    """
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, Call):
        return node.args
    if isinstance(node, (Assign, Return, ExprStmt)):
        return (node.value,)
    if isinstance(node, If):
        return (node.cond, *node.then_body, *node.else_body)
    if isinstance(node, (ForEach, Block)):
        return node.body
    return ()  # literals, names, field references, variable declarations


def walk(node: Any):
    """``node`` and everything below it, pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)
