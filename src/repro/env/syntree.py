"""Syntax-directed editing over database objects.

The paper's evaluation machinery "extends techniques derived from Knuth's
attribute grammars as well as from more recent incremental attribute
evaluation work used in syntax directed editors", and Section 4 notes that
Cactis "can support a whole range of capabilities for dealing with programs
based on attribute grammars" (the Cornell Program Synthesizer lineage).

This module closes that loop: an arithmetic-expression syntax tree stored
*as Cactis objects*, with the classic synthesized attributes --

* ``value``  -- the subtree's computed value,
* ``depth``  -- subtree height (a display attribute),
* ``text``   -- the pretty-printed form, parentheses per precedence --

all derived by ordinary rules over a ``child`` relationship.  Editing a
leaf (``set_literal``) or restructuring the tree (``replace_child``) is a
plain database primitive; the incremental engine updates exactly the spine
above the edit, which is the editor-response-time property the cited
syntax-editor work is about.
"""

from __future__ import annotations

from repro.core.database import Database
from repro.core.rules import AttributeTarget, Local, Received, Rule, TransmitTarget
from repro.core.schema import (
    AttrKind,
    AttributeDef,
    End,
    FlowDecl,
    ObjectClass,
    PortDef,
    RelationshipType,
    Schema,
)
from repro.errors import CactisError

_OPS = {
    "+": (1, lambda a, b: a + b),
    "-": (1, lambda a, b: a - b),
    "*": (2, lambda a, b: a * b),
    "/": (2, lambda a, b: a // b if b else 0),
}


class SynTreeError(CactisError):
    """Syntax-tree misuse (arity violations, unknown operators)."""


def expression_schema() -> Schema:
    """Nodes: ``literal`` leaves and binary ``operation`` nodes."""
    schema = Schema()
    schema.add_relationship_type(
        RelationshipType(
            "child",
            [
                FlowDecl("value", "integer", End.PLUG, default=0),
                FlowDecl("depth", "integer", End.PLUG, default=0),
                FlowDecl("text", "string", End.PLUG, default="?"),
                FlowDecl("prec", "integer", End.PLUG, default=99),
            ],
        )
    )

    def combine_value(op: str, vs: list[int]) -> int:
        if len(vs) != 2:
            return 0  # incomplete tree: placeholder, per dummy semantics
        __, fn = _OPS[op]
        return fn(vs[0], vs[1])

    def combine_text(op: str, texts: list[str], precs: list[int]) -> str:
        if len(texts) != 2:
            return "?"
        prec, __ = _OPS[op]
        left = f"({texts[0]})" if precs[0] < prec else texts[0]
        right = f"({texts[1]})" if precs[1] <= prec else texts[1]
        return f"{left} {op} {right}"

    schema.add_class(
        ObjectClass(
            "literal",
            attributes=[
                AttributeDef("number", "integer"),
            ],
            ports=[PortDef("parent", "child", End.PLUG)],
            rules=[
                Rule(TransmitTarget("parent", "value"),
                     {"n": Local("number")}, lambda n: n),
                Rule(TransmitTarget("parent", "depth"), {}, lambda: 1),
                Rule(TransmitTarget("parent", "text"),
                     {"n": Local("number")}, lambda n: str(n)),
                Rule(TransmitTarget("parent", "prec"), {}, lambda: 99),
            ],
        )
    )
    schema.add_class(
        ObjectClass(
            "operation",
            attributes=[
                AttributeDef("op", "string", default="+"),
                AttributeDef("value", "integer", AttrKind.DERIVED),
                AttributeDef("depth", "integer", AttrKind.DERIVED),
                AttributeDef("text", "string", AttrKind.DERIVED),
            ],
            ports=[
                PortDef("parent", "child", End.PLUG),
                PortDef("children", "child", End.SOCKET, multi=True),
            ],
            rules=[
                Rule(
                    AttributeTarget("value"),
                    {"op": Local("op"), "vs": Received("children", "value")},
                    combine_value,
                ),
                Rule(
                    AttributeTarget("depth"),
                    {"ds": Received("children", "depth")},
                    lambda ds: 1 + max(ds, default=0),
                ),
                Rule(
                    AttributeTarget("text"),
                    {
                        "op": Local("op"),
                        "texts": Received("children", "text"),
                        "precs": Received("children", "prec"),
                    },
                    combine_text,
                ),
                Rule(TransmitTarget("parent", "value"),
                     {"v": Local("value")}, lambda v: v),
                Rule(TransmitTarget("parent", "depth"),
                     {"d": Local("depth")}, lambda d: d),
                Rule(TransmitTarget("parent", "text"),
                     {"t": Local("text")}, lambda t: t),
                Rule(
                    TransmitTarget("parent", "prec"),
                    {"op": Local("op")},
                    lambda op: _OPS[op][0],
                ),
            ],
        )
    )
    return schema.freeze()


class ExpressionTree:
    """An editable expression whose semantics live in the database."""

    def __init__(self, db: Database | None = None) -> None:
        self.db = db if db is not None else Database(expression_schema())

    # -- construction ------------------------------------------------------------

    def literal(self, number: int) -> int:
        return self.db.create("literal", number=number)

    def operation(self, op: str, left: int, right: int) -> int:
        if op not in _OPS:
            raise SynTreeError(f"unknown operator {op!r}")
        with self._atomic("operation"):
            node = self.db.create("operation", op=op)
            self.db.connect(node, "children", left, "parent")
            self.db.connect(node, "children", right, "parent")
        return node

    def _atomic(self, label: str):
        """One editor gesture = one transaction (so Undo is gesture-level).

        Nested gestures (parse building operations) join the outer
        transaction instead of opening their own.
        """
        from contextlib import nullcontext

        if self.db.txn.in_transaction:
            return nullcontext()
        return self.db.transaction(label)

    def parse(self, source: str) -> int:
        """Build a tree from an infix string (reusing the mini parser)."""
        from repro.env.flow import minilang as ml

        program = ml.parse_program(f"__root__ = {source};")
        assign = program.body[0]
        assert isinstance(assign, ml.Assign)

        def build(expr) -> int:
            if isinstance(expr, ml.Num):
                return self.literal(expr.value)
            if isinstance(expr, ml.BinOp) and expr.op in _OPS:
                return self.operation(
                    expr.op, build(expr.left), build(expr.right)
                )
            raise SynTreeError(f"unsupported construct {expr!r}")

        with self._atomic("parse"):
            return build(assign.value)

    # -- editing ------------------------------------------------------------

    def set_literal(self, leaf: int, number: int) -> None:
        self.db.set_attr(leaf, "number", number)

    def set_operator(self, node: int, op: str) -> None:
        if op not in _OPS:
            raise SynTreeError(f"unknown operator {op!r}")
        self.db.set_attr(node, "op", op)

    def replace_child(self, node: int, old_child: int, new_child: int) -> None:
        """Structural edit: swap a subtree, preserving operand order."""
        children = self.db.peers(node, "children")
        if old_child not in children:
            raise SynTreeError(f"{old_child} is not a child of {node}")
        index = children.index(old_child)
        # Disconnect everything from `index` on, then reconnect with the
        # replacement in place (connection order is operand order).
        with self._atomic("replace_child"):
            tail = children[index:]
            for child in tail:
                self.db.disconnect(node, "children", child, "parent")
            tail[0] = new_child
            for child in tail:
                self.db.connect(node, "children", child, "parent")

    # -- readout ------------------------------------------------------------

    def value(self, node: int) -> int:
        if self.db.instance(node).class_name == "literal":
            return self.db.get_attr(node, "number")
        return self.db.get_attr(node, "value")

    def text(self, node: int) -> str:
        if self.db.instance(node).class_name == "literal":
            return str(self.db.get_attr(node, "number"))
        return self.db.get_attr(node, "text")

    def depth(self, node: int) -> int:
        if self.db.instance(node).class_name == "literal":
            return 1
        return self.db.get_attr(node, "depth")
