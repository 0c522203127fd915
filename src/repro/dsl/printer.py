"""Pretty-printer: schema objects back to data-language source.

The inverse of :mod:`repro.dsl.compiler` for DSL-authored schemas: rule
bodies compiled from source keep their AST inside the compiled body
(:class:`~repro.compile.codegen.CompiledBody`), so they unparse exactly;
schemas (or rules) written against the Python API have opaque callables
and cannot be printed (``strict=True`` raises, otherwise a
``/* native rule */`` marker is emitted).

Round-tripping ``compile -> print -> compile`` is tested to produce
behaviourally identical schemas, which makes the printer safe to use for
schema export, documentation, and diffing.
"""

from __future__ import annotations

from typing import Any

# The module, not its names: repro.compile.codegen imports repro.dsl, whose
# package init imports this module.
from repro.compile import codegen
from repro.core.rules import AttributeTarget, Constraint, Rule
from repro.core.schema import ObjectClass, RelationshipType, Schema
from repro.dsl import ast
from repro.errors import DslError

_INDENT = "    "


class UnprintableRule(DslError):
    """A rule/constraint has no AST (native Python body)."""


# ---------------------------------------------------------------------------
# expressions / statements
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def format_expr(expr: ast.Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            escaped = value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return repr(value)
    if isinstance(expr, ast.Name):
        return expr.ident
    if isinstance(expr, ast.FieldRef):
        return f"{expr.base}.{expr.field_name}"
    if isinstance(expr, ast.Call):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.fn}({args})"
    if isinstance(expr, ast.Unary):
        if expr.op == "not":
            # 'not' sits between 'and' and the comparisons in the grammar,
            # so it must be parenthesised as an operand of anything tighter.
            text = f"not {format_expr(expr.operand, 3)}"
            return f"({text})" if parent_prec > 3 else text
        return f"-{format_expr(expr.operand, 7)}"
    if isinstance(expr, ast.Binary):
        prec = _PRECEDENCE.get(expr.op, 3)
        # Comparisons are non-associative in the grammar: a comparison
        # operand that is itself a comparison must be parenthesised.
        left_prec = prec + 1 if prec == 4 else prec
        text = (
            f"{format_expr(expr.left, left_prec)} {expr.op} "
            f"{format_expr(expr.right, prec + 1)}"
        )
        return f"({text})" if prec < parent_prec else text
    raise DslError(f"cannot print expression {expr!r}")  # pragma: no cover


def format_stmt(stmt: ast.Stmt, depth: int) -> list[str]:
    pad = _INDENT * depth
    if isinstance(stmt, ast.VarDecl):
        return [f"{pad}{stmt.name} : {stmt.type_name};"]
    if isinstance(stmt, ast.Assign):
        return [f"{pad}{stmt.name} := {format_expr(stmt.value)};"]
    if isinstance(stmt, ast.ForEach):
        lines = [f"{pad}for each {stmt.var} related to {stmt.port} do"]
        for inner in stmt.body:
            lines.extend(format_stmt(inner, depth + 1))
        lines.append(f"{pad}end for;")
        return lines
    if isinstance(stmt, ast.If):
        lines = [f"{pad}if {format_expr(stmt.cond)} then"]
        for inner in stmt.then_body:
            lines.extend(format_stmt(inner, depth + 1))
        if stmt.else_body:
            lines.append(f"{pad}else")
            for inner in stmt.else_body:
                lines.extend(format_stmt(inner, depth + 1))
        lines.append(f"{pad}end if;")
        return lines
    if isinstance(stmt, ast.Return):
        return [f"{pad}return {format_expr(stmt.value)};"]
    if isinstance(stmt, ast.ExprStmt):
        return [f"{pad}{format_expr(stmt.value)};"]
    raise DslError(f"cannot print statement {stmt!r}")  # pragma: no cover


def format_body(body: ast.RuleBody, depth: int) -> str:
    if isinstance(body, ast.Block):
        pad = _INDENT * depth
        lines = ["begin"]
        for stmt in body.body:
            lines.extend(format_stmt(stmt, depth + 1))
        lines.append(f"{pad}end")
        return "\n".join(lines)
    return format_expr(body)


def _ast_of(callable_body: Any) -> ast.RuleBody | None:
    if isinstance(callable_body, codegen.CompiledBody):
        return callable_body.resolution.body
    return None


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


def format_relationship(rel: RelationshipType) -> str:
    lines = [f"relationship {rel.name} is"]
    for flow in rel.flows.values():
        default = ""
        if flow.default is not None:
            default = f" default {format_expr(ast.Literal(flow.default))}"
        lines.append(
            f"{_INDENT}{flow.value} : {flow.atom} from "
            f"{flow.sent_by.value}{default};"
        )
    lines.append("end relationship;")
    return "\n".join(lines)


def format_class(cls: ObjectClass, strict: bool = True) -> str:
    header = f"object class {cls.name}"
    if cls.supertype is not None:
        header += f" subtype of {cls.supertype}"
        if cls.predicate is not None:
            where_ast = _ast_of(cls.predicate.predicate)
            if where_ast is None:
                if strict:
                    raise UnprintableRule(
                        f"subtype predicate of {cls.name!r} has no AST"
                    )
                header += " where /* native predicate */ true"
            else:
                header += f" where {format_expr(where_ast)}"
    lines = [header + " is"]
    if cls.ports:
        lines.append(f"{_INDENT}relationships")
        for port in cls.ports.values():
            multi = "multi " if port.multi else ""
            lines.append(
                f"{_INDENT*2}{port.name} : {port.rel_type} "
                f"{multi}{port.end.value};"
            )
    if cls.attributes:
        lines.append(f"{_INDENT}attributes")
        for attr in cls.attributes.values():
            default = ""
            if attr.default is not None:
                default = f" = {format_expr(ast.Literal(attr.default))}"
            lines.append(f"{_INDENT*2}{attr.name} : {attr.atom}{default};")
    if cls.rules:
        lines.append(f"{_INDENT}rules")
        for rule in cls.rules:
            lines.append(_format_rule(rule, strict))
    if cls.constraints:
        lines.append(f"{_INDENT}constraints")
        for constraint in cls.constraints:
            lines.append(_format_constraint(constraint, strict))
    lines.append("end object;")
    return "\n".join(lines)


def _format_rule(rule: Rule, strict: bool) -> str:
    if isinstance(rule.target, AttributeTarget):
        target = rule.target.attr
    else:
        target = f"{rule.target.port} {rule.target.value}"
    body_ast = _ast_of(rule.body)
    if body_ast is None:
        if strict:
            raise UnprintableRule(f"rule {rule.name!r} has no AST")
        return f"{_INDENT*2}{target} = /* native rule */ 0;"
    return f"{_INDENT*2}{target} = {format_body(body_ast, 2)};"


def _format_constraint(constraint: Constraint, strict: bool) -> str:
    body_ast = _ast_of(constraint.predicate)
    if body_ast is None:
        if strict:
            raise UnprintableRule(
                f"constraint {constraint.name!r} has no AST"
            )
        return f"{_INDENT*2}{constraint.name} : /* native */ true;"
    text = format_expr(body_ast) if not isinstance(body_ast, ast.Block) else None
    if text is None:
        raise UnprintableRule(
            f"constraint {constraint.name!r} has a block body; only "
            f"expression constraints are printable"
        )
    return f"{_INDENT*2}{constraint.name} : {text};"


# ---------------------------------------------------------------------------
# AST-level printing (no compilation required)
# ---------------------------------------------------------------------------


def format_relationship_decl(rel: ast.RelationshipDecl) -> str:
    lines = [f"relationship {rel.name} is"]
    for flow in rel.flows:
        default = ""
        if flow.default is not None:
            default = f" default {format_expr(ast.Literal(flow.default))}"
        lines.append(
            f"{_INDENT}{flow.value} : {flow.type_name} from "
            f"{flow.sent_by}{default};"
        )
    lines.append("end relationship;")
    return "\n".join(lines)


def format_class_decl(cls: ast.ClassDecl) -> str:
    header = f"object class {cls.name}"
    if cls.supertype is not None:
        header += f" subtype of {cls.supertype}"
        if cls.where is not None:
            header += f" where {format_expr(cls.where)}"
    lines = [header + " is"]
    if cls.ports:
        lines.append(f"{_INDENT}relationships")
        for port in cls.ports:
            multi = "multi " if port.multi else ""
            lines.append(
                f"{_INDENT*2}{port.name} : {port.rel_type} {multi}{port.end};"
            )
    if cls.attrs:
        lines.append(f"{_INDENT}attributes")
        for attr in cls.attrs:
            derived = " derived" if attr.derived else ""
            default = ""
            if attr.default is not None:
                default = f" = {format_expr(ast.Literal(attr.default))}"
            lines.append(
                f"{_INDENT*2}{attr.name} : {attr.type_name}{derived}{default};"
            )
    if cls.rules:
        lines.append(f"{_INDENT}rules")
        for rule in cls.rules:
            if rule.target_attr is not None:
                target = rule.target_attr
            else:
                target = f"{rule.target_port} {rule.target_value}"
            lines.append(
                f"{_INDENT*2}{target} = {format_body(rule.body, 2)};"
            )
    if cls.constraints:
        lines.append(f"{_INDENT}constraints")
        for constraint in cls.constraints:
            recover = (
                f" recover {constraint.recover}"
                if constraint.recover is not None
                else ""
            )
            lines.append(
                f"{_INDENT*2}{constraint.name} : "
                f"{format_expr(constraint.predicate)}{recover};"
            )
    lines.append("end object;")
    return "\n".join(lines)


def format_schema_decl(decl: ast.SchemaDecl) -> str:
    """Render a parsed schema declaration back to source text.

    Unlike :func:`format_schema` this needs no compilation, preserves
    declaration order exactly, and prints the ``derived`` marker on
    attributes (the object-level printer infers derivedness from rules).
    ``parse(format_schema_decl(parse(src)))`` is the identity up to
    source spans (property-tested).
    """
    parts = [format_relationship_decl(rel) for rel in decl.relationships]
    parts.extend(format_class_decl(cls) for cls in decl.classes)
    return "\n\n".join(parts) + "\n"


def format_schema(schema: Schema, strict: bool = True) -> str:
    """Render a whole schema back to data-language source."""
    parts = [
        format_relationship(rel)
        for rel in schema.relationship_types.values()
    ]
    # Emit superclasses before their subclasses so the result recompiles.
    emitted: set[str] = set()

    def emit(name: str) -> None:
        if name in emitted:
            return
        cls = schema.classes[name]
        if cls.supertype is not None and cls.supertype in schema.classes:
            emit(cls.supertype)
        emitted.add(name)
        parts.append(format_class(cls, strict=strict))

    for name in schema.classes:
        emit(name)
    return "\n\n".join(parts) + "\n"
