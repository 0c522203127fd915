"""Type checking of rule bodies against the schema's atom types.

Works on the rule-body ASTs the model exposes (DSL-parsed schemas always
have them; compiled schemas have them for DSL-built rules).  The lattice is
deliberately small: the named atom types, with ``integer``/``real``/``time``
forming one *numeric* group (``time`` is an integer-valued logical clock and
the paper's examples freely add and compare times and integers), ``any``
matching everything, and ``unknown`` -- the result of a user-defined
function call or an unresolved name -- propagating silently so one unknown
does not cascade into noise.

Assignability into a typed target (attribute, flow value, local variable)
is stricter than operand compatibility: ``integer -> real`` widens and both
integer-valued types interconvert, but ``real`` into an ``integer`` slot
fails the runtime atom check, so it is reported (CA304/CA306).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import RuleInfo, SchemaModel
from repro.dsl import ast
from repro.dsl.resolve import Attr, Const, Recv, Resolution, Var

NUMERIC = {"integer", "real", "time"}

#: builtin signature table: name -> (argument kind, result).
#: "numeric" args must be numeric; result "join" is the numeric join of the
#: arguments, "arg" echoes the (single) argument's type.
_BUILTINS: dict[str, tuple[str, str]] = {
    "later_of": ("numeric", "time"),
    "later_than": ("numeric", "boolean"),
    "max": ("numeric", "join"),
    "min": ("numeric", "join"),
    "abs": ("numeric", "arg"),
    "sum": ("sequence", "unknown"),
    "len": ("sequence", "integer"),
    "void": ("any", "unknown"),
}

_CONSTANT_TYPES = {"TIME0": "time", "TIME_FUTURE": "time"}


def check(model: SchemaModel) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for cls_name, cls in model.classes.items():
        attrs = model.all_attrs(cls_name)
        for rule in cls.rules:
            if rule.body is None or not rule.ok:
                continue
            checker = _RuleChecker(
                model, cls_name, attrs, rule.resolution, diagnostics
            )
            checker.check_rule(rule)
    return diagnostics


def _join(a: str, b: str) -> str:
    """Numeric join: real beats time beats integer."""
    for t in ("real", "time", "integer"):
        if t in (a, b):
            return t
    return a


def _compatible(a: str, b: str) -> bool:
    """Operand compatibility for arithmetic/comparison purposes."""
    if "unknown" in (a, b) or "any" in (a, b):
        return True
    if a in NUMERIC and b in NUMERIC:
        return True
    return a == b


def _assignable(value_t: str, target_t: str) -> bool:
    """May a value of ``value_t`` be stored into a ``target_t`` slot?"""
    if "unknown" in (value_t, target_t) or "any" in (value_t, target_t):
        return True
    if value_t == target_t:
        return True
    if target_t == "real" and value_t in NUMERIC:
        return True  # runtime coerces integers up
    if target_t in ("integer", "time") and value_t in ("integer", "time"):
        return True  # both are integer-valued
    return False


@dataclass
class _RuleChecker:
    model: SchemaModel
    class_name: str
    attrs: dict
    resolution: Resolution
    diagnostics: list[Diagnostic]
    #: block variable -> type of what was last declared or assigned to it
    locals: dict[str, str] = field(default_factory=dict)

    def report(self, code: str, message: str, node: Any) -> None:
        self.diagnostics.append(
            Diagnostic(
                code,
                f"class {self.class_name!r}: {message}",
                getattr(node, "line", 0) or 0,
                getattr(node, "column", 0) or 0,
            )
        )

    # -- entry point -------------------------------------------------------

    def check_rule(self, rule: RuleInfo) -> None:
        target_t = self._target_type(rule)
        if isinstance(rule.body, ast.Block):
            self._block(rule.body.body, rule, target_t)
        else:
            value_t = self.expr(rule.body)
            self._check_result(rule, target_t, value_t, rule.body)

    def _target_type(self, rule: RuleInfo) -> str:
        if rule.kind in ("constraint", "predicate"):
            return "boolean"
        if rule.is_transmit:
            port_name, __, value = rule.target.partition(">")
            flow = self.model.flow_of(self.class_name, port_name, value)
            return flow.atom if flow is not None else "unknown"
        attr = self.attrs.get(rule.target)
        return attr.atom if attr is not None else "unknown"

    def _check_result(
        self, rule: RuleInfo, target_t: str, value_t: str, node: Any
    ) -> None:
        if rule.kind in ("constraint", "predicate"):
            if value_t not in ("boolean", "unknown", "any"):
                what = (
                    "constraint"
                    if rule.kind == "constraint"
                    else "subtype predicate"
                )
                self.report(
                    "CA307",
                    f"{rule.display or rule.target}: {what} has type "
                    f"{value_t!r}, not boolean (the value is coerced by "
                    f"truthiness)",
                    node,
                )
            return
        if not _assignable(value_t, target_t):
            self.report(
                "CA304",
                f"rule for {rule.display or rule.target!r} produces "
                f"{value_t!r} but the target is declared {target_t!r}",
                node,
            )

    # -- statements --------------------------------------------------------

    def _block(self, stmts, rule: RuleInfo, target_t: str) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.VarDecl):
                self.locals[stmt.name] = stmt.type_name
            elif isinstance(stmt, ast.Assign):
                value_t = self.expr(stmt.value)
                declared = self.locals.get(stmt.name)
                if declared is None:
                    self.locals[stmt.name] = value_t
                elif not _assignable(value_t, declared):
                    self.report(
                        "CA306",
                        f"assignment of {value_t!r} value to "
                        f"{declared!r} variable {stmt.name!r}",
                        stmt,
                    )
            elif isinstance(stmt, ast.ForEach):
                self._block(stmt.body, rule, target_t)
            elif isinstance(stmt, ast.If):
                cond_t = self.expr(stmt.cond)
                if cond_t not in ("boolean", "unknown", "any"):
                    self.report(
                        "CA303",
                        f"If condition has type {cond_t!r}, not boolean",
                        stmt.cond,
                    )
                self._block(stmt.then_body, rule, target_t)
                self._block(stmt.else_body, rule, target_t)
            elif isinstance(stmt, ast.Return):
                value_t = self.expr(stmt.value)
                self._check_result(rule, target_t, value_t, stmt)
            elif isinstance(stmt, ast.ExprStmt):
                self.expr(stmt.value)

    # -- expressions -------------------------------------------------------

    def expr(self, node: ast.Expr) -> str:
        if isinstance(node, ast.Literal):
            value = node.value
            if isinstance(value, bool):
                return "boolean"
            if isinstance(value, int):
                return "integer"
            if isinstance(value, float):
                return "real"
            if isinstance(value, str):
                return "string"
            return "unknown"
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Unary):
            operand_t = self.expr(node.operand)
            if node.op == "not":
                if operand_t not in ("boolean", "unknown", "any"):
                    self.report(
                        "CA303",
                        f"operand of 'not' has type {operand_t!r}, "
                        f"not boolean",
                        node,
                    )
                return "boolean"
            # unary minus
            if operand_t not in NUMERIC | {"unknown", "any"}:
                self.report(
                    "CA301",
                    f"unary '-' applied to {operand_t!r} operand",
                    node,
                )
                return "unknown"
            return operand_t if operand_t in NUMERIC else "unknown"
        if isinstance(node, ast.Binary):
            return self._binary(node)
        return self._ref(self.resolution.refs.get(id(node)))

    def _ref(self, ref: Any) -> str:
        """The type of what a name or field reference is bound to."""
        if isinstance(ref, Var):
            if ref.name in self.locals:
                return self.locals[ref.name]
            ref = self.resolution.variables[ref.name]
        if isinstance(ref, Const):
            return _CONSTANT_TYPES.get(ref.name, "unknown")
        if isinstance(ref, Attr):
            atom = self.attrs[ref.name].atom
        elif isinstance(ref, Recv):
            atom = self.model.flow_of(self.class_name, ref.port, ref.value).atom
        else:
            return "unknown"  # unresolved; the resolver reported it
        return atom if atom in self.model.atoms else "unknown"

    def _binary(self, node: ast.Binary) -> str:
        op = node.op
        left_t = self.expr(node.left)
        right_t = self.expr(node.right)
        if op in ("and", "or"):
            for side, t in ((node.left, left_t), (node.right, right_t)):
                if t not in ("boolean", "unknown", "any"):
                    self.report(
                        "CA303",
                        f"operand of {op!r} has type {t!r}, not boolean",
                        side,
                    )
            return "boolean"
        if op in ("==", "!="):
            if not _compatible(left_t, right_t):
                self.report(
                    "CA302",
                    f"{op!r} compares {left_t!r} with {right_t!r}",
                    node,
                )
            return "boolean"
        if op in ("<", "<=", ">", ">="):
            orderable = NUMERIC | {"string", "unknown", "any"}
            if (
                left_t not in orderable
                or right_t not in orderable
                or not _compatible(left_t, right_t)
            ):
                self.report(
                    "CA302",
                    f"{op!r} compares {left_t!r} with {right_t!r}",
                    node,
                )
            return "boolean"
        # arithmetic: + - * / %
        if op == "+" and left_t == right_t and left_t in ("string", "array"):
            return left_t  # concatenation
        for side, t in ((node.left, left_t), (node.right, right_t)):
            if t not in NUMERIC | {"unknown", "any"}:
                self.report(
                    "CA301",
                    f"operand of {op!r} has type {t!r}, not numeric",
                    side,
                )
                return "unknown"
        if "unknown" in (left_t, right_t) or "any" in (left_t, right_t):
            return "unknown"
        return _join(left_t, right_t)

    def _call(self, node: ast.Call) -> str:
        arg_types = [self.expr(arg) for arg in node.args]
        signature = _BUILTINS.get(node.fn)
        if signature is None or node.fn not in self.model.functions:
            return "unknown"
        arg_kind, result = signature
        if arg_kind == "numeric":
            for arg, t in zip(node.args, arg_types):
                if t not in NUMERIC | {"unknown", "any"}:
                    self.report(
                        "CA301",
                        f"argument of {node.fn}() has type {t!r}, "
                        f"not numeric",
                        arg,
                    )
        elif arg_kind == "sequence":
            for arg, t in zip(node.args, arg_types):
                if t not in ("array", "string", "unknown", "any"):
                    self.report(
                        "CA301",
                        f"argument of {node.fn}() has type {t!r}; "
                        f"expected an array or string",
                        arg,
                    )
        if result == "join":
            known = [t for t in arg_types if t in NUMERIC]
            if not known:
                return "unknown"
            out = known[0]
            for t in known[1:]:
                out = _join(out, t)
            return out
        if result == "arg":
            return arg_types[0] if arg_types and arg_types[0] in NUMERIC else "unknown"
        return result
