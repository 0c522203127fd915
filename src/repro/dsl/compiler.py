"""Compiler from the data language AST to schema objects.

The paper credits a "data language processor" for Cactis; this module plays
that role.  :func:`compile_schema` turns parsed declarations into
:class:`~repro.core.schema.Schema` contents:

* relationship declarations become :class:`RelationshipType` objects;
* class declarations become :class:`ObjectClass` objects, with ``subtype of
  ... where <expr>`` producing predicate subtypes;
* each rule body is resolved once (:mod:`repro.dsl.resolve`) -- bare names
  that resolve to class attributes become :class:`Local` inputs, and
  ``x.value`` references become :class:`Received` inputs (``x`` being a
  ``For Each`` loop variable over a multi port, or the name of a
  single-valued port) -- and compiled into a closure that interprets the
  body through those bindings.  Because dependencies are declared, compiled
  rules are indistinguishable from hand-written ones to the evaluation
  engine.

Semantics notes:

* an attribute that has a rule in the same class declaration is promoted to
  *derived* automatically (the paper's figures do not annotate this);
* ``For Each`` requires a ``Multi`` port; iteration count comes from the
  received value lists, so a loop body that reads no transmitted value gets
  an implicit dependency on the first value the port can receive;
* ``/`` is integer division when both operands are integers (C semantics),
  float division otherwise;
* functions available in rule bodies are the registered builtins
  (``later_of``, ``later_than``, ``max``, ``min``, ``abs``, ``sum``,
  ``len``, ``void``) plus anything passed via ``functions=``; named
  constants are ``TIME0`` and ``TIME_FUTURE`` plus anything in
  ``constants=``.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping

from repro.core import atoms as atoms_mod
from repro.core.rules import (
    AttributeTarget,
    Constraint,
    Local,
    Received,
    Rule,
    SubtypePredicate,
    TransmitTarget,
)
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
from repro.dsl import ast
from repro.dsl.parser import parse
from repro.dsl.resolve import (
    Attr,
    Const,
    Port,
    Recv,
    Resolution,
    Scope,
    Var,
    resolve,
)
from repro.errors import DslCompileError, DslRuntimeError

DEFAULT_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "later_of": atoms_mod.later_of,
    "later_than": atoms_mod.later_than,
    "max": max,
    "min": min,
    "abs": abs,
    "sum": sum,
    "len": len,
    "void": lambda value: None,
}

DEFAULT_CONSTANTS: dict[str, Any] = {
    "TIME0": atoms_mod.TIME0,
    "TIME_FUTURE": atoms_mod.TIME_FUTURE,
}


def compile_schema(
    source: str,
    schema: Schema | None = None,
    functions: Mapping[str, Callable[..., Any]] | None = None,
    constants: Mapping[str, Any] | None = None,
    freeze: bool = True,
) -> Schema:
    """Compile schema source text, returning the (extended) schema.

    ``schema`` may be an existing, unfrozen schema to extend (the dynamic
    tool-addition path); by default a fresh one is created.  ``functions``
    and ``constants`` extend the rule-body environment -- the make facility
    registers ``file_mod_time`` and ``system_command`` here.
    """
    decl = parse(source)
    compiler = SchemaCompiler(
        schema if schema is not None else Schema(),
        functions=functions,
        constants=constants,
    )
    compiler.compile(decl)
    if freeze:
        compiler.schema.freeze()
    return compiler.schema


class SchemaCompiler:
    """Two-pass compiler: declarations first, then rule bodies."""

    def __init__(
        self,
        schema: Schema,
        functions: Mapping[str, Callable[..., Any]] | None = None,
        constants: Mapping[str, Any] | None = None,
    ) -> None:
        self.schema = schema
        self.functions = dict(DEFAULT_FUNCTIONS)
        if functions:
            self.functions.update(functions)
        self.constants = dict(DEFAULT_CONSTANTS)
        if constants:
            self.constants.update(constants)

    def compile(self, decl: ast.SchemaDecl) -> None:
        for rel in decl.relationships:
            self._compile_relationship(rel)
        # Pass 1: register classes with attributes and ports so rule
        # compilation can resolve names across classes and inheritance.
        skeletons: list[tuple[ast.ClassDecl, ObjectClass]] = []
        for cls_decl in decl.classes:
            skeletons.append((cls_decl, self._compile_class_skeleton(cls_decl)))
        # Pass 2: compile rule bodies, constraints, and subtype predicates.
        for cls_decl, cls in skeletons:
            self._compile_class_rules(cls_decl, cls)

    # -- declarations ------------------------------------------------------

    def _compile_relationship(self, decl: ast.RelationshipDecl) -> None:
        flows = [
            FlowDecl(
                value=f.value,
                atom=f.type_name,
                sent_by=End.PLUG if f.sent_by == "plug" else End.SOCKET,
                default=f.default,
            )
            for f in decl.flows
        ]
        self.schema.add_relationship_type(RelationshipType(decl.name, flows))

    def _compile_class_skeleton(self, decl: ast.ClassDecl) -> ObjectClass:
        ruled_attrs = {r.target_attr for r in decl.rules if r.target_attr}
        attributes = []
        for attr in decl.attrs:
            derived = attr.derived or attr.name in ruled_attrs
            attributes.append(
                AttributeDef(
                    name=attr.name,
                    atom=attr.type_name,
                    kind=AttrKind.DERIVED if derived else AttrKind.INTRINSIC,
                    default=attr.default,
                )
            )
        ports = [
            PortDef(
                name=p.name,
                rel_type=p.rel_type,
                end=End.PLUG if p.end == "plug" else End.SOCKET,
                multi=p.multi,
            )
            for p in decl.ports
        ]
        cls = ObjectClass(
            decl.name,
            attributes=attributes,
            ports=ports,
            supertype=decl.supertype,
        )
        self.schema.add_class(cls)
        return cls

    # -- rules ------------------------------------------------------------

    def _compile_class_rules(self, decl: ast.ClassDecl, cls: ObjectClass) -> None:
        scope = self.class_scope(decl.name)
        for rule_decl in decl.rules:
            cls.add_rule(self._compile_rule(scope, rule_decl))
        for constraint_decl in decl.constraints:
            cls.add_constraint(self._compile_constraint(scope, constraint_decl))
        if decl.where is not None:
            inputs, evaluator = self._compile_body(scope, decl.where, decl.line, decl.column)
            cls.predicate = SubtypePredicate(
                subtype_name=decl.name,
                inputs=inputs,
                predicate=_booleanize(evaluator),
            )

    def _compile_rule(self, scope: Scope, decl: ast.RuleDecl) -> Rule:
        inputs, evaluator = self._compile_body(scope, decl.body, decl.line, decl.column)
        if decl.target_attr is not None:
            target: AttributeTarget | TransmitTarget = AttributeTarget(decl.target_attr)
            name = f"{scope.class_name}.{decl.target_attr}"
        else:
            assert decl.target_port is not None and decl.target_value is not None
            target = TransmitTarget(decl.target_port, decl.target_value)
            name = f"{scope.class_name}.{decl.target_port}>{decl.target_value}"
        return Rule(target=target, inputs=inputs, body=evaluator, name=name)

    def _compile_constraint(
        self, scope: Scope, decl: ast.ConstraintDecl
    ) -> Constraint:
        inputs, evaluator = self._compile_body(scope, decl.predicate, decl.line, decl.column)
        recovery = None
        if decl.recover is not None:
            recovery = self.functions.get(decl.recover)
            if recovery is None:
                raise DslCompileError(
                    f"constraint {decl.name!r}: unknown recovery function "
                    f"{decl.recover!r} (register it via functions=)",
                    line=decl.line,
                    column=decl.column,
                )
        return Constraint(
            name=decl.name,
            inputs=inputs,
            predicate=_booleanize(evaluator),
            recovery=recovery,
        )

    def _compile_body(
        self, scope: Scope, body: ast.RuleBody, line: int, column: int = 0
    ):
        """Compile one rule/constraint/where body to ``(inputs, evaluator)``.

        The first resolution problem is a :class:`DslCompileError` at the
        offending node; ``line``/``column`` (the declaration, or a query's
        ``where`` token) stand in for nodes built without a position.
        """

        def fail(code: str, message: str, node: Any) -> None:
            raise DslCompileError(
                message, line=node.line or line, column=node.column or column
            )

        resolution = resolve(body, scope, fail)
        inputs: dict[str, Local | Received] = {
            Attr(attr).kw: Local(attr) for attr in sorted(resolution.locals)
        }
        for port, value in sorted(resolution.received):
            inputs[Recv(port, value, None).kw] = Received(port, value)
        return inputs, _RuleInterpreter(self, scope.class_name, resolution)

    def class_scope(self, class_name: str) -> Scope:
        """What rule bodies of ``class_name`` can see, inheritance flattened."""
        attrs: set[str] = set()
        ports: dict[str, Port] = {}
        for cls in reversed(self._lineage(class_name)):
            attrs.update(cls.attributes)
            for port in cls.ports.values():
                rel = self.schema.relationship_types.get(port.rel_type)
                received = None if rel is None else tuple(
                    f.value for f in rel.values_received_by(port.end)
                )
                ports[port.name] = Port(port.multi, port.rel_type, received)
        return Scope(
            class_name,
            attrs,
            ports,
            self.constants,
            self.functions,
            self.schema.atoms,
        )

    def _lineage(self, class_name: str) -> list[ObjectClass]:
        chain: list[ObjectClass] = []
        current: str | None = class_name
        while current is not None:
            cls = self.schema.classes.get(current)
            if cls is None:
                raise DslCompileError(f"unknown supertype {current!r}")
            chain.append(cls)
            current = cls.supertype
        return chain


class _ReturnSignal(Exception):
    """Internal control flow for ``return`` statements."""

    def __init__(self, value: Any) -> None:
        self.value = value


def _div(left: Any, right: Any) -> Any:
    """DSL division: C-style integer division when both operands are ints."""
    if isinstance(left, int) and isinstance(right, int):
        return left // right
    return left / right


#: the strict binary operators (``and``/``or`` short-circuit and are
#: handled apart).  Every entry but ``/`` means what Python's infix
#: operator of the same spelling means, which the code generator relies on.
BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "%": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class _RuleInterpreter:
    """The compiled rule body: a callable over the declared inputs."""

    def __init__(
        self, compiler: SchemaCompiler, class_name: str, resolution: Resolution
    ) -> None:
        self.functions = compiler.functions
        self.constants = compiler.constants
        self.atoms = compiler.schema.atoms
        self.class_name = class_name
        self.body = resolution.body
        self.resolution = resolution
        self.__name__ = f"dsl_rule_{class_name}"

    def __call__(self, **kwargs: Any) -> Any:
        env = _Env(kwargs)
        if isinstance(self.body, ast.Block):
            try:
                self._exec_stmts(self.body.body, env)
            except _ReturnSignal as signal:
                return signal.value
            raise DslRuntimeError(
                f"rule body in class {self.class_name!r} finished "
                f"without a return statement"
            )
        return self._eval(self.body, env)

    # -- statements ------------------------------------------------------------

    def _exec_stmts(self, stmts, env: "_Env") -> None:
        for stmt in stmts:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.Stmt, env: "_Env") -> None:
        if isinstance(stmt, ast.VarDecl):
            env.vars[stmt.name] = self.atoms.get(stmt.type_name).default
        elif isinstance(stmt, ast.Assign):
            env.vars[stmt.name] = self._eval(stmt.value, env)
        elif isinstance(stmt, ast.ForEach):
            loop = self.resolution.refs[id(stmt)]
            for index in range(len(env.kwargs[loop.kw])):
                env.index[loop.depth] = index
                self._exec_stmts(stmt.body, env)
        elif isinstance(stmt, ast.If):
            if self._eval(stmt.cond, env):
                self._exec_stmts(stmt.then_body, env)
            else:
                self._exec_stmts(stmt.else_body, env)
        elif isinstance(stmt, ast.Return):
            raise _ReturnSignal(self._eval(stmt.value, env))
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.value, env)
        else:  # pragma: no cover - exhaustive over Stmt
            raise TypeError(f"unknown statement {stmt!r}")

    # -- expressions ------------------------------------------------------------

    def _eval(self, expr: ast.Expr, env: "_Env") -> Any:
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Call):
            fn = self.functions[expr.fn]
            args = [self._eval(arg, env) for arg in expr.args]
            return fn(*args)
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand, env)
            return (not operand) if expr.op == "not" else -operand
        if isinstance(expr, ast.Binary):
            op = expr.op
            if op == "and":
                return bool(self._eval(expr.left, env)) and bool(
                    self._eval(expr.right, env)
                )
            if op == "or":
                return bool(self._eval(expr.left, env)) or bool(
                    self._eval(expr.right, env)
                )
            return BINARY_OPS[op](
                self._eval(expr.left, env), self._eval(expr.right, env)
            )
        # A name or field reference: read what the resolver bound it to.
        ref = self.resolution.refs.get(id(expr))
        if isinstance(ref, Var):
            if ref.name in env.vars:
                return env.vars[ref.name]
            ref = self.resolution.variables[ref.name]
        if isinstance(ref, Attr):
            return env.kwargs[ref.kw]
        if isinstance(ref, Const):
            return self.constants[ref.name]
        if isinstance(ref, Recv):
            value = env.kwargs[ref.kw]
            return value if ref.depth is None else value[env.index[ref.depth]]
        raise DslRuntimeError(f"unbound name {expr!r}")


class _Env:
    """Runtime environment of one rule invocation."""

    def __init__(self, kwargs: dict[str, Any]) -> None:
        self.kwargs = kwargs
        self.vars: dict[str, Any] = {}
        #: loop depth -> index of the current iteration
        self.index: dict[int, int] = {}


def _booleanize(evaluator: Callable[..., Any]) -> Callable[..., bool]:
    """Wrap a compiled body so it always yields a bool (predicates)."""

    def predicate(**kwargs: Any) -> bool:
        return bool(evaluator(**kwargs))

    predicate.__name__ = getattr(evaluator, "__name__", "dsl_predicate")
    # Expose the interpreter for the printer, the static analyzer, and the
    # freeze-time compiler (which re-applies the bool coercion itself).
    predicate.__wrapped__ = evaluator
    return predicate
