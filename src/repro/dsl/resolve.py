"""Name resolution for rule bodies -- the one place that decides what an
identifier in a rule, constraint, ``where`` or query body refers to.

The paper's incremental evaluation is only correct if each rule's declared
dependencies are exactly what its body reads, so "what does this name mean"
is decided once, here, and every consumer of a body -- the compiler's
interpreter, the freeze-time code generator, the analyzer's dependency,
type and value passes -- reads the answer from the :class:`Resolution`
instead of re-deriving scope.

:func:`resolve` makes one pass over a body in a class :class:`Scope` and
yields

* the body's **dependencies**: class attributes read (``locals``) and
  values received across relationships (``received``, including the
  implicit iteration-count dependency of a ``For Each`` whose body reads no
  transmitted value), each with the source span of its first use;
* a **binding** for every ``Name``, ``FieldRef`` and ``For Each`` node
  (``refs``, keyed by node identity):

  ==============  ======================================================
  :class:`Var`    a block variable (declared or assigned in the body)
  :class:`Attr`   an attribute of the class -- a ``Local`` dependency
  :class:`Const`  a named constant of the rule environment
  :class:`Recv`   a received ``(port, value)``: element ``depth`` loops
                  deep of a Multi port's list, or the single value when
                  ``depth`` is ``None``; on a ``For Each`` node, the list
                  whose length is the iteration count
  ==============  ======================================================

  A node with no entry did not resolve; the problem went to the sink.

Precedence for a bare name: the variable of an enclosing ``For Each`` (an
error -- loop variables only qualify transmitted values), then a block
variable in lexical scope, then a class attribute, then a constant.  Block
variables live in one flat frame at run time, so a name assigned anywhere in
the body binds to :class:`Var` even where no assignment is in lexical scope;
``variables`` records what such a read yields when no assignment has run
(the attribute, the constant, or ``None`` -- unbound).

Problems are reported as ``sink(code, message, node)`` with the analyzer's
stable codes (CA101-CA107, CA113, CA115, CA305).  The compiler's sink raises
a positioned ``DslCompileError`` at the first one; the analyzer's records a
diagnostic and lets the pass continue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Mapping, NamedTuple

from repro.dsl import ast

Span = tuple[int, int]
Sink = Callable[[str, str, Any], None]


class Var(NamedTuple):
    name: str


class Attr(NamedTuple):
    name: str

    @property
    def kw(self) -> str:
        """The keyword this dependency arrives under in ``Rule.inputs``."""
        return f"l_{self.name}"


class Const(NamedTuple):
    name: str


class Recv(NamedTuple):
    port: str
    value: str
    depth: int | None

    @property
    def kw(self) -> str:
        """The keyword this dependency arrives under in ``Rule.inputs``."""
        return f"r_{self.port}__{self.value}"


Binding = Var | Attr | Const | Recv


@dataclass(frozen=True)
class Port:
    multi: bool
    rel_type: str
    #: names of the values flowing toward this end, in declaration order;
    #: ``None`` when the relationship type is not declared.
    received: tuple[str, ...] | None


@dataclass(frozen=True)
class Scope:
    """What a class's rule bodies can see (inheritance already flattened)."""

    class_name: str
    attrs: Collection[str]
    ports: Mapping[str, Port]
    constants: Collection[str]
    functions: Collection[str]
    atoms: Collection[str]


@dataclass
class Resolution:
    #: the resolved tree; held so node identities in ``refs`` stay unique.
    body: ast.RuleBody
    refs: dict[int, Binding] = field(default_factory=dict)
    #: block variables in first-occurrence order -> what reading one yields
    #: before any assignment has run.
    variables: dict[str, Attr | Const | None] = field(default_factory=dict)
    locals: dict[str, Span] = field(default_factory=dict)
    received: dict[tuple[str, str], Span] = field(default_factory=dict)
    #: ports iterated by ``For Each`` -> the first loop over each.
    loop_ports: dict[str, ast.ForEach] = field(default_factory=dict)


def body_of(fn: Any) -> Any:
    """The DSL body behind a rule, constraint or predicate callable.

    Follows the ``__wrapped__`` chain (compiled closures and the boolean
    coercion of predicates both keep it) to the object that carries the
    ``body`` AST, its ``resolution`` and the ``functions`` it may call;
    ``None`` for a native Python callable.
    """
    seen: set[int] = set()
    while fn is not None and id(fn) not in seen:
        if isinstance(getattr(fn, "resolution", None), Resolution):
            return fn
        seen.add(id(fn))
        fn = getattr(fn, "__wrapped__", None)
    return None


def resolve(body: ast.RuleBody, scope: Scope, sink: Sink) -> Resolution:
    """Resolve every name in ``body`` against ``scope`` (see module doc)."""
    return _Resolver(body, scope, sink).run()


class _Resolver:
    def __init__(self, body: ast.RuleBody, scope: Scope, sink: Sink) -> None:
        self.scope = scope
        self.sink = sink
        self.out = Resolution(body)
        self.out.variables = {
            node.name: None
            for node in ast.walk(body)
            if isinstance(node, (ast.VarDecl, ast.Assign))
        }
        self.loops: list[tuple[ast.ForEach, int]] = []
        self.depth = 0

    def report(self, code: str, message: str, node: Any) -> None:
        self.sink(code, f"class {self.scope.class_name!r}: {message}", node)

    def run(self) -> Resolution:
        out = self.out
        if isinstance(out.body, ast.Block):
            self.stmts(out.body.body, set(), {})
        else:
            self.expr(out.body, set(), {})
        # A loop whose body reads no transmitted value still needs an
        # iteration count: depend on the first value the port can receive.
        for port, loop in out.loop_ports.items():
            if any(p == port for p, __ in out.received):
                continue
            flows = self.scope.ports[port].received
            if flows:
                out.received[(port, flows[0])] = (loop.line, loop.column)
            else:
                self.report(
                    "CA115",
                    f"cannot determine the iteration count of 'For Each ... "
                    f"Related To {port}': no value flows toward this end",
                    loop,
                )
        # Every received list of a port has one element per connection, so
        # any of them counts the iterations; the smallest name is canonical.
        for loop, depth in self.loops:
            values = [v for p, v in out.received if p == loop.port]
            if values:
                out.refs[id(loop)] = Recv(loop.port, min(values), depth)
        for name in out.variables:
            if name in out.locals:
                out.variables[name] = Attr(name)
            elif name in self.scope.constants:
                out.variables[name] = Const(name)
        return out

    # -- statements --------------------------------------------------------

    def stmts(self, stmts, in_scope: set[str], loops: dict) -> None:
        """``in_scope``: block variables visible here; ``loops``: enclosing
        loop variable -> (port, depth)."""
        for stmt in stmts:
            if isinstance(stmt, ast.VarDecl):
                if stmt.type_name not in self.scope.atoms:
                    self.report(
                        "CA113",
                        f"local variable {stmt.name!r} has unknown atom "
                        f"type {stmt.type_name!r}",
                        stmt,
                    )
                in_scope.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                self.expr(stmt.value, in_scope, loops)
                in_scope.add(stmt.name)
            elif isinstance(stmt, ast.ForEach):
                self.for_each(stmt, in_scope, loops)
            elif isinstance(stmt, ast.If):
                self.expr(stmt.cond, in_scope, loops)
                self.stmts(stmt.then_body, set(in_scope), loops)
                self.stmts(stmt.else_body, set(in_scope), loops)
            else:  # Return, ExprStmt
                self.expr(stmt.value, in_scope, loops)

    def for_each(self, stmt: ast.ForEach, in_scope: set[str], loops: dict) -> None:
        port = self.scope.ports.get(stmt.port)
        if port is None:
            self.report("CA103", f"For Each over unknown port {stmt.port!r}", stmt)
            return
        if not port.multi:
            self.report(
                "CA105",
                f"For Each requires a Multi port; {stmt.port!r} is "
                f"single-valued",
                stmt,
            )
            return
        self.out.loop_ports.setdefault(stmt.port, stmt)
        self.loops.append((stmt, self.depth))
        inner = {**loops, stmt.var: (stmt.port, self.depth)}
        self.depth += 1
        self.stmts(stmt.body, set(in_scope), inner)
        self.depth -= 1

    # -- expressions -------------------------------------------------------

    def expr(self, expr: ast.Expr, in_scope: set[str], loops: dict) -> None:
        if isinstance(expr, ast.Name):
            self.name(expr, in_scope, loops)
        elif isinstance(expr, ast.FieldRef):
            self.field_ref(expr, loops)
        else:
            if isinstance(expr, ast.Call) and expr.fn not in self.scope.functions:
                self.report("CA102", f"unknown function {expr.fn!r}", expr)
            for child in ast.children(expr):
                self.expr(child, in_scope, loops)

    def name(self, expr: ast.Name, in_scope: set[str], loops: dict) -> None:
        ident = expr.ident
        if ident in loops:
            self.report(
                "CA305",
                f"loop variable {ident!r} used bare; reference a "
                f"transmitted value ({ident}.<value>)",
                expr,
            )
            return
        if ident in in_scope:
            binding: Binding = Var(ident)
        elif ident in self.scope.attrs:
            self.out.locals.setdefault(ident, (expr.line, expr.column))
            binding = Attr(ident)
        elif ident in self.scope.constants:
            binding = Const(ident)
        else:
            self.report("CA101", f"unknown name {ident!r}", expr)
            return
        # One flat frame at run time: a name assigned anywhere in the body
        # reads the variable first, wherever the assignment sits.
        self.out.refs[id(expr)] = (
            Var(ident) if ident in self.out.variables else binding
        )

    def field_ref(self, expr: ast.FieldRef, loops: dict) -> None:
        base = expr.base
        depth = None
        if base in loops:
            port_name, depth = loops[base]
        elif base not in self.scope.ports:
            self.report(
                "CA103", f"{base!r} is neither a loop variable nor a port", expr
            )
            return
        elif self.scope.ports[base].multi:
            self.report(
                "CA106",
                f"port {base!r} is Multi; use 'For Each x Related To {base}'",
                expr,
            )
            return
        else:
            port_name = base
        port = self.scope.ports[port_name]
        if port.received is None:
            self.report(
                "CA107",
                f"port {port_name!r} uses unknown relationship type "
                f"{port.rel_type!r}",
                expr,
            )
            return
        if expr.field_name not in port.received:
            self.report(
                "CA104",
                f"port {port_name!r} does not receive a value named "
                f"{expr.field_name!r}",
                expr,
            )
            return
        self.out.received.setdefault(
            (port_name, expr.field_name), (expr.line, expr.column)
        )
        self.out.refs[id(expr)] = Recv(port_name, expr.field_name, depth)
