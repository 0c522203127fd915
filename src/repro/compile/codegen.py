"""Rule-body codegen: DSL ASTs -> specialized Python closures.

The DSL pipeline compiles each rule body into a :class:`_RuleInterpreter`,
a tree-walking evaluator that re-dispatches on AST node types for every
evaluation.  That interpreter stays the *semantic reference*; this module
adds a second backend that emits the equivalent Python source once, at
``Schema.freeze`` time, and ``compile()``+``exec``s it into a closure
taking the rule's declared inputs as positional arguments.

Canonicalization makes the emitted source structure-only: parameters are
named ``a0..aN`` in declared-input order, block-local variables ``v0..vM``
in first-occurrence order, loop indices ``_i<depth>``, and every
environment object (registered functions, non-literal constants) is hoisted
into a numbered global slot.  Two structurally identical rule bodies --
across classes, subtypes, or repeated constraint resolution -- therefore
emit byte-identical source, and the module-level cache keyed on
``(source, environment object identities)`` lets them share one code
object.

Semantics are mirrored from the interpreter exactly:

* ``/`` is integer division when both operands are ints (``_div``);
* ``and`` / ``or`` booleanize both sides and short-circuit;
* ``For Each`` iterates ``len()`` of a received list for the port;
* a variable read on a path that skipped every assignment resolves to the
  local-attribute input, then a named constant, then raises
  :class:`DslRuntimeError` -- emulated by a prologue that pre-binds every
  assigned name to its fallback (or an ``_UNBOUND`` sentinel checked on
  read);
* a block falling off the end without ``return`` raises
  :class:`DslRuntimeError` ("... without a return statement").

Names are not resolved here: every ``Name``, ``FieldRef`` and ``For Each``
is emitted from the binding :mod:`repro.dsl.resolve` gave it, the same
bindings the interpreter reads.  A body the generator cannot emit (an AST
node or operator it does not know) is *declined*: the rule keeps its
interpreter and the compile pass counts a fallback.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.dsl import ast
from repro.dsl.compiler import BINARY_OPS, _div, _RuleInterpreter
from repro.dsl.resolve import Attr, Const, Recv, Var
from repro.errors import DslRuntimeError


class _UnboundType:
    """Sentinel for a block-local variable no path has assigned yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unbound>"


_UNBOUND = _UnboundType()


def _chk(value: Any, name: str) -> Any:
    """Guard a read of a maybe-unassigned variable (interpreter parity)."""
    if value is _UNBOUND:
        raise DslRuntimeError(f"unbound name {name!r}")
    return value


def _no_return() -> DslRuntimeError:
    return DslRuntimeError("rule body finished without a return statement")


_BASE_GLOBALS = {
    "_div": _div,
    "_chk": _chk,
    "_no_return": _no_return,
    "_UNBOUND": _UNBOUND,
}

_SOURCE_NAME = "<repro.compile rule>"

#: canonical source + env-object identities -> compiled positional function.
#: Entries hold strong references to their environment objects, so the
#: ``id()``-based portion of the key can never alias a live entry.
_CODE_CACHE: dict[tuple, Any] = {}


def code_cache_size() -> int:
    return len(_CODE_CACHE)


class Unsupported(Exception):
    """Raised when a body must stay on the interpreter (counted as fallback)."""


class CompiledBody:
    """A compiled rule body: positional fast path plus a kwargs adapter.

    ``fn`` is the specialized closure taking the declared inputs as
    positional arguments in ``kwnames`` order -- the evaluation engine's
    slot plan calls it directly.  Calling the object itself keeps the
    ``body(**kwargs)`` contract every existing caller (and hand-written
    rule) uses.  ``__wrapped__`` keeps the original interpreter reachable
    for the printer, the static analyzer, and equivalence tests.
    """

    __slots__ = ("fn", "kwnames", "source", "__wrapped__", "__name__")

    #: engine hint: ``fn`` may be called positionally in kwnames order.
    positional = True

    def __init__(
        self, fn: Any, kwnames: tuple[str, ...], source: str, interpreter: Any
    ) -> None:
        self.fn = fn
        self.kwnames = kwnames
        self.source = source
        self.__wrapped__ = interpreter
        self.__name__ = getattr(interpreter, "__name__", "dsl_rule")

    def __call__(self, **kwargs: Any) -> Any:
        try:
            args = [kwargs[name] for name in self.kwnames]
        except KeyError as exc:
            raise DslRuntimeError(
                f"missing rule input {exc.args[0]!r}"
            ) from None
        return self.fn(*args)


class _Codegen:
    """One body's emission pass: AST -> canonical source + env slots."""

    def __init__(
        self,
        interp: _RuleInterpreter,
        inputs: Mapping[str, Any],
        bool_mode: bool,
    ) -> None:
        self.interp = interp
        self.refs = interp.resolution.refs
        self.bool_mode = bool_mode
        self.kwnames = tuple(inputs)
        self.param_of = {kw: f"a{i}" for i, kw in enumerate(self.kwnames)}
        self.env_objects: list[Any] = []
        self.env_index: dict[int, str] = {}
        self.vars: dict[str, str] = {}
        self.guarded: set[str] = set()
        self.lines: list[str] = []
        self.depth = 1

    # -- emission helpers --------------------------------------------------

    def _line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def _env_ref(self, obj: Any) -> str:
        """A numbered global slot for an environment object (by identity)."""
        name = self.env_index.get(id(obj))
        if name is None:
            name = f"_g{len(self.env_objects)}"
            self.env_index[id(obj)] = name
            self.env_objects.append(obj)
        return name

    def _const_expr(self, value: Any) -> str:
        """Inline literal constants; hoist anything else into an env slot."""
        if value is None or isinstance(value, (bool, int, float, str)):
            return repr(value)
        return self._env_ref(value)

    def _param(self, ref: Attr | Recv) -> str:
        param = self.param_of.get(ref.kw)
        if param is None:
            raise Unsupported(f"input {ref.kw!r} is not declared")
        return param

    # -- variable prologue -------------------------------------------------

    def _emit_prologue(self) -> None:
        """Pre-bind every block variable to what an unassigned read yields.

        The interpreter reads a variable no path has assigned yet as the
        local-attribute input or named constant of the same name; binding
        that fallback up front (or ``_UNBOUND`` when there is none)
        reproduces it for reads on paths that skipped every assignment.
        """
        for name, fallback in self.interp.resolution.variables.items():
            pyname = self.vars[name] = f"v{len(self.vars)}"
            if fallback is None:
                self._line(f"{pyname} = _UNBOUND")
                self.guarded.add(name)
            else:
                self._line(f"{pyname} = {self._ref(fallback)}")

    # -- statements --------------------------------------------------------

    def _emit_stmts(self, stmts: list) -> None:
        if not stmts:
            self._line("pass")
            return
        for stmt in stmts:
            self._emit_stmt(stmt)

    def _emit_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            zero = self._const_expr(self.interp.atoms.get(stmt.type_name).default)
            self._line(f"{self.vars[stmt.name]} = {zero}")
        elif isinstance(stmt, ast.Assign):
            value = self._expr(stmt.value)
            self._line(f"{self.vars[stmt.name]} = {value}")
        elif isinstance(stmt, ast.ForEach):
            loop = self.refs.get(id(stmt))
            if loop is None:
                raise Unsupported(f"unresolved loop over {stmt.port!r}")
            self._line(
                f"for _i{loop.depth} in range(len({self._param(loop)})):"
            )
            self.depth += 1
            self._emit_stmts(stmt.body)
            self.depth -= 1
        elif isinstance(stmt, ast.If):
            self._line(f"if {self._expr(stmt.cond)}:")
            self.depth += 1
            self._emit_stmts(stmt.then_body)
            self.depth -= 1
            if stmt.else_body:
                self._line("else:")
                self.depth += 1
                self._emit_stmts(stmt.else_body)
                self.depth -= 1
        elif isinstance(stmt, ast.Return):
            self._line(f"return {self._result(stmt.value)}")
        elif isinstance(stmt, ast.ExprStmt):
            self._line(self._expr(stmt.value))
        else:  # pragma: no cover - exhaustive over Stmt
            raise Unsupported(f"unknown statement {stmt!r}")

    # -- expressions -------------------------------------------------------

    def _result(self, expr: ast.Expr) -> str:
        text = self._expr(expr)
        return f"bool({text})" if self.bool_mode else text

    def _expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.Literal):
            return self._const_expr(expr.value)
        if isinstance(expr, ast.Call):
            fn = self.interp.functions.get(expr.fn)
            if fn is None:
                raise Unsupported(f"unknown function {expr.fn!r}")
            args = ", ".join(self._expr(arg) for arg in expr.args)
            return f"{self._env_ref(fn)}({args})"
        if isinstance(expr, ast.Unary):
            operand = self._expr(expr.operand)
            return f"(not {operand})" if expr.op == "not" else f"(- {operand})"
        if isinstance(expr, ast.Binary):
            left = self._expr(expr.left)
            right = self._expr(expr.right)
            op = expr.op
            if op in ("and", "or"):
                return f"(bool({left}) {op} bool({right}))"
            fn = BINARY_OPS.get(op)
            if fn is None:
                raise Unsupported(f"unknown operator {op!r}")
            if fn is _div:
                return f"_div({left}, {right})"
            return f"({left} {op} {right})"
        ref = self.refs.get(id(expr))
        if ref is None:
            raise Unsupported(f"unresolved expression {expr!r}")
        return self._ref(ref)

    def _ref(self, ref: Any) -> str:
        """The Python expression reading one resolver binding."""
        if isinstance(ref, Var):
            pyname = self.vars[ref.name]
            if ref.name in self.guarded:
                # The guard names the canonical register, not the source
                # variable: embedding the user name would make otherwise
                # structurally identical bodies emit different source and
                # defeat code-object sharing.  (The interpreter's message
                # cites the source name and line; both say "unbound name".)
                return f"_chk({pyname}, {pyname!r})"
            return pyname
        if isinstance(ref, Const):
            return self._const_expr(self.interp.constants[ref.name])
        param = self._param(ref)
        if isinstance(ref, Recv) and ref.depth is not None:
            return f"{param}[_i{ref.depth}]"
        return param

    # -- assembly ----------------------------------------------------------

    def build(self) -> tuple[str, list[Any]]:
        body = self.interp.body
        if isinstance(body, ast.Block):
            self._emit_prologue()
            self._emit_stmts(body.body)
            self._line("raise _no_return()")
        else:
            self._line(f"return {self._result(body)}")
        params = ", ".join(f"a{i}" for i in range(len(self.kwnames)))
        source = f"def _rule({params}):\n" + "\n".join(self.lines) + "\n"
        return source, self.env_objects


def compile_interpreter(
    interp: _RuleInterpreter,
    inputs: Mapping[str, Any],
    bool_mode: bool,
    stats: dict[str, Any],
) -> CompiledBody | None:
    """Compile one interpreter body; None means "keep the interpreter".

    Updates ``stats`` in place: ``cache_hits`` when the canonical source
    (plus its environment objects) already has a code object,
    ``code_objects`` when a new one is exec'd, ``fallbacks`` when the body
    is declined.
    """
    try:
        source, env = _Codegen(interp, inputs, bool_mode).build()
    except Unsupported:
        stats["fallbacks"] += 1
        return None
    key = (source, tuple(map(id, env)))
    fn = _CODE_CACHE.get(key)
    if fn is None:
        namespace = dict(_BASE_GLOBALS)
        namespace.update((f"_g{i}", obj) for i, obj in enumerate(env))
        # Keep the env objects alive alongside the code object so the
        # id()-based key can never alias a freed object.
        namespace["__repro_env__"] = tuple(env)
        exec(compile(source, _SOURCE_NAME, "exec"), namespace)  # noqa: S102
        fn = namespace["_rule"]
        _CODE_CACHE[key] = fn
        stats["code_objects"] += 1
    else:
        stats["cache_hits"] += 1
    return CompiledBody(fn, tuple(inputs), source, interp)
