"""Rule-body codegen: resolved DSL bodies -> specialized Python closures.

The schema compiler (:mod:`repro.dsl.compiler`) resolves every rule,
constraint, membership predicate and query ``where``/residual body and
hands the :class:`~repro.dsl.resolve.Resolution` to :func:`compile_body`,
which emits the equivalent Python source once and ``compile()``+``exec``s
it into a closure taking the body's declared inputs as positional
arguments.  This is the only backend that runs a DSL body; the
tree-walking reference it is tested against lives in ``tests/references.py``.

Canonicalization makes the emitted source structure-only: parameters are
named ``a0..aN`` in declared-input order, block-local variables ``v0..vM``
in first-occurrence order, loop indices ``_i<depth>``, and every
environment object (registered functions, non-literal constants) is hoisted
into a numbered global slot.  Two structurally identical rule bodies --
across classes, subtypes, or repeated query compiles -- therefore emit
byte-identical source, and the module-level cache keyed on
``(source, environment object identities)`` lets them share one code
object for as long as some body uses it.

The DSL's semantics, as emitted:

* ``/`` is integer division when both operands are ints (``_div``);
* ``and`` / ``or`` booleanize both sides and short-circuit;
* ``For Each`` iterates ``len()`` of a received list for the port;
* a variable read on a path that skipped every assignment resolves to the
  local-attribute input, then a named constant, then raises
  :class:`DslRuntimeError` -- emulated by a prologue that pre-binds every
  assigned name to its fallback (or an ``_UNBOUND`` sentinel checked on
  read);
* a block falling off the end without ``return`` raises
  :class:`DslRuntimeError` ("... without a return statement");
* a predicate (constraint, membership or query body) coerces its result
  with ``bool()``.

Names are not resolved here: every ``Name``, ``FieldRef`` and ``For Each``
is emitted from the binding :mod:`repro.dsl.resolve` gave it.  The
resolver reports every unknown name, function or port as a compile error,
so a body that reaches this module always emits.

The query read path's per-candidate loop is generated here too
(:func:`compile_reader`): one reader per input signature, from canonical
source, which a query's compiled ``where`` body is passed into.
"""

from __future__ import annotations

import time
import weakref
from typing import Any, Callable, Mapping

from repro.dsl import ast
from repro.dsl.resolve import Attr, Const, Recv, Resolution, Var
from repro.errors import DslRuntimeError


def _div(left: Any, right: Any) -> Any:
    """DSL division: C-style integer division when both operands are ints."""
    if isinstance(left, int) and isinstance(right, int):
        return left // right
    return left / right


class _UnboundType:
    """Sentinel for a block-local variable no path has assigned yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unbound>"


_UNBOUND = _UnboundType()


def _chk(value: Any, name: str) -> Any:
    """Guard a read of a maybe-unassigned variable."""
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
#: An entry lives exactly as long as some body holds its function; the
#: function's globals hold its environment objects, so the ``id()``-based
#: portion of the key can never alias a live entry.
_CODE_CACHE: weakref.WeakValueDictionary[tuple, Any] = weakref.WeakValueDictionary()


def code_cache_size() -> int:
    return len(_CODE_CACHE)


class CompiledBody:
    """A compiled DSL body: positional fast path plus a kwargs adapter.

    ``fn`` is the specialized closure taking the declared inputs as
    positional arguments in ``kwnames`` order -- the evaluation engine's
    slot plan calls it directly.  Calling the object itself keeps the
    ``body(**kwargs)`` contract every existing caller (and hand-written
    rule) uses.  ``resolution`` (whose ``body`` is the AST) and the
    ``functions``/``constants`` environment are what the printer, the
    static analyzer and the test-side reference interpreter read.
    """

    __slots__ = (
        "fn", "kwnames", "source", "resolution", "functions", "constants", "__name__"
    )

    def __init__(
        self,
        fn: Any,
        kwnames: tuple[str, ...],
        source: str,
        resolution: Resolution,
        functions: Mapping[str, Callable[..., Any]],
        constants: Mapping[str, Any],
        name: str,
    ) -> None:
        self.fn = fn
        self.kwnames = kwnames
        self.source = source
        self.resolution = resolution
        self.functions = functions
        self.constants = constants
        self.__name__ = name

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
        resolution: Resolution,
        inputs: Mapping[str, Any],
        functions: Mapping[str, Callable[..., Any]],
        constants: Mapping[str, Any],
        atoms: Any,
        bool_mode: bool,
    ) -> None:
        self.resolution = resolution
        self.refs = resolution.refs
        self.functions = functions
        self.constants = constants
        self.atoms = atoms
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

    # -- variable prologue -------------------------------------------------

    def _emit_prologue(self) -> None:
        """Pre-bind every block variable to what an unassigned read yields.

        A variable no path has assigned yet reads as the local-attribute
        input or named constant of the same name; binding
        that fallback up front (or ``_UNBOUND`` when there is none)
        reproduces it for reads on paths that skipped every assignment.
        """
        for name, fallback in self.resolution.variables.items():
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
            zero = self._const_expr(self.atoms.get(stmt.type_name).default)
            self._line(f"{self.vars[stmt.name]} = {zero}")
        elif isinstance(stmt, ast.Assign):
            value = self._expr(stmt.value)
            self._line(f"{self.vars[stmt.name]} = {value}")
        elif isinstance(stmt, ast.ForEach):
            loop = self.refs[id(stmt)]
            self._line(
                f"for _i{loop.depth} in range(len({self.param_of[loop.kw]})):"
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
        else:  # ExprStmt
            self._line(self._expr(stmt.value))

    # -- expressions -------------------------------------------------------

    def _result(self, expr: ast.Expr) -> str:
        text = self._expr(expr)
        return f"bool({text})" if self.bool_mode else text

    def _expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.Literal):
            return self._const_expr(expr.value)
        if isinstance(expr, ast.Call):
            args = ", ".join(self._expr(arg) for arg in expr.args)
            return f"{self._env_ref(self.functions[expr.fn])}({args})"
        if isinstance(expr, ast.Unary):
            operand = self._expr(expr.operand)
            return f"(not {operand})" if expr.op == "not" else f"(- {operand})"
        if isinstance(expr, ast.Binary):
            left = self._expr(expr.left)
            right = self._expr(expr.right)
            op = expr.op
            if op in ("and", "or"):
                return f"(bool({left}) {op} bool({right}))"
            if op == "/":
                return f"_div({left}, {right})"
            # Every other strict operator means what Python's infix
            # operator of the same spelling means.
            return f"({left} {op} {right})"
        return self._ref(self.refs[id(expr)])

    def _ref(self, ref: Any) -> str:
        """The Python expression reading one resolver binding."""
        if isinstance(ref, Var):
            pyname = self.vars[ref.name]
            if ref.name in self.guarded:
                # The guard names the canonical register, not the source
                # variable: embedding the user name would make otherwise
                # structurally identical bodies emit different source and
                # defeat code-object sharing.
                return f"_chk({pyname}, {pyname!r})"
            return pyname
        if isinstance(ref, Const):
            return self._const_expr(self.constants[ref.name])
        param = self.param_of[ref.kw]
        if isinstance(ref, Recv) and ref.depth is not None:
            return f"{param}[_i{ref.depth}]"
        return param

    # -- assembly ----------------------------------------------------------

    def build(self) -> tuple[str, list[Any]]:
        body = self.resolution.body
        if isinstance(body, ast.Block):
            self._emit_prologue()
            self._emit_stmts(body.body)
            self._line("raise _no_return()")
        else:
            self._line(f"return {self._result(body)}")
        params = ", ".join(f"a{i}" for i in range(len(self.kwnames)))
        source = f"def _rule({params}):\n" + "\n".join(self.lines) + "\n"
        return source, self.env_objects


def compile_body(
    resolution: Resolution,
    inputs: Mapping[str, Any],
    *,
    functions: Mapping[str, Callable[..., Any]],
    constants: Mapping[str, Any],
    atoms: Any,
    predicate: bool,
    name: str,
    stats: dict[str, Any],
) -> CompiledBody:
    """Compile one resolved body into a :class:`CompiledBody`.

    ``predicate`` bodies coerce their result with ``bool()``.  Updates
    ``stats`` in place: ``rules_compiled`` and ``compile_seconds`` for
    every body, ``cache_hits`` when the canonical source (plus its
    environment objects) already has a live code object, ``code_objects``
    when a new one is exec'd.
    """
    started = time.perf_counter()
    source, env = _Codegen(
        resolution, inputs, functions, constants, atoms, predicate
    ).build()
    key = (source, tuple(map(id, env)))
    fn = _CODE_CACHE.get(key)
    if fn is None:
        namespace = dict(_BASE_GLOBALS)
        namespace.update((f"_g{i}", obj) for i, obj in enumerate(env))
        exec(compile(source, _SOURCE_NAME, "exec"), namespace)  # noqa: S102
        # Popped so the namespace (the function's globals, which keep the
        # env objects alive) does not point back at the function: with no
        # cycle, refcounting frees both the moment no body uses them.
        fn = namespace.pop("_rule")
        _CODE_CACHE[key] = fn
        stats["code_objects"] += 1
    else:
        stats["cache_hits"] += 1
    stats["rules_compiled"] += 1
    stats["compile_seconds"] += time.perf_counter() - started
    return CompiledBody(
        fn, tuple(inputs), source, resolution, functions, constants, name
    )


# ---------------------------------------------------------------------------
# the query read path's candidate reader
# ---------------------------------------------------------------------------

#: input kinds of a reader signature, one letter per declared input.
LOCAL, SELF, RECEIVED = "L", "S", "R"

_READER_PARAMS = (
    "iids, names, inputs, body, limit, instance_of, cached_plan, marked, "
    "counters, placement, frames, stats, accesses, touch, slow"
)


#: a slot no evaluation has stored yet.
_MISSING = object()

#: signature -> reader.  The signature fixes the canonical source (see
#: :func:`reader_source`), so keying on it caches on the source.
_READERS: dict[tuple[str, ...], Callable[..., list]] = {}


def reader_source(kinds: tuple[str, ...]) -> str:
    """The canonical source of the reader for one input signature.

    ``kinds`` names each declared input's kind in order (:data:`LOCAL`,
    :data:`SELF`, :data:`RECEIVED`).  The emitted ``_reader`` loops over
    the candidates once, unrolled over the inputs (``v<i>`` is input
    ``i``'s value, ``n<i>`` a ``Local`` input's attribute name).  A
    candidate whose instance and slot plan are at hand and whose ``Local``
    slots are all stored, declared and clean is read in place: one demand
    counted per ``Local`` input and one touch, the one-frame hit inline
    (``Database.read_inputs`` and ``StorageManager.frame_hit`` say what
    each parameter is).  Any other candidate -- a stale or never-evaluated
    slot, an unreadable name, a missing instance, and every candidate of a
    signature with a ``Received`` input -- takes one ``slow(iid, inputs)``
    step.  With a ``body`` the reader returns the candidates whose values
    satisfy it, stopping at ``limit`` matches; without one, each
    candidate's values as a tuple.
    """
    values = [f"v{i}" for i in range(len(kinds))]
    locals_ = [i for i, kind in enumerate(kinds) if kind == LOCAL]
    row = _tuple(values)
    slow = f"{row} = slow(iid, inputs)" if values else "slow(iid, inputs)"
    lines = [f"def _reader({_READER_PARAMS}):"]
    if locals_ and RECEIVED not in kinds:
        lines.append(f"    {_tuple([f'n{i}' for i in locals_])} = names")
        lines.append("    move_to_end = frames.move_to_end")
        lines.append("    missing = _MISSING")
    lines += ["    out = []", "    for iid in iids:"]
    if RECEIVED in kinds:
        lines.append(f"        {slow}")
    elif not locals_:
        lines += [
            "        if instance_of(iid) is None or cached_plan(iid) is None:",
            "            slow(iid, inputs)",
        ]
        lines += [f"        {value} = iid" for value in values]
    else:
        lines += [
            "        instance = instance_of(iid)",
            "        plan = cached_plan(iid)",
            "        if instance is None or plan is None:",
            f"            {slow}",
            "        else:",
            "            attrs = instance.attrs",
            "            attributes = plan.attributes",
        ]
        for i, kind in enumerate(kinds):
            value = f"attrs.get(n{i}, missing)" if kind == LOCAL else "iid"
            lines.append(f"            v{i} = {value}")
        clean = " and ".join(
            f"v{i} is not missing and n{i} in attributes and (iid, n{i}) not in marked"
            for i in locals_
        )
        lines += [
            f"            if {clean}:",
            f"                counters.demands += {len(locals_)}",
            "                block = placement(iid)",
            "                if block in frames:",
            "                    stats.hits += 1",
            "                    move_to_end(block)",
            "                    accesses[iid] += 1",
            "                else:",
            "                    touch(iid)",
            "            else:",
            f"                {slow}",
        ]
    lines += [
        "        if body is None:",
        f"            out.append({'(' + row + ')' if values else '()'})",
        f"        elif body({', '.join(values)}):",
        "            out.append(iid)",
        "            if len(out) == limit:",
        "                break",
        "    return out",
    ]
    return "\n".join(lines) + "\n"


def _tuple(items: list[str]) -> str:
    """A tuple display (or unpacking target) without parentheses."""
    return ", ".join(items) + ("," if len(items) == 1 else "")


def compile_reader(kinds: tuple[str, ...]) -> Callable[..., list]:
    """The reader for one input signature, generated on first use."""
    reader = _READERS.get(kinds)
    if reader is None:
        namespace: dict[str, Any] = {"_MISSING": _MISSING}
        code = compile(reader_source(kinds), "<repro.compile reader>", "exec")
        exec(code, namespace)  # noqa: S102
        reader = _READERS[kinds] = namespace.pop("_reader")
    return reader
