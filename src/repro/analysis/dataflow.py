"""Whole-schema abstract interpretation over the rule graph.

Two abstract domains run together over the :class:`SchemaModel`:

* **intervals / constant propagation** -- every slot is mapped to a single
  :class:`Interval` over the extended number line.  Booleans embed as
  ``[0, 1]`` (``true = [1, 1]``, ``false = [0, 0]``), so comparisons,
  arithmetic, and the logical connectives all stay in one lattice;
  non-numeric atoms (strings) are simply TOP.
* **definite initialization** -- which received values can ever be
  *produced* by some transmit rule anywhere in the schema, which local
  variables are definitely assigned before they are read, and whether a
  block body definitely returns on every feasible path.

The interval analysis is a descending Kleene iteration from TOP: every
slot starts at its type's full range and each round re-evaluates every
effective rule against the current environment.  Because the abstract
transformers are monotone, *every* intermediate environment soundly
over-approximates every concrete fixpoint, so the iteration can stop at
any round; slots still unstable after :data:`MAX_ROUNDS` are pinned to
TOP.  Received values join the abstract values of every producer in the
schema with the flow default (unconnected ports read the default).

The checks built on top:

* ``CA601`` -- a rule reads a received value that no class anywhere
  transmits: the read only ever sees the flow default.
* ``CA602`` -- For Each over a port whose relationship type has no
  opposite-end port declared in any class: the loop provably never runs.
* ``CA603`` -- a block body can fall off the end without returning on a
  feasible path (the runtime raises ``DslRuntimeError`` there); interval
  analysis prunes branches whose conditions are provably constant.
* ``CA604`` -- a declared local is read before any assignment on some
  path (it silently yields the type's zero).
* ``CA611``/``CA612`` -- a constraint proven always-true / unsatisfiable
  by interval evaluation (CA5xx covers the purely propositional cases;
  this catches the arithmetic ones like ``1 <= x and x <= 2`` when
  ``x`` is proven to lie in ``[1, 2]``).
* ``CA613``/``CA614`` -- the same verdicts for subtype predicates.
* ``CA701`` -- two predicate subtypes whose memberships can overlap both
  rule the same slot: which rule wins depends on membership-sort order.
* ``CA702`` -- a subtype's membership predicate transitively depends on
  a slot the subtype itself rules: membership can oscillate.

:func:`analyze_values` exposes the fixpoint itself (slot ranges, the
producer table, per-class verdicts); :mod:`repro.analysis.facts` packages
it for the compiler and the clustering layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.model import RuleInfo, SchemaModel
from repro.dsl import ast
from repro.dsl.compiler import DEFAULT_CONSTANTS
from repro.dsl.resolve import Attr, Const, Recv, Var

#: fixpoint round cap; slots still changing afterwards are pinned to TOP.
MAX_ROUNDS = 12

_NEG = float("-inf")
_POS = float("inf")


@dataclass(frozen=True)
class Interval:
    """A closed interval on the extended number line (the whole lattice)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:  # pragma: no cover - guarded by callers
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi and self.lo not in (_NEG, _POS)

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.lo}, {self.hi}]"


TOP = Interval(_NEG, _POS)
BOOL = Interval(0.0, 1.0)
TRUE = Interval(1.0, 1.0)
FALSE = Interval(0.0, 0.0)
ZERO = Interval(0.0, 0.0)
NON_NEGATIVE = Interval(0.0, _POS)


def const(value: Any) -> Interval:
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, (int, float)):
        return Interval(float(value), float(value))
    return TOP  # strings and other opaque atoms


def atom_top(atom: str) -> Interval:
    return BOOL if atom == "boolean" else TOP


def atom_zero(atom: str) -> Interval:
    """Abstract value of an atom's zero default (what a fresh block variable holds)."""
    if atom == "boolean":
        return FALSE
    if atom in ("integer", "real", "time"):
        return ZERO
    return TOP  # string "" etc.: opaque


# -- truthiness (the runtime's ``if``/``and``/``or`` use Python truth) ------


def is_true(value: Interval) -> bool:
    """The concrete value is certainly truthy (zero excluded)."""
    return value.lo > 0 or value.hi < 0


def is_false(value: Interval) -> bool:
    return value.lo == 0.0 == value.hi


def truthiness(value: Interval) -> Interval:
    if is_true(value):
        return TRUE
    if is_false(value):
        return FALSE
    return BOOL


def logical_not(value: Interval) -> Interval:
    if is_true(value):
        return FALSE
    if is_false(value):
        return TRUE
    return BOOL


def logical_and(a: Interval, b: Interval) -> Interval:
    if is_false(a) or is_false(b):
        return FALSE
    if is_true(a) and is_true(b):
        return TRUE
    return BOOL


def logical_or(a: Interval, b: Interval) -> Interval:
    if is_true(a) or is_true(b):
        return TRUE
    if is_false(a) and is_false(b):
        return FALSE
    return BOOL


# -- arithmetic -------------------------------------------------------------


def _mul_point(a: float, b: float) -> float:
    # Standard interval-arithmetic convention: 0 * inf = 0.
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def add(a: Interval, b: Interval) -> Interval:
    lo = _NEG if _NEG in (a.lo, b.lo) else a.lo + b.lo
    hi = _POS if _POS in (a.hi, b.hi) else a.hi + b.hi
    return Interval(lo, hi)


def sub(a: Interval, b: Interval) -> Interval:
    lo = _NEG if a.lo == _NEG or b.hi == _POS else a.lo - b.hi
    hi = _POS if a.hi == _POS or b.lo == _NEG else a.hi - b.lo
    return Interval(lo, hi)


def neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def mul(a: Interval, b: Interval) -> Interval:
    products = [
        _mul_point(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)
    ]
    return Interval(min(products), max(products))


def div(a: Interval, b: Interval) -> Interval:
    # The runtime's ``/`` is exact on constants only as far as we model it;
    # everything non-constant is conservatively TOP.
    if a.is_constant and b.is_constant and b.lo != 0.0:
        if float(a.lo).is_integer() and float(b.lo).is_integer():
            return const(int(a.lo) // int(b.lo))
        return const(a.lo / b.lo)
    return TOP


def compare(op: str, a: Interval, b: Interval) -> Interval:
    if op == "<":
        if a.hi < b.lo:
            return TRUE
        if a.lo >= b.hi:
            return FALSE
        return BOOL
    if op == "<=":
        if a.hi <= b.lo:
            return TRUE
        if a.lo > b.hi:
            return FALSE
        return BOOL
    if op == ">":
        return compare("<", b, a)
    if op == ">=":
        return compare("<=", b, a)
    if op == "==":
        if a.is_constant and b.is_constant and a.lo == b.lo:
            return TRUE
        if a.meet(b) is None:
            return FALSE
        return BOOL
    if op == "!=":
        return logical_not(compare("==", a, b))
    return BOOL  # pragma: no cover - exhaustive over comparison ops


# ---------------------------------------------------------------------------
# abstract execution of one rule body
# ---------------------------------------------------------------------------


@dataclass
class _State:
    """Per-path evaluation state inside one body."""

    locals: dict[str, Interval] = field(default_factory=dict)
    declared: dict[str, str] = field(default_factory=dict)  # name -> atom
    assigned: set[str] = field(default_factory=set)
    returned: Interval | None = None
    terminated: bool = False

    def copy(self) -> "_State":
        return _State(
            dict(self.locals),
            dict(self.declared),
            set(self.assigned),
            self.returned,
            self.terminated,
        )


def _merge_returned(a: Interval | None, b: Interval | None) -> Interval | None:
    if a is None:
        return b
    if b is None:
        return a
    return a.join(b)


class _BodyEvaluator:
    """Abstractly execute one rule body against a slot environment.

    ``reader(dep)`` maps ``("local", attr)`` / ``("received", port, value)``
    dependencies to intervals.  When ``findings`` is a list the evaluator
    also records CA603/CA604 positions (the reporting pass); during the
    fixpoint it stays ``None`` so rounds cost no diagnostic bookkeeping.
    """

    def __init__(
        self,
        model: SchemaModel,
        rule: RuleInfo,
        reader,
        findings: list[tuple[str, str, Any]] | None = None,
    ) -> None:
        self.model = model
        self.rule = rule
        self.reader = reader
        self.findings = findings

    def run(self) -> Interval:
        body = self.rule.body
        if body is None:
            return TOP  # native Python body: no AST to interpret
        if isinstance(body, ast.Block):
            state = _State()
            self._stmts(body.body, state)
            if not state.terminated and self.findings is not None:
                self.findings.append(
                    (
                        "CA603",
                        f"{self.rule.display}: body can finish without "
                        f"executing a Return statement (the runtime raises "
                        f"DslRuntimeError there)",
                        body,
                    )
                )
            return state.returned if state.returned is not None else TOP
        return self._expr(body, _State())

    # -- statements ---------------------------------------------------------

    def _stmts(self, stmts, state: _State) -> None:
        for stmt in stmts:
            if state.terminated:
                return  # unreachable after a definite return
            if isinstance(stmt, ast.VarDecl):
                state.declared[stmt.name] = stmt.type_name
                state.locals[stmt.name] = atom_zero(stmt.type_name)
            elif isinstance(stmt, ast.Assign):
                state.locals[stmt.name] = self._expr(stmt.value, state)
                state.assigned.add(stmt.name)
            elif isinstance(stmt, ast.If):
                self._if(stmt, state)
            elif isinstance(stmt, ast.ForEach):
                self._for_each(stmt, state)
            elif isinstance(stmt, ast.Return):
                value = self._expr(stmt.value, state)
                state.returned = _merge_returned(state.returned, value)
                state.terminated = True
            elif isinstance(stmt, ast.ExprStmt):
                self._expr(stmt.value, state)

    def _if(self, stmt: ast.If, state: _State) -> None:
        cond = self._expr(stmt.cond, state)
        if is_true(cond):
            self._stmts(stmt.then_body, state)
            return
        if is_false(cond):
            self._stmts(stmt.else_body, state)
            return
        then_state = state.copy()
        else_state = state.copy()
        self._stmts(stmt.then_body, then_state)
        self._stmts(stmt.else_body, else_state)
        state.returned = _merge_returned(
            then_state.returned, else_state.returned
        )
        if then_state.terminated and else_state.terminated:
            state.terminated = True
            return
        if then_state.terminated:
            live = [else_state]
        elif else_state.terminated:
            live = [then_state]
        else:
            live = [then_state, else_state]
        merged: dict[str, Interval] = {}
        for name in set().union(*(s.locals for s in live)):
            values = [s.locals[name] for s in live if name in s.locals]
            if len(values) < len(live):
                values.append(TOP)
            out = values[0]
            for value in values[1:]:
                out = out.join(value)
            merged[name] = out
        state.locals = merged
        state.declared = {
            k: v for s in live for k, v in s.declared.items()
        }
        state.assigned = set.intersection(*(s.assigned for s in live))

    def _for_each(self, stmt: ast.ForEach, state: _State) -> None:
        # Any local assigned anywhere in the loop body may carry a value
        # from an arbitrary earlier iteration: smash those to TOP before
        # the single abstract pass (sound, if blunt, widening).
        for name in _assigned_names(stmt.body):
            state.locals[name] = TOP
        body_state = state.copy()
        self._stmts(stmt.body, body_state)
        # Zero iterations are always possible: merge, keep only the locals
        # facts common to both outcomes; returns inside the loop are
        # possible but never definite.
        state.returned = _merge_returned(state.returned, body_state.returned)
        for name, value in body_state.locals.items():
            state.locals[name] = value.join(state.locals.get(name, TOP))
        state.declared.update(body_state.declared)

    # -- expressions --------------------------------------------------------

    def _expr(self, expr: ast.Expr, state: _State) -> Interval:
        if isinstance(expr, ast.Literal):
            return const(expr.value)
        if isinstance(expr, ast.Call):
            return self._call(expr, state)
        if isinstance(expr, ast.Unary):
            operand = self._expr(expr.operand, state)
            if expr.op == "not":
                return logical_not(operand)
            if expr.op == "-":
                return neg(operand)
            return TOP  # pragma: no cover - exhaustive over unary ops
        if isinstance(expr, ast.Binary):
            return self._binary(expr, state)
        return self._ref(self.rule.resolution.refs.get(id(expr)), expr, state)

    def _ref(self, ref: Any, expr: ast.Expr, state: _State) -> Interval:
        """The value of what a name or field reference is bound to."""
        if isinstance(ref, Var):
            ident = ref.name
            if ident not in state.declared and ident not in state.assigned:
                # No assignment on this path: the read falls through.
                return self._ref(
                    self.rule.resolution.variables[ident], expr, state
                )
            if (
                ident not in state.assigned
                and self.findings is not None
            ):
                self.findings.append(
                    (
                        "CA604",
                        f"{self.rule.display}: local variable {ident!r} is "
                        f"read before any assignment; it still holds the "
                        f"type's zero value",
                        expr,
                    )
                )
            return state.locals.get(ident, TOP)
        if isinstance(ref, Attr):
            return self.reader(("local", ref.name))
        if isinstance(ref, Recv):
            return self.reader(("received", ref.port, ref.value))
        if isinstance(ref, Const):
            value = DEFAULT_CONSTANTS.get(ref.name)
            if isinstance(value, (bool, int, float)):
                return const(value)
        return TOP  # opaque constant, or unresolved (already reported)

    def _call(self, expr: ast.Call, state: _State) -> Interval:
        args = [self._expr(arg, state) for arg in expr.args]
        fn = expr.fn
        if fn in ("max", "later_of") and args:
            lo = max(a.lo for a in args)
            hi = max(a.hi for a in args)
            return Interval(lo, hi)
        if fn == "min" and args:
            lo = min(a.lo for a in args)
            hi = min(a.hi for a in args)
            return Interval(lo, hi)
        if fn == "later_than" and len(args) == 2:
            return compare(">", args[0], args[1])
        if fn == "abs" and len(args) == 1:
            arg = args[0]
            if arg.lo >= 0:
                return arg
            if arg.hi <= 0:
                return neg(arg)
            return Interval(0.0, max(-arg.lo, arg.hi))
        if fn == "len":
            return NON_NEGATIVE
        return TOP  # sum, void, and externally-registered functions

    def _binary(self, expr: ast.Binary, state: _State) -> Interval:
        op = expr.op
        left = self._expr(expr.left, state)
        right = self._expr(expr.right, state)
        if op == "and":
            return logical_and(left, right)
        if op == "or":
            return logical_or(left, right)
        if op == "+":
            return add(left, right)
        if op == "-":
            return sub(left, right)
        if op == "*":
            return mul(left, right)
        if op in ("/", "%"):
            return div(left, right) if op == "/" else TOP
        if op in ("<", "<=", ">", ">=", "==", "!="):
            return compare(op, left, right)
        return TOP  # pragma: no cover - exhaustive over binary ops


def _assigned_names(stmts) -> set[str]:
    return {
        node.name
        for stmt in stmts
        for node in ast.walk(stmt)
        if isinstance(node, ast.Assign)
    }


def _for_each_loops(body) -> list[ast.ForEach]:
    """Every ForEach statement anywhere in a rule body."""
    if body is None:
        return []
    return [node for node in ast.walk(body) if isinstance(node, ast.ForEach)]


# ---------------------------------------------------------------------------
# whole-schema fixpoint
# ---------------------------------------------------------------------------


class ValueAnalysis:
    """Interval fixpoint plus the producer table over one schema model."""

    def __init__(self, model: SchemaModel) -> None:
        self.model = model
        #: (class, slot) -> abstract value of the slot.
        self.values: dict[tuple[str, str], Interval] = {}
        #: (rel_type, value) -> producing (class, "port>value") slots.
        self.producers: dict[tuple[str, str], list[tuple[str, str]]] = {}
        #: relationship types with a port on each end, keyed by end name.
        self.port_ends: dict[str, set[str]] = {}
        #: classes whose effective rules were analysed (concrete classes).
        self.rule_views: dict[str, dict[str, RuleInfo]] = {}
        self.rounds = 0
        self._collect_structure()
        self._fixpoint()

    # -- structure ----------------------------------------------------------

    def _collect_structure(self) -> None:
        for cls_name in self.model.classes:
            view = self.model.effective_rules(cls_name)
            self.rule_views[cls_name] = view
            ports = self.model.all_ports(cls_name)
            for port in ports.values():
                self.port_ends.setdefault(port.rel_type, set()).add(port.end)
            for slot, rule in view.items():
                if ">" not in slot:
                    continue
                port_name = slot.split(">", 1)[0]
                port = ports.get(port_name)
                if port is None:
                    continue
                value = slot.split(">", 1)[1]
                key = (port.rel_type, value)
                self.producers.setdefault(key, []).append((cls_name, slot))

    def has_producer(self, rel_type: str, value: str) -> bool:
        return bool(self.producers.get((rel_type, value)))

    def opposite_end_exists(self, rel_type: str, end: str) -> bool:
        opposite = "socket" if end == "plug" else "plug"
        return opposite in self.port_ends.get(rel_type, set())

    # -- environment --------------------------------------------------------

    def _slot_value(self, cls_name: str, slot: str) -> Interval:
        value = self.values.get((cls_name, slot))
        if value is not None:
            return value
        attr = self.model.all_attrs(cls_name).get(slot)
        return atom_top(attr.atom) if attr is not None else TOP

    def received_value(self, cls_name: str, port: str, value: str) -> Interval:
        info = self.model.all_ports(cls_name).get(port)
        if info is None:
            return TOP
        flow = self.model.flow_of(cls_name, port, value)
        default = atom_zero(flow.atom) if flow is not None else TOP
        out = default  # an unconnected port always reads the default
        for producer_cls, slot in self.producers.get(
            (info.rel_type, value), ()
        ):
            out = out.join(self._slot_value(producer_cls, slot))
        return out

    def reader_for(self, cls_name: str):
        def read(dep: tuple) -> Interval:
            if dep[0] == "local":
                return self._slot_value(cls_name, dep[1])
            return self.received_value(cls_name, dep[1], dep[2])

        return read

    # -- iteration ----------------------------------------------------------

    def _evaluate(self, cls_name: str, slot: str, rule: RuleInfo) -> Interval:
        result = _BodyEvaluator(
            self.model, rule, self.reader_for(cls_name)
        ).run()
        if rule.kind in ("constraint", "predicate"):
            return truthiness(result)  # the runtime booleanizes these
        attr = self.model.all_attrs(cls_name).get(slot)
        if attr is None:
            return result  # transmit slot: no atom to clamp against
        if attr.atom == "boolean":
            return truthiness(result)
        clamped = result.meet(atom_top(attr.atom))
        return clamped if clamped is not None else atom_top(attr.atom)

    def _fixpoint(self) -> None:
        work = [
            (cls_name, slot, rule)
            for cls_name, view in self.rule_views.items()
            for slot, rule in view.items()
        ]
        for cls_name, slot, __ in work:
            attr = self.model.all_attrs(cls_name).get(slot)
            self.values[(cls_name, slot)] = (
                atom_top(attr.atom) if attr is not None else TOP
            )
        pinned: set[tuple[str, str]] = set()
        for round_no in range(MAX_ROUNDS + 2):
            self.rounds = round_no + 1
            changed = False
            for cls_name, slot, rule in work:
                key = (cls_name, slot)
                if key in pinned:
                    continue
                new = self._evaluate(cls_name, slot, rule)
                old = self.values[key]
                if round_no >= MAX_ROUNDS and new != old:
                    # Past the cap: widen anything still moving to its
                    # type top so the tail converges immediately.
                    attr = self.model.all_attrs(cls_name).get(slot)
                    new = atom_top(attr.atom) if attr is not None else TOP
                    pinned.add(key)
                if new != old:
                    self.values[key] = new
                    changed = True
            if not changed:
                break

    # -- refinement (for the CA701 disjointness test) -----------------------

    def refined_predicate(
        self, cls_name: str, assume: RuleInfo, test: RuleInfo
    ) -> Interval:
        """Evaluate ``test``'s predicate assuming ``assume``'s holds.

        Conjunctions of ``attr <op> constant`` comparisons in ``assume``
        narrow the attribute environment before ``test`` is evaluated; the
        result ``FALSE`` proves the two memberships disjoint.
        """
        bounds: dict[str, Interval | None] = {}
        _collect_bounds(assume.body, bounds)
        refined: dict[str, Interval] = {}
        for name, bound in bounds.items():
            if bound is None:
                return FALSE  # the assumption is self-contradictory
            current = self._slot_value(cls_name, name)
            met = current.meet(bound)
            if met is None:
                return FALSE  # the assumption itself cannot hold here
            refined[name] = met

        base_reader = self.reader_for(cls_name)

        def read(dep: tuple) -> Interval:
            if dep[0] == "local" and dep[1] in refined:
                return refined[dep[1]]
            return base_reader(dep)

        result = _BodyEvaluator(self.model, test, read).run()
        return truthiness(result)


def _collect_bounds(expr, out: dict[str, Interval | None]) -> None:
    """Harvest ``attr <op> constant`` bounds from a conjunction.

    ``None`` as a bound marks a contradictory pair (``x > 5 and x < 3``).
    The bounds stay loose (``x < 5`` contributes ``(-inf, 5]``) so they are
    sound for every numeric atom, not just integers.
    """
    if isinstance(expr, ast.Binary):
        if expr.op == "and":
            _collect_bounds(expr.left, out)
            _collect_bounds(expr.right, out)
            return
        if expr.op in ("<", "<=", ">", ">=", "=="):
            name, bound = _bound_of(expr)
            if name is not None:
                prev = out.get(name)
                if prev is None and name in out:
                    return  # already contradictory
                out[name] = bound if prev is None else prev.meet(bound)


def _bound_of(expr: ast.Binary) -> tuple[str | None, Interval]:
    """(attr, interval) for one comparison, normalised to attr-on-left."""
    left, right, op = expr.left, expr.right, expr.op
    if not isinstance(left, ast.Name) and isinstance(right, ast.Name):
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}[op]
    if not isinstance(left, ast.Name) or isinstance(right, ast.Name):
        return None, TOP
    value = _const_expr(right)
    if value is None:
        return None, TOP
    if op in ("<", "<="):
        return left.ident, Interval(_NEG, value.hi)
    if op in (">", ">="):
        return left.ident, Interval(value.lo, _POS)
    if op == "==" and value.is_constant:
        return left.ident, value
    return None, TOP


def _const_expr(expr) -> Interval | None:
    if isinstance(expr, ast.Literal) and isinstance(
        expr.value, (bool, int, float)
    ):
        return const(expr.value)
    if isinstance(expr, ast.Unary) and expr.op == "-":
        inner = _const_expr(expr.operand)
        return neg(inner) if inner is not None else None
    return None


# ---------------------------------------------------------------------------
# the diagnostics pass
# ---------------------------------------------------------------------------


def check(model: SchemaModel) -> list[Diagnostic]:
    analysis = ValueAnalysis(model)
    diagnostics: list[Diagnostic] = []
    diagnostics.extend(_initialization(model, analysis))
    diagnostics.extend(_body_checks(model, analysis))
    diagnostics.extend(_value_verdicts(model, analysis))
    diagnostics.extend(_confluence(model, analysis))
    return diagnostics


def _diag(code: str, cls_name: str, message: str, node: Any) -> Diagnostic:
    line = getattr(node, "line", 0) or 0
    column = getattr(node, "column", 0) or 0
    return Diagnostic(
        code, f"class {cls_name!r}: {message}", line, column
    )


def _initialization(
    model: SchemaModel, analysis: ValueAnalysis
) -> list[Diagnostic]:
    """CA601 (never-produced reads) and CA602 (provably-empty loops)."""
    diagnostics: list[Diagnostic] = []
    for cls_name, cls in model.classes.items():
        ports = model.all_ports(cls_name)
        for rule in cls.rules:
            if not rule.ok:
                continue
            for dep in sorted(rule.deps):
                if dep[0] != "received":
                    continue
                __, port_name, value = dep
                port = ports.get(port_name)
                if port is None:
                    continue
                if not analysis.opposite_end_exists(port.rel_type, port.end):
                    continue  # CA602 reports the structural hole instead
                if analysis.has_producer(port.rel_type, value):
                    continue
                flow = model.flow_of(cls_name, port_name, value)
                if flow is None:
                    continue  # CA104 territory
                span = rule.dep_spans.get(dep)
                node = _Span(*span) if span else rule
                diagnostics.append(
                    _diag(
                        "CA601",
                        cls_name,
                        f"{rule.display} reads {port_name}.{value}, but no "
                        f"class transmits {value!r} on relationship "
                        f"{port.rel_type!r}; the read always yields the "
                        f"flow default",
                        node,
                    )
                )
            for loop in _for_each_loops(rule.body):
                port = ports.get(loop.port)
                if port is None or not port.multi:
                    continue
                if analysis.opposite_end_exists(port.rel_type, port.end):
                    continue
                diagnostics.append(
                    _diag(
                        "CA602",
                        cls_name,
                        f"{rule.display}: For Each over {loop.port!r} never "
                        f"iterates -- no class declares a "
                        f"{'socket' if port.end == 'plug' else 'plug'} port "
                        f"of relationship {port.rel_type!r}, so nothing can "
                        f"ever connect",
                        loop,
                    )
                )
    return diagnostics


def _body_checks(
    model: SchemaModel, analysis: ValueAnalysis
) -> list[Diagnostic]:
    """CA603 (possible missing return) and CA604 (read-before-assign)."""
    diagnostics: list[Diagnostic] = []
    for cls_name, cls in model.classes.items():
        for rule in cls.rules:
            if not rule.ok or rule.body is None:
                continue
            findings: list[tuple[str, str, Any]] = []
            _BodyEvaluator(
                model, rule, analysis.reader_for(cls_name), findings
            ).run()
            seen: set[tuple[str, str]] = set()
            for code, message, node in findings:
                if (code, message) in seen:
                    continue
                seen.add((code, message))
                diagnostics.append(_diag(code, cls_name, message, node))
    return diagnostics


def _value_verdicts(
    model: SchemaModel, analysis: ValueAnalysis
) -> list[Diagnostic]:
    """CA611/CA612 for constraints, CA613/CA614 for subtype predicates.

    Verdicts are evaluated in the *declaring* class's environment (which
    already joins every producer in the schema), and reported once there;
    :mod:`repro.analysis.facts` re-derives them per concrete class for the
    folding pass.
    """
    diagnostics: list[Diagnostic] = []
    for cls_name, cls in model.classes.items():
        for rule in cls.rules:
            if rule.kind not in ("constraint", "predicate") or not rule.ok:
                continue
            if rule.body is None:
                continue
            verdict = analysis.values.get((cls_name, rule.target))
            if verdict is None:
                result = _BodyEvaluator(
                    model, rule, analysis.reader_for(cls_name)
                ).run()
                verdict = truthiness(result)
            trivially = _propositional_verdict(model, cls_name, rule)
            if verdict == TRUE and trivially != "valid":
                code = "CA611" if rule.kind == "constraint" else "CA614"
                what = (
                    "always holds for every reachable value"
                    if rule.kind == "constraint"
                    else "admits every supertype instance for every "
                    "reachable value"
                )
                diagnostics.append(
                    _diag(
                        code,
                        cls_name,
                        f"{rule.display} {what}; Schema.freeze folds it to "
                        f"a constant rule that no wave re-marks",
                        rule,
                    )
                )
            elif verdict == FALSE and trivially != "unsat":
                code = "CA612" if rule.kind == "constraint" else "CA613"
                what = (
                    "can never hold: every transaction touching its "
                    "inputs rolls back"
                    if rule.kind == "constraint"
                    else "is unsatisfiable over the reachable values; the "
                    "subtype can have no members"
                )
                diagnostics.append(
                    _diag(code, cls_name, f"{rule.display} {what}", rule)
                )
    return diagnostics


def _propositional_verdict(
    model: SchemaModel, cls_name: str, rule: RuleInfo
) -> str:
    """The CA5xx pass's verdict, so value verdicts do not double-report."""
    if rule.body is None or isinstance(rule.body, ast.Block):
        return "contingent"
    from repro.analysis.predicates import _abstract, _boolean_names, _evaluate

    formula = _abstract(rule.body, _boolean_names(model, cls_name))
    return _evaluate(formula)


def _confluence(
    model: SchemaModel, analysis: ValueAnalysis
) -> list[Diagnostic]:
    """CA701 (overlapping subtype rule races) and CA702 (oscillation)."""
    diagnostics: list[Diagnostic] = []
    predicate_classes = [
        (cls_name, cls)
        for cls_name, cls in model.classes.items()
        if any(r.kind == "predicate" for r in cls.rules)
    ]

    # CA701: two subtypes that can be simultaneously active both rule the
    # same slot; the winner is whichever membership sorts last.
    for i, (name_a, cls_a) in enumerate(predicate_classes):
        for name_b, cls_b in predicate_classes[i + 1 :]:
            if not _related_supertypes(model, name_a, name_b):
                continue
            shared = _shared_rule_targets(cls_a, cls_b)
            if not shared:
                continue
            if _provably_disjoint(model, analysis, name_a, name_b):
                continue
            later = max(name_a, name_b)
            earlier = min(name_a, name_b)
            for slot in sorted(shared):
                rule = next(
                    r
                    for r in model.classes[later].rules
                    if r.target == slot and r.kind == "rule"
                )
                diagnostics.append(
                    _diag(
                        "CA701",
                        later,
                        f"subtypes {earlier!r} and {later!r} can both be "
                        f"active and both rule {slot!r}; {later!r} wins "
                        f"only by membership sort order",
                        rule,
                    )
                )

    # CA702: the membership predicate transitively depends on a slot the
    # subtype itself rules, so joining the subtype changes the inputs that
    # decided the membership.
    for cls_name, cls in predicate_classes:
        predicate = next(r for r in cls.rules if r.kind == "predicate")
        own_targets = {
            r.target for r in cls.rules if r.kind == "rule"
        }
        if not own_targets:
            continue
        closure = _local_closure(model, cls_name, predicate)
        hit = sorted(own_targets & closure)
        if hit:
            diagnostics.append(
                _diag(
                    "CA702",
                    cls_name,
                    f"membership predicate of {cls_name!r} depends on "
                    f"{hit[0]!r}, which {cls_name!r} itself rules; joining "
                    f"or leaving the subtype changes the value that decided "
                    f"the membership (oscillation hazard)",
                    predicate,
                )
            )
    return diagnostics


def _related_supertypes(model: SchemaModel, a: str, b: str) -> bool:
    """Can one instance be a member of both predicate subtypes?"""
    super_a = model.classes[a].supertype
    super_b = model.classes[b].supertype
    if super_a is None or super_b is None:
        return False
    return super_a in model.lineage(super_b) or super_b in model.lineage(
        super_a
    )


def _shared_rule_targets(cls_a, cls_b) -> set[str]:
    targets_a = {r.target for r in cls_a.rules if r.kind == "rule"}
    targets_b = {r.target for r in cls_b.rules if r.kind == "rule"}
    return targets_a & targets_b


def _provably_disjoint(
    model: SchemaModel, analysis: ValueAnalysis, name_a: str, name_b: str
) -> bool:
    rule_a = next(
        r for r in model.classes[name_a].rules if r.kind == "predicate"
    )
    rule_b = next(
        r for r in model.classes[name_b].rules if r.kind == "predicate"
    )
    # Propositional: the conjunction of the two predicates is unsat.
    if (
        rule_a.body is not None
        and rule_b.body is not None
        and not isinstance(rule_a.body, ast.Block)
        and not isinstance(rule_b.body, ast.Block)
    ):
        from repro.analysis.predicates import (
            _abstract,
            _boolean_names,
            _evaluate,
        )

        bools = _boolean_names(model, name_a)
        conjunction = (
            "and",
            _abstract(rule_a.body, bools),
            _abstract(rule_b.body, bools),
        )
        if _evaluate(conjunction) == "unsat":
            return True
    # Intervals: assume A's bounds, evaluate B (and vice versa).
    if rule_a.body is not None and rule_b.body is not None:
        host = model.classes[name_a].supertype or name_a
        if analysis.refined_predicate(host, rule_a, rule_b) == FALSE:
            return True
        if analysis.refined_predicate(host, rule_b, rule_a) == FALSE:
            return True
    return False


def _local_closure(
    model: SchemaModel, cls_name: str, predicate: RuleInfo
) -> set[str]:
    """Slots the predicate depends on, transitively through local rules."""
    view = model.effective_rules(cls_name)
    seen: set[str] = set()
    frontier = [d[1] for d in predicate.deps if d[0] == "local"]
    while frontier:
        slot = frontier.pop()
        if slot in seen:
            continue
        seen.add(slot)
        rule = view.get(slot)
        if rule is None:
            continue
        frontier.extend(
            d[1] for d in rule.deps if d[0] == "local" and d[1] not in seen
        )
    return seen


@dataclass(frozen=True)
class _Span:
    line: int
    column: int
