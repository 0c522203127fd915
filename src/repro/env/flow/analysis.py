"""Dataflow analyses as (circular) attribute systems.

The classic analyses the paper cites as environment services ([BaJ78],
[FoO76]) expressed over the CFG as attribute equations and solved with the
Farrow-style fixed-point evaluator
(:class:`repro.evaluation.fixedpoint.CircularAttributeSystem`):

* **reaching definitions** (forward, may):
  ``IN[n] = union(OUT[p] for p in preds)``,
  ``OUT[n] = gen(n) | (IN[n] - kill(n))``;
* **live variables** (backward, may):
  ``OUT[n] = union(IN[s] for s in succs)``,
  ``IN[n] = use(n) | (OUT[n] - def(n))``.

On loop-free programs the equations are acyclic and a plain evaluation
would do -- that is the "goto-less Pascal" case Cactis handles natively;
``while`` loops close cycles and the fixed-point iteration earns its keep.
Built on the analyses are the two diagnostics a software environment would
surface: possibly-uninitialised uses and dead (never-observed) stores.

The rest of the classic repertoire the paper's citations survey runs over
the same fixed-point machinery:

* **constant propagation** (forward, must): each variable maps to bottom
  (no information), a concrete constant, or TOP (conflicting values).  The
  transfer function evaluates right-hand sides over the constant
  environment; merges join pointwise.  Derived diagnostic:
  :func:`constant_folds` -- expressions whose value is fully known.
* **available expressions** (forward, must-intersect): a binary expression
  is available at a node when every path computed it and none of its
  operands were redefined since.  Derived diagnostic:
  :func:`redundant_computations` -- re-evaluations of available
  expressions, the classic CSE opportunity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.env.flow import minilang as ml
from repro.env.flow.cfg import CfgNode, ControlFlowGraph
from repro.evaluation.fixedpoint import CircularAttributeSystem

#: a definition site: (variable name, CFG node id).
DefSite = tuple[str, int]


def _union(*sets: frozenset) -> frozenset:
    result: frozenset = frozenset()
    for s in sets:
        if s:
            result = result | s
    return result


@dataclass
class ReachingDefinitions:
    """Solved reaching-definitions facts."""

    reach_in: dict[int, frozenset[DefSite]]
    reach_out: dict[int, frozenset[DefSite]]
    iterations: int

    def definitions_reaching(self, node_id: int, var: str) -> set[int]:
        """CFG nodes whose definition of ``var`` may reach ``node_id``."""
        return {nid for (name, nid) in self.reach_in[node_id] if name == var}


def reaching_definitions(cfg: ControlFlowGraph) -> ReachingDefinitions:
    """Solve reaching definitions over the CFG."""
    system = CircularAttributeSystem()
    all_defs: dict[str, set[DefSite]] = {}
    for node in cfg.nodes.values():
        if node.defines is not None:
            all_defs.setdefault(node.defines, set()).add((node.defines, node.node_id))

    for node in cfg.nodes.values():
        nid = node.node_id
        preds = list(node.predecessors)
        system.define(
            ("in", nid),
            [("out", p) for p in preds],
            lambda *outs: _union(*[o for o in outs if o is not None]),
            bottom=frozenset(),
        )
        if node.defines is not None:
            gen = frozenset({(node.defines, nid)})
            kill = frozenset(all_defs.get(node.defines, set()))

            def transfer(inset, gen=gen, kill=kill):
                inset = inset if inset is not None else frozenset()
                return gen | (inset - kill)

            system.define(("out", nid), [("in", nid)], transfer, bottom=frozenset())
        else:
            system.define(
                ("out", nid),
                [("in", nid)],
                lambda inset: inset if inset is not None else frozenset(),
                bottom=frozenset(),
            )
    values = system.solve()
    return ReachingDefinitions(
        reach_in={nid: values[("in", nid)] for nid in cfg.nodes},
        reach_out={nid: values[("out", nid)] for nid in cfg.nodes},
        iterations=system.iterations,
    )


@dataclass
class LiveVariables:
    """Solved liveness facts."""

    live_in: dict[int, frozenset[str]]
    live_out: dict[int, frozenset[str]]
    iterations: int


def live_variables(cfg: ControlFlowGraph) -> LiveVariables:
    """Solve live variables over the CFG (backward analysis)."""
    system = CircularAttributeSystem()
    for node in cfg.nodes.values():
        nid = node.node_id
        succs = list(node.successors)
        system.define(
            ("out", nid),
            [("in", s) for s in succs],
            lambda *ins: _union(*[i for i in ins if i is not None]),
            bottom=frozenset(),
        )
        use = node.uses
        define = node.defines

        def transfer(outset, use=use, define=define):
            outset = outset if outset is not None else frozenset()
            if define is not None:
                outset = outset - {define}
            return use | outset

        system.define(("in", nid), [("out", nid)], transfer, bottom=frozenset())
    values = system.solve()
    return LiveVariables(
        live_in={nid: values[("in", nid)] for nid in cfg.nodes},
        live_out={nid: values[("out", nid)] for nid in cfg.nodes},
        iterations=system.iterations,
    )


@dataclass(frozen=True)
class Diagnostic:
    """One analysis finding, addressed by CFG node."""

    node_id: int
    label: str
    message: str


def uninitialized_uses(cfg: ControlFlowGraph) -> list[Diagnostic]:
    """Variables that may be read before any assignment reaches them."""
    reaching = reaching_definitions(cfg)
    findings: list[Diagnostic] = []
    for node in cfg.statement_nodes():
        for var in sorted(node.uses):
            if not reaching.definitions_reaching(node.node_id, var):
                findings.append(
                    Diagnostic(
                        node.node_id,
                        node.label,
                        f"variable {var!r} may be used before assignment",
                    )
                )
    return findings


def dead_stores(cfg: ControlFlowGraph) -> list[Diagnostic]:
    """Assignments whose value can never be observed."""
    liveness = live_variables(cfg)
    findings: list[Diagnostic] = []
    for node in cfg.statement_nodes():
        if node.defines is None:
            continue
        if node.defines not in liveness.live_out[node.node_id]:
            findings.append(
                Diagnostic(
                    node.node_id,
                    node.label,
                    f"assignment to {node.defines!r} is never used",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# constant propagation and available expressions
# ---------------------------------------------------------------------------

# Constant lattice: BOTTOM < concrete int < TOP.
BOTTOM = "__bottom__"
TOP = "__top__"

ConstValue = Union[int, str]  # int, or one of the sentinels
ConstEnv = tuple  # sorted tuple of (var, value) pairs -- hashable & comparable


def _env_get(env: ConstEnv, var: str) -> ConstValue:
    for name, value in env:
        if name == var:
            return value
    return BOTTOM


def _env_set(env: ConstEnv, var: str, value: ConstValue) -> ConstEnv:
    items = [(n, v) for n, v in env if n != var]
    if value != BOTTOM:
        items.append((var, value))
    return tuple(sorted(items))


def _join_values(a: ConstValue, b: ConstValue) -> ConstValue:
    if a == BOTTOM:
        return b
    if b == BOTTOM:
        return a
    if a == b:
        return a
    return TOP


def _join_envs(envs: list[ConstEnv]) -> ConstEnv:
    merged: dict[str, ConstValue] = {}
    for env in envs:
        for var, value in env:
            merged[var] = _join_values(merged.get(var, BOTTOM), value)
    return tuple(sorted(merged.items()))


def _eval_const(expr: ml.MExpr, env: ConstEnv) -> ConstValue:
    if isinstance(expr, ml.Num):
        return expr.value
    if isinstance(expr, ml.Var):
        return _env_get(env, expr.name)
    left = _eval_const(expr.left, env)
    right = _eval_const(expr.right, env)
    if left in (BOTTOM, TOP) or right in (BOTTOM, TOP):
        return TOP if TOP in (left, right) else BOTTOM
    assert isinstance(left, int) and isinstance(right, int)
    op = expr.op
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right if right else TOP
        return int(
            {"<": left < right, ">": left > right, "<=": left <= right,
             ">=": left >= right, "==": left == right, "!=": left != right}[op]
        )
    except KeyError:  # pragma: no cover - grammar bounds the operators
        return TOP


@dataclass
class ConstantPropagation:
    """Solved constant facts."""

    env_in: dict[int, ConstEnv]
    env_out: dict[int, ConstEnv]
    iterations: int

    def constant_at(self, node_id: int, var: str) -> int | None:
        """The known constant value of ``var`` entering a node, if any."""
        value = _env_get(self.env_in[node_id], var)
        return value if isinstance(value, int) else None


def constant_propagation(cfg: ControlFlowGraph) -> ConstantPropagation:
    """Solve constant propagation over the CFG."""
    system = CircularAttributeSystem()
    for node in cfg.nodes.values():
        nid = node.node_id
        preds = list(node.predecessors)
        system.define(
            ("in", nid),
            [("out", p) for p in preds],
            lambda *outs: _join_envs([o for o in outs if o is not None]),
            bottom=(),
        )
        system.define(
            ("out", nid),
            [("in", nid)],
            _make_const_transfer(node),
            bottom=(),
        )
    values = system.solve()
    return ConstantPropagation(
        env_in={nid: values[("in", nid)] for nid in cfg.nodes},
        env_out={nid: values[("out", nid)] for nid in cfg.nodes},
        iterations=system.iterations,
    )


def _make_const_transfer(node: CfgNode):
    if node.kind != "assign":
        return lambda env: env if env is not None else ()
    # Reconstruct the assignment's RHS from the label is fragile; keep the
    # AST alongside instead: the CFG stores it in ``node.rhs`` when built
    # via build_cfg_with_ast below, else fall back to TOP.
    rhs = getattr(node, "rhs", None)
    var = node.defines

    def transfer(env):
        env = env if env is not None else ()
        value = _eval_const(rhs, env) if rhs is not None else TOP
        return _env_set(env, var, value)

    return transfer


def attach_rhs_asts(cfg: ControlFlowGraph, program: ml.Program) -> None:
    """Attach assignment RHS ASTs to CFG nodes (needed by constant prop).

    Statements are matched to nodes in program order; the CFG builder
    creates nodes in that same order.
    """
    assigns: list[ml.Assign] = []

    def walk(stmts):
        for stmt in stmts:
            if isinstance(stmt, ml.Assign):
                assigns.append(stmt)
            elif isinstance(stmt, ml.If):
                walk(stmt.then_body)
                walk(stmt.else_body)
            elif isinstance(stmt, ml.While):
                walk(stmt.body)

    walk(program.body)
    assign_nodes = [n for n in cfg.nodes.values() if n.kind == "assign"]
    for node, stmt in zip(assign_nodes, assigns):
        node.rhs = stmt.value  # type: ignore[attr-defined]


def constant_folds(cfg: ControlFlowGraph) -> list[tuple[int, str, int]]:
    """``(node_id, label, value)`` for assignments with fully known RHS."""
    cp = constant_propagation(cfg)
    folds = []
    for node in cfg.statement_nodes():
        rhs = getattr(node, "rhs", None)
        if node.kind != "assign" or rhs is None:
            continue
        value = _eval_const(rhs, cp.env_in[node.node_id])
        if isinstance(value, int):
            folds.append((node.node_id, node.label, value))
    return folds


# ---------------------------------------------------------------------------
# available expressions
# ---------------------------------------------------------------------------

_ALL = "__all__"  # the top element of the must-intersect lattice


def _expressions_of(node: CfgNode) -> frozenset[str]:
    rhs = getattr(node, "rhs", None)
    result: set[str] = set()

    def walk(expr) -> None:
        if isinstance(expr, ml.BinOp):
            result.add(_render(expr))
            walk(expr.left)
            walk(expr.right)

    if rhs is not None:
        walk(rhs)
    return frozenset(result)


def _render(expr: ml.MExpr) -> str:
    if isinstance(expr, ml.Num):
        return str(expr.value)
    if isinstance(expr, ml.Var):
        return expr.name
    return f"({_render(expr.left)} {expr.op} {_render(expr.right)})"


def _expr_uses(text_expr: str, var: str) -> bool:
    # Conservative: textual containment on rendered operands.
    import re

    return re.search(rf"\b{re.escape(var)}\b", text_expr) is not None


@dataclass
class AvailableExpressions:
    """Solved availability facts (must, forward)."""

    avail_in: dict[int, frozenset[str]]
    avail_out: dict[int, frozenset[str]]
    iterations: int


def available_expressions(cfg: ControlFlowGraph) -> AvailableExpressions:
    """Solve available expressions over the CFG (requires RHS ASTs)."""
    system = CircularAttributeSystem()
    universe: set[str] = set()
    for node in cfg.nodes.values():
        universe.update(_expressions_of(node))
    top = frozenset(universe)

    for node in cfg.nodes.values():
        nid = node.node_id
        preds = list(node.predecessors)
        if not preds:
            system.define(("in", nid), [], lambda: frozenset(), bottom=top)
        else:
            system.define(
                ("in", nid),
                [("out", p) for p in preds],
                lambda *outs: _intersect(
                    [o if o is not None else top for o in outs], top
                ),
                bottom=top,
            )
        gen = _expressions_of(node)
        define = node.defines

        def transfer(inset, gen=gen, define=define, top=top):
            inset = inset if inset is not None else top
            result = set(inset) | set(gen)
            if define is not None:
                result = {e for e in result if not _expr_uses(e, define)}
            return frozenset(result)

        system.define(("out", nid), [("in", nid)], transfer, bottom=top)
    values = system.solve()
    return AvailableExpressions(
        avail_in={nid: values[("in", nid)] for nid in cfg.nodes},
        avail_out={nid: values[("out", nid)] for nid in cfg.nodes},
        iterations=system.iterations,
    )


def _intersect(sets, top):
    result = set(top)
    for s in sets:
        result &= s
    return frozenset(result)


def redundant_computations(cfg: ControlFlowGraph) -> list[tuple[int, str, str]]:
    """``(node_id, label, expression)`` where an available expression is
    recomputed -- the classic common-subexpression opportunity."""
    availability = available_expressions(cfg)
    findings = []
    for node in cfg.statement_nodes():
        for expr in sorted(_expressions_of(node)):
            if expr in availability.avail_in[node.node_id]:
                findings.append((node.node_id, node.label, expr))
    return findings
