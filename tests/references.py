"""Test-side references for the engine's single code path.

The engine has one traversal (slot plans), one backend for DSL bodies
(closures generated when a body is compiled from source), and one freeze
pipeline (analyze, fold).  What each is checked against lives here, on
the test side, instead of behind a switch in ``src/``:

* **values** -- :func:`full_recompute_db`, a database whose engine
  re-evaluates every derived slot after every change;
* **evaluation work** -- the paper's Section 2.2 strawmen, substituted
  through ``Database(engine_factory=...)``: eager triggers fired
  depth-first / breadth-first (:func:`depth_first_factory`,
  :func:`breadth_first_factory`) and :func:`full_recompute_factory`;
* **traversal order** -- :func:`fixed_order_db`, whose
  :class:`FixedOrderScheduler` runs work strictly FIFO or LIFO (the
  naive orders of Section 2.3 / experiment E4);
* **the dependency graph** -- :func:`reference_depgraph`, a stored
  :class:`DependencyGraph` rebuilt from ``schema.resolved(...)`` rules x
  live connections without touching a slot plan; ``Database.depgraph`` (a
  view of the plans the engine traverses) must equal it;
* **marking counters** -- :class:`MarkingOracle`, which holds the first
  wave of every operation to the paper's ``Could_Change`` bound computed
  on that reference graph;
* **compiled bodies** -- :class:`ReferenceInterpreter`, a tree walker
  over a body's resolution that spells out the DSL's semantics, and
  :func:`interpreted`, which swaps every :class:`CompiledBody` of a schema
  for it;
* **folded predicates** -- :func:`unfolded`, which freezes schemas
  without analysis facts so nothing is folded;
* **the query reader** -- :func:`reference_read_inputs`, the hand-written
  per-candidate, per-input loop that ``Database.read_inputs``' generated
  reader replaced, touching records through ``BufferPool.fetch``.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from contextlib import nullcontext
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Sequence
from unittest import mock

from repro.compile import CompiledBody
from repro.core.database import Database
from repro.core.rules import (
    AttributeTarget,
    Local,
    Received,
    is_constraint_attr,
    is_subtype_attr,
)
from repro.core.slots import Slot, transmit_slot
from repro.dsl import ast
from repro.dsl.resolve import Attr, Const, Recv, Var
from repro.errors import (
    CactisError,
    CycleError,
    DslRuntimeError,
    RuleEvaluationError,
)
from repro.evaluation.engine import IncrementalEngine
from repro.evaluation.scheduler import ChunkScheduler
from repro.graph.cycles import find_cycle
from repro.graph.depgraph import could_change
from repro.obs.events import SlotEvaluated, WaveEnd, WaveStart


def _div(left, right):
    """DSL division: C-style integer division when both operands are ints."""
    if isinstance(left, int) and isinstance(right, int):
        return left // right
    return left / right


#: the strict binary operators (``and``/``or`` short-circuit apart).
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


class _Return(Exception):
    """Control flow for ``return`` statements."""

    def __init__(self, value: Any) -> None:
        self.value = value


class ReferenceInterpreter:
    """The DSL's semantics as a tree walker over a compiled body's resolution.

    Dispatches on AST node type on every call, reading each name through
    the binding :mod:`repro.dsl.resolve` gave it -- the reference every
    :class:`CompiledBody` closure is checked against.  ``predicate``
    coerces the result to a bool, as constraint, membership and query
    bodies do.
    """

    def __init__(self, compiled: CompiledBody, atoms, predicate: bool = False) -> None:
        self.resolution = compiled.resolution
        self.functions = compiled.functions
        self.constants = compiled.constants
        self.atoms = atoms
        self.predicate = predicate
        self.__name__ = compiled.__name__

    def __call__(self, **kwargs: Any) -> Any:
        value = self._run(kwargs)
        return bool(value) if self.predicate else value

    def _run(self, kwargs: dict[str, Any]) -> Any:
        env = (kwargs, {}, {})  # inputs, variables, loop depth -> index
        body = self.resolution.body
        if not isinstance(body, ast.Block):
            return self._eval(body, env)
        try:
            self._exec_stmts(body.body, env)
        except _Return as signal:
            return signal.value
        raise DslRuntimeError("rule body finished without a return statement")

    def _exec_stmts(self, stmts, env) -> None:
        for stmt in stmts:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.Stmt, env) -> None:
        kwargs, variables, index = env
        if isinstance(stmt, ast.VarDecl):
            variables[stmt.name] = self.atoms.get(stmt.type_name).default
        elif isinstance(stmt, ast.Assign):
            variables[stmt.name] = self._eval(stmt.value, env)
        elif isinstance(stmt, ast.ForEach):
            loop = self.resolution.refs[id(stmt)]
            for i in range(len(kwargs[loop.kw])):
                index[loop.depth] = i
                self._exec_stmts(stmt.body, env)
        elif isinstance(stmt, ast.If):
            if self._eval(stmt.cond, env):
                self._exec_stmts(stmt.then_body, env)
            else:
                self._exec_stmts(stmt.else_body, env)
        elif isinstance(stmt, ast.Return):
            raise _Return(self._eval(stmt.value, env))
        else:  # ExprStmt
            self._eval(stmt.value, env)

    def _eval(self, expr: ast.Expr, env) -> Any:
        kwargs, variables, index = env
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.Call):
            return self.functions[expr.fn](*[self._eval(a, env) for a in expr.args])
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand, env)
            return (not operand) if expr.op == "not" else -operand
        if isinstance(expr, ast.Binary):
            if expr.op == "and":
                return bool(self._eval(expr.left, env)) and bool(self._eval(expr.right, env))
            if expr.op == "or":
                return bool(self._eval(expr.left, env)) or bool(self._eval(expr.right, env))
            return BINARY_OPS[expr.op](self._eval(expr.left, env), self._eval(expr.right, env))
        ref = self.resolution.refs[id(expr)]
        if isinstance(ref, Var):
            if ref.name in variables:
                return variables[ref.name]
            ref = self.resolution.variables[ref.name]
        if isinstance(ref, Attr):
            return kwargs[ref.kw]
        if isinstance(ref, Const):
            return self.constants[ref.name]
        if isinstance(ref, Recv):
            value = kwargs[ref.kw]
            return value if ref.depth is None else value[index[ref.depth]]
        raise DslRuntimeError(f"unbound name {expr!r}")


def interpreted(schema):
    """Run a frozen schema's DSL bodies on the reference interpreter, in place.

    Every :class:`CompiledBody` -- resolved rules and the raw constraint /
    subtype predicates -- becomes a :class:`ReferenceInterpreter` built from
    its resolution (predicates coerced to bool).  Call before building a
    :class:`Database`.
    """

    def swap(holder, attr, predicate):
        body = getattr(holder, attr)
        if isinstance(body, CompiledBody):
            object.__setattr__(
                holder, attr, ReferenceInterpreter(body, schema.atoms, predicate)
            )

    for resolved in schema._resolved.values():
        for rule in resolved.rules:
            target = rule.target
            name = target.attr if isinstance(target, AttributeTarget) else ""
            swap(rule, "body", is_constraint_attr(name) or is_subtype_attr(name))
    for cls in schema.classes.values():
        for constraint in cls.constraints:
            swap(constraint, "predicate", True)
        if cls.predicate is not None:
            swap(cls.predicate, "predicate", True)
    return schema


def unfolded(active: bool = True):
    """Context manager: schemas frozen inside get no analysis facts.

    With ``schema.analysis_facts`` None nothing is folded and slot plans
    keep declaration order -- the behaviour ``Schema.freeze`` also falls
    back to when the analyzer itself fails.  ``active=False`` is a no-op,
    so one ``with`` serves both arms of an A/B.
    """
    if not active:
        return nullcontext()
    return mock.patch("repro.analysis.facts.compute_facts", lambda schema: None)


def topological_order(
    seeds: Iterable[Slot],
    dependencies: Callable[[Slot], Sequence[Slot]],
) -> list[Slot]:
    """Dependencies-first ordering of everything reachable from ``seeds``.

    Raises :class:`repro.errors.CycleError` when the region is cyclic.
    """
    white, gray, black = 0, 1, 2
    order: list[Slot] = []
    colour: dict[Slot, int] = {}
    for seed in seeds:
        if colour.get(seed, white) != white:
            continue
        stack: list[tuple[Slot, list[Slot], int]] = [
            (seed, list(dependencies(seed)), 0)
        ]
        colour[seed] = gray
        while stack:
            slot, deps, index = stack.pop()
            if index < len(deps):
                stack.append((slot, deps, index + 1))
                nxt = deps[index]
                state = colour.get(nxt, white)
                if state == gray:
                    cycle = find_cycle([seed], dependencies)
                    raise CycleError(cycle if cycle else [nxt, slot])
                if state == white:
                    colour[nxt] = gray
                    stack.append((nxt, list(dependencies(nxt)), 0))
            else:
                colour[slot] = black
                order.append(slot)
    return order


class TriggerBudgetExceeded(CactisError):
    """An eager reference engine exceeded its recomputation budget.

    Eager propagation is exponential on path-rich graphs; the budget turns
    a runaway comparison into a measurable, reportable event.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        super().__init__(f"trigger propagation exceeded {budget} recomputations")


class EagerTriggerEngine(IncrementalEngine):
    """Eager per-edge trigger propagation (the Section 2.2 strawman).

        "a simple trigger mechanism might work recursively, invoking new
        triggers as soon as data changes.  Any trigger mechanism which
        uses a fixed ordering of some sort (e.g. depth first or breadth
        first) can needlessly recompute some values, in fact, in the worst
        case can recompute an exponential number of values."

    *Correct* -- the final state matches the incremental engine's -- but
    push-based: a change recomputes each dependent immediately and then
    pushes *its* dependents, once per edge, so a slot is recomputed once
    per path from the change.  Nothing is ever left out of date, so the
    marking, batching and scheduling it inherits from
    :class:`IncrementalEngine` stay idle; only the three entry points the
    database drives are replaced.  Never-computed values are
    pull-evaluated in dependency order on first touch.
    """

    #: which end of the worklist fires next; subclasses fix the order.
    _next: Callable[[deque], Slot]

    def __init__(self, host: Database, budget: int | None = None) -> None:
        super().__init__(host)
        self.budget = budget
        self._recomputes_this_txn = 0

    def propagate_intrinsic_change(self, slot: Slot) -> None:
        self._recomputes_this_txn = 0
        self._fire_from([slot])

    def invalidate_derived(self, slots: Iterable[Slot]) -> None:
        self._recomputes_this_txn = 0
        slots = list(slots)
        for slot in slots:
            self._recompute(slot)
        self._fire_from(slots)

    def demand(self, slot: Slot) -> Any:
        self.counters.demands += 1
        self._pull_evaluate(slot)
        self.host.storage.touch(slot[0])
        return self.host.read_slot_value(slot)

    def register_demand(self, slot: Slot) -> None:
        super().register_demand(slot)
        self._pull_evaluate(slot)

    def _fire_from(self, seeds: Iterable[Slot]) -> None:
        dependents = self.host.depgraph.dependents
        worklist: deque[Slot] = deque()
        for seed in seeds:
            for dependent in dependents(seed):
                self.counters.mark_edge_visits += 1
                worklist.append(dependent)
        while worklist:
            slot = self._next(worklist)
            self._recompute(slot)
            for dependent in dependents(slot):
                self.counters.mark_edge_visits += 1
                worklist.append(dependent)

    def _needs_first_value(self, slot: Slot) -> bool:
        host = self.host
        return host.rule_for(slot) is not None and not host.has_slot_value(slot)

    def _recompute(self, slot: Slot) -> None:
        """Re-run one slot's rule against current (cached) input values."""
        host = self.host
        rule = host.rule_for(slot)
        if rule is None:
            return
        if self.budget is not None:
            self._recomputes_this_txn += 1
            if self._recomputes_this_txn > self.budget:
                raise TriggerBudgetExceeded(self.budget)
        iid, name = slot
        plan = self._plans.plan_of(iid)
        bindings = plan.resolve_bindings(
            plan.index[name], iid, self._plans.instance_of(iid)
        )
        values: dict[Slot, Any] = {}
        for binding in bindings:
            for dep in binding.slots:
                if dep in values:
                    continue
                self._pull_evaluate(dep)
                host.storage.touch(dep[0])
                values[dep] = host.read_slot_value(dep)
        host.storage.touch(iid, dirty=True)
        try:
            value = rule.body(**{b.kw: b.assemble(iid, values) for b in bindings})
        except Exception as exc:
            raise RuleEvaluationError(slot, exc) from exc
        had_old = host.has_slot_value(slot)
        old = host.read_slot_value(slot) if had_old else None
        host.write_slot_value(slot, value)
        self.counters.rule_evaluations += 1
        if had_old and old == value:
            self.counters.unchanged_evaluations += 1
        if is_constraint_attr(name):
            host.handle_constraint_result(slot, bool(value))
        elif is_subtype_attr(name):
            host.handle_subtype_result(slot, bool(value))

    def _pull_evaluate(self, slot: Slot) -> None:
        """First-touch evaluation of a never-computed slot, deps first."""
        if not self._needs_first_value(slot):
            return

        def dependencies(s: Slot) -> list[Slot]:
            if not self._needs_first_value(s):
                return []
            return self.host.depgraph.dependencies(s)

        for s in topological_order([slot], dependencies):
            if self._needs_first_value(s):
                self._recompute(s)


class DepthFirstTriggerEngine(EagerTriggerEngine):
    """Triggers fired in depth-first order (a LIFO stack of pending edges)."""

    _next = staticmethod(deque.pop)


class BreadthFirstTriggerEngine(EagerTriggerEngine):
    """Triggers fired in breadth-first order (a FIFO queue of pending edges)."""

    _next = staticmethod(deque.popleft)


class FullRecomputeEngine(EagerTriggerEngine):
    """Recomputes the entire derived state on every change.

    "One approach would be to recompute all attribute values every time a
    change is made to any part of the system.  This is clearly too
    expensive."  (Section 2.2.)  The upper anchor of experiment E1, and --
    checked at batch close like the incremental engine's coalesced wave,
    so constraints see the same final state -- the value reference of
    :func:`full_recompute_db`.
    """

    def propagate_intrinsic_change(self, slot: Slot) -> None:
        self._recompute_everything()

    def invalidate_derived(self, slots: Iterable[Slot]) -> None:
        self._recompute_everything()

    def end_batch(self) -> None:
        super().end_batch()
        self._recompute_everything()

    def _recompute_everything(self) -> None:
        if self.in_batch:
            return  # one recomputation at batch close
        self._recomputes_this_txn = 0
        host = self.host
        derived = [s for s in host.depgraph.slots() if host.rule_for(s) is not None]
        # Dependencies first, so inputs are always fresh.
        for slot in topological_order(derived, host.depgraph.dependencies):
            self._recompute(slot)


def depth_first_factory(budget: int | None = None):
    """``engine_factory`` for :class:`DepthFirstTriggerEngine`."""
    return partial(DepthFirstTriggerEngine, budget=budget)


def breadth_first_factory(budget: int | None = None):
    """``engine_factory`` for :class:`BreadthFirstTriggerEngine`."""
    return partial(BreadthFirstTriggerEngine, budget=budget)


def full_recompute_factory(budget: int | None = None):
    """``engine_factory`` for :class:`FullRecomputeEngine`."""
    return partial(FullRecomputeEngine, budget=budget)


def full_recompute_db(schema, **kwargs) -> Database:
    """The value reference: a database that recomputes everything."""
    return Database(schema, engine_factory=FullRecomputeEngine, **kwargs)


class FixedOrderScheduler(ChunkScheduler):
    """Work runs strictly first-in-first-out or last-in-first-out.

    The naive breadth-first / depth-first traversal orders Section 2.3
    argues against (experiment E4): no very-high queue for resident work,
    no promotion when a block is loaded, no pricing by expected I/O.  Every
    unit is parked in the inherited heap, priced by arrival alone and
    indexed under no block, so nothing is ever promoted or demoted, every
    unit counts as one that waited, and ``idle`` / ``clear`` / the
    background lane work unchanged.
    """

    def __init__(self, order: str, runner: Callable[[tuple, bool], None]) -> None:
        super().__init__(lambda iid: False, lambda iid: None, runner)
        #: FIFO prices every unit alike (arrival order breaks the tie);
        #: LIFO prices the newest cheapest.
        self._arrival_sign = {"fifo": 0, "lifo": -1}[order]

    def schedule(self, work: tuple, priority: float = 0.0, user_request: bool = False) -> None:
        self._park(work, 1, self._arrival_sign * self._seq, True)


def fixed_order_db(schema, order: str, **sizing) -> Database:
    """A database whose waves run in fixed ``"fifo"`` / ``"lifo"`` order."""
    db = Database(schema, **sizing)
    scheduler = FixedOrderScheduler(order, db.engine._run)
    db.engine.scheduler = scheduler
    db.storage.buffer.on_load = scheduler.on_block_loaded
    db.storage.buffer.on_evict = scheduler.on_block_evicted
    return db


#: experiment E4's traversal orders: the engine's own, then the two references.
ORDERS = ("greedy", "fifo", "lifo")


def db_in_order(schema, order: str, **sizing) -> Database:
    """A database running its waves in one of :data:`ORDERS`."""
    if order == "greedy":
        return Database(schema, **sizing)
    return fixed_order_db(schema, order, **sizing)


#: shared empty adjacency for slots with no edges (avoids per-call allocation).
_EMPTY: dict[Slot, int] = {}


class DependencyGraph:
    """A stored directed multigraph over slots with O(1) edge add/remove.

    This was ``Database.depgraph`` until the database derived its graph
    from slot plans; it lives on as the reference the view is checked
    against.  An edge ``src -> dst`` means ``dst``'s rule reads ``src``;
    an edge carries the number of *mentions* behind it (two ports of one
    consumer wired to one producer port mention the producer's slot
    twice), and ``dependents`` / ``dependencies`` repeat a slot once per
    mention.  Insertion-ordered ``dict`` adjacency keeps every traversal
    deterministic regardless of ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self._dependents: dict[Slot, dict[Slot, int]] = {}
        self._dependencies: dict[Slot, dict[Slot, int]] = {}
        self.edge_count = 0

    # -- mutation ------------------------------------------------------------

    def add_edge(self, src: Slot, dst: Slot, mentions: int = 1) -> bool:
        """Add ``src -> dst``; returns False when the edge already existed."""
        outs = self._dependents.setdefault(src, {})
        if dst in outs:
            return False
        outs[dst] = mentions
        self._dependencies.setdefault(dst, {})[src] = mentions
        self.edge_count += 1
        return True

    def remove_edge(self, src: Slot, dst: Slot) -> bool:
        """Remove ``src -> dst``; returns False when the edge was absent."""
        outs = self._dependents.get(src)
        if outs is None or dst not in outs:
            return False
        del outs[dst]
        if not outs:
            del self._dependents[src]
        ins = self._dependencies[dst]
        del ins[src]
        if not ins:
            del self._dependencies[dst]
        self.edge_count -= 1
        return True

    def remove_slot(self, slot: Slot) -> None:
        """Remove every edge touching ``slot`` (instance deletion)."""
        for dst in list(self._dependents.get(slot, ())):
            self.remove_edge(slot, dst)
        for src in list(self._dependencies.get(slot, ())):
            self.remove_edge(src, slot)

    # -- queries ------------------------------------------------------------

    def dependents(self, slot: Slot) -> list[Slot]:
        """Slots whose rules read ``slot``, once per mention, in edge order."""
        return [
            dst
            for dst, mentions in self._dependents.get(slot, _EMPTY).items()
            for __ in range(mentions)
        ]

    def dependencies(self, slot: Slot) -> list[Slot]:
        """Slots read by ``slot``'s rule, once per mention, in edge order."""
        return [
            src
            for src, mentions in self._dependencies.get(slot, _EMPTY).items()
            for __ in range(mentions)
        ]

    def iter_dependents(self, slot: Slot) -> Iterable[Slot]:
        """The distinct dependents of ``slot`` as a live view (no copy)."""
        return self._dependents.get(slot, _EMPTY)

    def iter_dependencies(self, slot: Slot) -> Iterable[Slot]:
        """The distinct dependencies of ``slot`` as a live view (no copy)."""
        return self._dependencies.get(slot, _EMPTY)

    def has_dependents(self, slot: Slot) -> bool:
        return slot in self._dependents

    def has_edge(self, src: Slot, dst: Slot) -> bool:
        return dst in self._dependents.get(src, ())

    def slots(self) -> Iterator[Slot]:
        """Every slot that appears on at least one edge."""
        seen: dict[Slot, None] = {}
        for slot in self._dependents:
            seen[slot] = None
        for slot in self._dependencies:
            seen[slot] = None
        return iter(seen)

    def out_degree(self, slot: Slot) -> int:
        return len(self._dependents.get(slot, ()))

    def in_degree(self, slot: Slot) -> int:
        return len(self._dependencies.get(slot, ()))

    def __len__(self) -> int:
        """Number of distinct edges."""
        return self.edge_count

    def __repr__(self) -> str:
        return f"DependencyGraph(edges={self.edge_count})"


def reference_edges(db: Database) -> list[tuple[Slot, Slot]]:
    """Every dependency edge of ``db``, one per mention, from first principles.

    For each instance: the rules of its class, overlaid in sorted order by
    what each active predicate subtype adds or overrides; for each distinct
    input of each rule, a ``Local`` is one edge and a ``Received`` is one
    edge per live connection on its port.  Reads the schema's resolved
    classes and the connection table only -- never a slot plan.
    """
    schema = db.schema
    edges: list[tuple[Slot, Slot]] = []
    for iid in db.instance_ids():
        instance = db.instance(iid)
        base = schema.resolved(instance.class_name).rule_for
        rules = dict(base)
        for subtype in sorted(instance.active_subtypes):
            for name, rule in schema.resolved(subtype).rule_for.items():
                if base.get(name) is not rule:
                    rules[name] = rule
        for name, rule in rules.items():
            for inp in dict.fromkeys(rule.inputs.values()):
                if isinstance(inp, Local):
                    edges.append(((iid, inp.attr), (iid, name)))
                elif isinstance(inp, Received):
                    for conn in instance.connections_on(inp.port):
                        src = transmit_slot(conn.peer, conn.peer_port, inp.value)
                        edges.append((src, (iid, name)))
    return edges


def reference_depgraph(db: Database) -> DependencyGraph:
    """The stored graph ``Database.depgraph`` must be a view of."""
    graph = DependencyGraph()
    for (src, dst), mentions in Counter(reference_edges(db)).items():
        graph.add_edge(src, dst, mentions)
    return graph


class MarkingOracle:
    """Hold the first wave of every operation to ``Could_Change``.

    Subscribes to the database's event hub.  Call :meth:`new_operation`
    before each primitive (or batch); when its first wave starts the
    oracle computes ``could_change(reference_depgraph(db), seeds)`` -- a
    graph rebuilt without the slot plans the engine marks from -- and,
    when no slot
    of the region is already marked (a *fresh* wave; marked slots cut the
    traversal short), asserts at the end of the marking phase that

    * ``slots_marked`` grew by the region's derived slots, and
    * ``mark_edge_visits`` grew by the region's edge count,

    which is the paper's ``O(Nodes + Edges)`` bound met with equality.
    Later waves of the same operation (subtype flips during phase 2, the
    disconnects of a delete) start while evaluation requests are queued,
    so their marking interleaves with phase 2 and is not measured.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        self.checked = 0
        self._armed = False
        self._expect: tuple[int, int, int, int] | None = None
        db.obs.hub.subscribe(self._on_event)

    def new_operation(self) -> None:
        self._armed = True
        self._expect = None

    def _on_event(self, event) -> None:
        if not isinstance(event, (WaveStart, WaveEnd, SlotEvaluated)):
            return
        counters = self.db.engine.counters
        if self._expect is not None:
            # First phase-2 event (or the wave's end): marking is over.
            marked0, visits0, nodes, edges = self._expect
            self._expect = None
            assert counters.slots_marked - marked0 == nodes
            assert counters.mark_edge_visits - visits0 == edges
            self.checked += 1
        elif self._armed and isinstance(event, WaveStart):
            self._armed = False
            placed = self.db.storage.is_placed
            intrinsic = {s for s in event.intrinsic_seeds if placed(s[0])}
            derived = {s for s in event.derived_seeds if placed(s[0])}
            region, edges = could_change(
                reference_depgraph(self.db), intrinsic | derived
            )
            region -= intrinsic  # the changed slots themselves are not marked
            if region.isdisjoint(self.db.engine.out_of_date):
                self._expect = (
                    counters.slots_marked,
                    counters.mark_edge_visits,
                    len(region),
                    edges,
                )


# ---------------------------------------------------------------------------
# the query reader
# ---------------------------------------------------------------------------

_UNSTORED = object()


def reference_read_inputs(
    db: Database, iids: Sequence[int], inputs: Sequence, body=None, limit=None
) -> list:
    """``Database.read_inputs`` as one generic loop over candidates and inputs.

    Same contract: with ``body``, the candidates it holds for, stopping at
    ``limit`` matches; without, each candidate's values as a tuple.  Every
    input is read in order -- a clean ``Local`` slot from the stored
    values (the record touched at the first one, through
    ``BufferPool.fetch`` and ``UsageStats.note_instance_access``), a stale
    or never-evaluated one through ``engine.demand`` -- so demands, rule
    evaluations, buffer traffic and errors are what reading every input
    through ``get_attr`` gives, one touch per candidate on the direct path.
    """
    engine = db.engine
    storage = db.storage
    out: list = []
    engine.settle_marks()
    for iid in iids:
        instance = db._catalog.get(iid)
        if instance is None:
            db.instance(iid)  # raises UnknownInstanceError
        attributes = db.slot_plans.plan_of(iid).attributes
        touched = False
        row = []
        for decl in inputs:
            if isinstance(decl, Received):
                row.append(db._received_input(iid, instance, decl))
                continue
            if not isinstance(decl, Local):  # SelfRef
                row.append(iid)
                continue
            name = decl.attr
            if name not in attributes:
                db._readable_slot(iid, name)  # raises unless special
            value = instance.attrs.get(name, _UNSTORED)
            if value is _UNSTORED or (iid, name) in engine.out_of_date:
                value = engine.demand((iid, name))
                engine.settle_marks()
            else:
                engine.counters.demands += 1
                if not touched:
                    storage.buffer.fetch(storage.block_of(iid))
                    storage.usage.note_instance_access(iid)
                    touched = True
            row.append(value)
        if body is None:
            out.append(tuple(row))
        elif body(*row):
            out.append(iid)
            if len(out) == limit:
                break
    return out
