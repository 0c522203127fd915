"""A small query language over the data language's expressions.

Cactis retrieval is attribute-at-a-time; real environments also want set
queries ("all the late milestones").  This module adds them without new
machinery: the ``where`` clause is an ordinary data-language expression
compiled by the schema compiler into the same kind of closure as a rule
body, packaged as a :class:`~repro.core.predicates.Predicate`, and
evaluated per candidate instance over the values
:meth:`~repro.core.database.Database.read_inputs` reads: one touch per
candidate, clean slots straight from storage, and out-of-date ones
demanded through the incremental engine, so queries always see
consistent values.

Grammar::

    query := "select" CLASS
             ["where" expr]
             ["order" "by" ATTR ["asc" | "desc"]]
             ["limit" INT]

(at most one ``order by`` and one ``limit`` clause, in either order).

Example::

    run_query(db, "select milestone where late and local_work > 5 "
                  "order by exp_compl desc limit 3")

The planner
-----------

:meth:`Query.run` no longer always scans.  At compile time the ``where``
clause is split into top-level conjuncts and each ``attr <op> literal``
comparison becomes a *sarg* (search argument) with the remaining
conjuncts compiled as its residual predicate.  At run time
:meth:`Query.plan` prices the alternatives with the freeze-time cost
model (:class:`repro.analysis.facts.CostModel`) and the live structures
of :class:`repro.index.IndexManager`:

* **scan** -- filter every instance of the class, stable-sort, slice.
  :meth:`Query.run_scan` is the same algorithm over views and
  ``get_attr``: the independent reference every path is checked against.
* **extent** -- a predicate-subtype ``select`` answered from the
  maintained member set instead of an ``is_member`` probe per instance.
* **index_eq** / **index_range** -- an equality or range sarg answered
  from an attribute index bucket / ``bisect`` slice, with the residual
  conjuncts evaluated only over the narrowed candidates.
* **index_order** -- ``order by`` answered by walking the index in key
  order; a ``limit`` short-circuits the walk.  When the order key also
  carries a sarg, the walk starts and stops at the sarg's bound and
  filters only its residual, priced at ``min(limit, matching)`` probes
  when there is no residual -- a ranged top-k reads k rows, not every
  match.

Without an ``order by``, a ``limit`` also stops the filter of the scan,
extent and sarg paths once that many candidates match
(:meth:`Predicate.select`'s ``limit``): later candidates are never read.

Every indexed path first *refreshes* the structures it reads (evaluating
pending and stale derived slots -- see :mod:`repro.index.manager`) and
falls back to the scan when the index cannot guarantee the naive
semantics (mixed key types, unhashable values), so results -- including
raised errors -- are byte-identical to :meth:`Query.run_scan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.predicates import Predicate
from repro.core.rules import NATIVE_OPS, Local, subtype_attr_name
from repro.dsl import ast
from repro.dsl.compiler import SchemaCompiler
from repro.dsl.parser import Parser
from repro.dsl.resolve import Scope
from repro.errors import DslCompileError, DslSyntaxError, QueryError
from repro.index.manager import AttrIndex, group_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database
    from repro.index.manager import IndexManager

_SARG_OPS = frozenset({"==", "<", "<=", ">", ">="})
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}
_RANGE_OPS = frozenset({"<", "<=", ">", ">="})

#: sentinel: an indexed execution discovered it cannot reproduce the
#: naive semantics and the plan must degrade to the scan path.
_FALLBACK = object()


@dataclass(frozen=True)
class Sarg:
    """One sargable conjunct: ``attr <op> literal``.

    ``residual`` is the conjunction of every *other* top-level conjunct,
    compiled as its own predicate -- evaluated over the candidates the
    index probe returns instead of re-checking the whole ``where`` body.
    ``None`` means the sarg was the entire predicate.
    """

    attr: str
    op: str
    value: Any
    residual: Predicate | None


@dataclass(frozen=True)
class Query:
    """A parsed-and-compiled query, reusable across executions."""

    class_name: str
    predicate: Predicate | None
    order_by: str | None
    descending: bool
    limit: int | None
    sargs: tuple[Sarg, ...] = ()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, db: "Database") -> list[int]:
        """Instance ids matching the query, in the requested order."""
        return self.plan(db).execute()

    def run_scan(self, db: "Database") -> list[int]:
        """The naive full-scan reference path (what :meth:`run` A/Bs against).

        Independent of the planner's read path: every input and order key
        goes through a view and ``get_attr``, one slot at a time.
        """
        candidates = db.instances_of(self.class_name)
        if self.predicate is not None:
            candidates = [
                iid
                for iid in candidates
                if self.predicate.on_view(db.view(iid))
            ]
        if self.order_by is not None and candidates:
            keys = {iid: db.get_attr(iid, self.order_by) for iid in candidates}
            self._sort(candidates, keys)
        return self._limit(candidates)

    def _scan(self, db: "Database") -> list[int]:
        """The ``scan`` access path: :meth:`run_scan` over the read path."""
        candidates = db.instances_of(self.class_name)
        if self.predicate is not None:
            candidates = self._select(db, self.predicate, candidates)
        return self._order_and_limit(db, candidates)

    def _select(
        self, db: "Database", predicate: Predicate, candidates: list[int]
    ) -> list[int]:
        """Filter ``candidates``; unordered, stop once ``limit`` match."""
        limit = self.limit if self.order_by is None else None
        return predicate.select(db, candidates, limit)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(self, db: "Database") -> "QueryPlan":
        """Choose scan vs index for this query against ``db``'s live state."""
        mgr: "IndexManager | None" = getattr(db, "indexes", None)
        schema = db.schema
        raw = schema.classes[self.class_name]
        predicate_class = raw.predicate is not None

        facts = getattr(schema, "analysis_facts", None)
        cost_model = getattr(facts, "cost", None)

        def ops_of(slot_name: str) -> int:
            if cost_model is None:
                return NATIVE_OPS
            return cost_model.ops_of(self.class_name, slot_name)

        def pred_ops(predicate: Predicate | None) -> int:
            if predicate is None:
                return 0
            ops = 1
            for decl in predicate.inputs.values():
                if isinstance(decl, Local):
                    ops += ops_of(decl.attr)
                else:  # a received value: at least one crossing per probe
                    ops += NATIVE_OPS
            return ops

        full_ops = pred_ops(self.predicate)

        if mgr is None:
            return QueryPlan(self, db, "scan", cost=0.0, scan_cost=0.0)

        n_total = mgr.total_count()
        extent = mgr.extents.get(self.class_name) if predicate_class else None
        if predicate_class:
            member_ops = 1 + ops_of(subtype_attr_name(self.class_name))
            n_cone = mgr.count_of_cone(
                mgr.concrete_cone(raw.supertype or self.class_name)
            )
            n_members = (
                len(extent.members) + len(extent.pending)
                if extent is not None
                else n_cone
            )
            scan_cost = float(
                n_total + n_cone * member_ops + n_members * (1 + full_ops)
            )
            n_candidates = n_members
        else:
            n_candidates = mgr.count_of_cone(mgr.concrete_cone(self.class_name))
            scan_cost = float(n_total + n_candidates * (1 + full_ops))

        best = QueryPlan(self, db, "scan", cost=scan_cost, scan_cost=scan_cost)

        if extent is not None:
            sweep = len(extent.pending) * member_ops
            cost = float(sweep + len(extent.members) * (1 + full_ops))
            if cost < best.cost:
                best = QueryPlan(
                    self, db, "extent", cost=cost, scan_cost=scan_cost
                )

        #: (sarg, pre-refresh match estimate) of every sarg an index serves
        estimates: list[tuple[Sarg, int]] = []
        for sarg in self.sargs:
            index = mgr.find_index(self.class_name, sarg.attr)
            if index is None or not index.usable:
                continue
            matching = self._estimate_matching(index, sarg)
            if matching is None:
                continue
            estimates.append((sarg, matching))
            sweep = len(index.pending) * (ops_of(sarg.attr) if index.derived else 0)
            cost = float(sweep + matching * (1 + pred_ops(sarg.residual)))
            if extent is not None:
                cost += len(extent.pending) * member_ops
            if cost < best.cost:
                path = "index_eq" if sarg.op == "==" else "index_range"
                best = QueryPlan(
                    self, db, path, index=index, sarg=sarg,
                    cost=cost, scan_cost=scan_cost,
                )

        if self.order_by is not None:
            index = mgr.find_index(self.class_name, self.order_by)
            if index is not None and index.usable and index.single_group() in (
                "num",
                "str",
            ):
                # A sarg on the order key bounds the walk to its matching
                # keys, leaving only its residual to filter.
                bound, examined, residual = None, n_candidates, self.predicate
                for sarg, matching in estimates:
                    if sarg.attr == self.order_by and matching < examined:
                        bound, examined, residual = sarg, matching, sarg.residual
                if self.limit is not None and residual is None:
                    examined = min(self.limit, examined)
                sweep = len(index.pending) * (
                    ops_of(self.order_by) if index.derived else 0
                )
                cost = float(sweep + examined * (1 + pred_ops(residual)))
                if extent is not None:
                    cost += len(extent.pending) * member_ops
                if cost < best.cost:
                    best = QueryPlan(
                        self, db, "index_order", index=index, sarg=bound,
                        cost=cost, scan_cost=scan_cost,
                    )

        return best

    def _estimate_matching(self, index: AttrIndex, sarg: Sarg) -> int | None:
        """Pre-refresh cardinality estimate of one sarg probe, or None."""
        pending = len(index.pending)
        if sarg.op == "==":
            try:
                return len(index.buckets.get(sarg.value, ())) + pending
            except TypeError:
                return None
        group = index.single_group()
        if group is None or group != group_of(sarg.value):
            # Mixed or mismatched key types: the probe could not reproduce
            # naive comparison semantics (which may raise TypeError).
            return None
        return index.count_range(sarg.op, sarg.value) + pending

    # ------------------------------------------------------------------
    # shared ordering / limiting tail (both paths funnel through here)
    # ------------------------------------------------------------------

    def _order_and_limit(self, db: "Database", candidates: list[int]) -> list[int]:
        """Sort by the order key, read for every candidate in one pass."""
        if self.order_by is not None and candidates:
            rows = db.read_inputs(candidates, (Local(self.order_by),))
            keys = {iid: row[0] for iid, row in zip(candidates, rows)}
            self._sort(candidates, keys)
        return self._limit(candidates)

    def _limit(self, candidates: list[int]) -> list[int]:
        if self.limit is not None:
            candidates = candidates[: self.limit]
        return candidates

    def _sort(self, candidates: list[int], keys: dict[int, Any]) -> None:
        attr = self.order_by
        self._check_orderable(candidates, keys, attr)
        try:
            candidates.sort(key=keys.__getitem__, reverse=self.descending)
        except TypeError as exc:
            # Same type group but still incomparable (exotic values).
            raise QueryError(
                f"cannot order by attribute {attr!r}: values are not "
                f"mutually comparable ({exc})",
                attr=attr,
            ) from None

    def _check_orderable(
        self, candidates: list[int], keys: dict[int, Any], attr: str
    ) -> None:
        first_iid = candidates[0]
        first = keys[first_iid]
        anchor = first_iid
        group = group_of(first)
        for iid in candidates:
            value = keys[iid]
            if value is None:
                raise QueryError(
                    f"cannot order by attribute {attr!r}: instance {iid} "
                    f"has no value (None)",
                    iid=iid,
                    attr=attr,
                )
            if group == "none":
                # The anchor itself was None; re-anchor on this value so
                # the error above names the None-valued instance instead.
                anchor, first, group = iid, value, group_of(value)
                continue
            value_group = group_of(value)
            if value_group != group:
                raise QueryError(
                    f"cannot order by attribute {attr!r}: instance {iid} has "
                    f"a {type(value).__name__} value {value!r}, incomparable "
                    f"with instance {anchor}'s {type(first).__name__} value "
                    f"{first!r}",
                    iid=iid,
                    attr=attr,
                )


@dataclass
class QueryPlan:
    """One priced access path, ready to execute (and inspect in tests)."""

    query: Query
    db: "Database"
    access_path: str  # "scan" | "extent" | "index_eq" | "index_range" | "index_order"
    index: AttrIndex | None = None
    sarg: Sarg | None = None
    cost: float = 0.0
    scan_cost: float = 0.0
    #: set by execute() when an indexed path had to degrade to the scan.
    degraded: bool = field(default=False, init=False)

    def execute(self) -> list[int]:
        query, db = self.query, self.db
        mgr: "IndexManager | None" = getattr(db, "indexes", None)
        result: Any = _FALLBACK
        if self.access_path != "scan" and mgr is not None:
            result = self._execute_indexed(mgr)
        if result is _FALLBACK:
            self.degraded = self.access_path != "scan"
            if mgr is not None:
                mgr.stats.queries += 1
                mgr.stats.scan_queries += 1
            self._emit(db, "scan")
            return query._scan(db)
        mgr.stats.queries += 1
        if self.access_path == "extent":
            mgr.stats.extent_queries += 1
        else:
            mgr.stats.indexed_queries += 1
        self._emit(db, self.access_path)
        return result

    def _emit(self, db: "Database", path: str) -> None:
        hub = db.obs.hub
        if hub.active:
            from repro.obs.events import QueryPlanned

            hub.emit(
                QueryPlanned(
                    class_name=self.query.class_name,
                    access_path=path,
                    index_attr=self.index.attr if self.index is not None else None,
                    cost=self.cost,
                    scan_cost=self.scan_cost,
                    degraded=self.degraded,
                )
            )

    # -- indexed execution --------------------------------------------------

    def _member_filter(self, mgr: "IndexManager"):
        """(refresh, allowed) for restricting index hits to the query class."""
        db = self.db
        query = self.query
        raw = db.schema.classes[query.class_name]
        if raw.predicate is not None:
            extent = mgr.extents.get(query.class_name)
            if extent is None:  # pragma: no cover - extents cover all subtypes
                return None
            mgr.refresh_extent(extent)
            members = extent.members
            return members.__contains__
        cone = mgr.concrete_cone(query.class_name)
        catalog = db._catalog
        return lambda iid: (
            (inst := catalog.get(iid)) is not None and inst.class_name in cone
        )

    def _execute_indexed(self, mgr: "IndexManager"):
        query, db = self.query, self.db
        if self.access_path == "extent":
            extent = mgr.extents.get(query.class_name)
            if extent is None:  # pragma: no cover - planner checked
                return _FALLBACK
            mgr.refresh_extent(extent)
            candidates = sorted(extent.members)
            if query.predicate is not None:
                candidates = query._select(db, query.predicate, candidates)
            return query._order_and_limit(db, candidates)

        index = self.index
        assert index is not None
        mgr.refresh_attr_index(index)
        if not index.usable:
            return _FALLBACK
        allowed = self._member_filter(mgr)
        if allowed is None:  # pragma: no cover - defensive
            return _FALLBACK

        if self.access_path in ("index_eq", "index_range"):
            sarg = self.sarg
            assert sarg is not None
            if sarg.op == "==":
                iids = index.equal(sarg.value)
            else:
                group = index.single_group()
                if group is None or group != group_of(sarg.value):
                    return _FALLBACK  # keys churned during refresh
                iids = index.range(sarg.op, sarg.value)
            candidates = [iid for iid in iids if allowed(iid)]
            if sarg.residual is not None:
                candidates = query._select(db, sarg.residual, candidates)
            return query._order_and_limit(db, candidates)

        # index_order: walk keys in order; buckets keep ascending iids, so
        # equal keys reproduce the stable sort's tie order exactly.  A sarg
        # on the order key starts and ends the walk at its bound (the keys
        # are exact after the refresh), so only its residual is filtered.
        # The filter reads one candidate at a time, so a limit
        # short-circuits the walk before later candidates' inputs are
        # evaluated.
        group = index.single_group()
        if group not in ("num", "str"):
            return _FALLBACK
        sarg = self.sarg
        if sarg is None:
            keys = index.ordered_keys(query.descending)
            predicate = query.predicate
        else:
            if sarg.op != "==" and group != group_of(sarg.value):
                return _FALLBACK  # keys churned during refresh
            keys = index.ordered_keys(query.descending, sarg.op, sarg.value)
            predicate = sarg.residual
        limit = query.limit
        result: list[int] = []
        if limit == 0:
            return result
        for key in keys:
            for iid in index.buckets[key]:
                if not allowed(iid):
                    continue
                if predicate is not None and not predicate.select(db, [iid]):
                    continue
                result.append(iid)
                if limit is not None and len(result) == limit:
                    mgr.stats.short_circuits += 1
                    return result
        return result


def compile_query(
    schema,
    text: str,
    functions: Mapping[str, Callable[..., Any]] | None = None,
    constants: Mapping[str, Any] | None = None,
) -> Query:
    """Compile ``select <class> [where ...] [order by ...] [limit N]``."""
    parser = Parser(text)
    if not (parser.current.kind == "ident" and parser.current.text == "select"):
        raise DslSyntaxError(
            "queries start with 'select'",
            parser.current.line,
            parser.current.column,
        )
    parser.advance()
    class_token = parser.expect_name()
    class_name = class_token.text
    if class_name not in schema.classes:
        raise DslCompileError(
            f"unknown object class {class_name!r}",
            line=class_token.line,
            column=class_token.column,
        )

    predicate: Predicate | None = None
    where_expr: ast.Expr | None = None
    compiler: SchemaCompiler | None = None
    scope: Scope | None = None
    order_by: str | None = None
    descending = False
    limit: int | None = None

    if parser.current.is_kw("where"):
        where_token = parser.current
        parser.advance()
        where_expr = parser.parse_expr()
        compiler = SchemaCompiler(schema, functions=functions, constants=constants)
        scope = compiler.class_scope(class_name)
        inputs, body = compiler._compile_body(
            scope,
            where_expr,
            where_expr.line or where_token.line,
            where_expr.column or where_token.column,
            predicate=True,
        )
        predicate = Predicate(
            inputs, body, description=f"where-clause on {class_name}"
        )

    while parser.current.kind != "eof":
        token = parser.current
        if token.kind == "ident" and token.text == "order":
            if order_by is not None:
                raise DslSyntaxError(
                    "duplicate 'order by' clause", token.line, token.column
                )
            parser.advance()
            if not (parser.current.kind == "ident" and parser.current.text == "by"):
                raise DslSyntaxError(
                    "expected 'by' after 'order'", token.line, token.column
                )
            parser.advance()
            attr_token = parser.expect_name()
            order_by = attr_token.text
            if order_by not in schema.resolved(class_name).attributes:
                raise DslCompileError(
                    f"class {class_name!r} has no attribute {order_by!r}",
                    line=attr_token.line,
                    column=attr_token.column,
                )
            if parser.current.kind == "ident" and parser.current.text in (
                "asc",
                "desc",
            ):
                descending = parser.advance().text == "desc"
        elif token.kind == "ident" and token.text == "limit":
            if limit is not None:
                raise DslSyntaxError(
                    "duplicate 'limit' clause", token.line, token.column
                )
            parser.advance()
            if parser.current.kind != "int":
                raise DslSyntaxError(
                    "expected an integer after 'limit'",
                    parser.current.line,
                    parser.current.column,
                )
            limit = parser.advance().value
        else:
            raise DslSyntaxError(
                f"unexpected token {token.text!r} in query",
                token.line,
                token.column,
            )

    sargs: tuple[Sarg, ...] = ()
    if where_expr is not None and compiler is not None and scope is not None:
        sargs = _extract_sargs(schema, class_name, where_expr, compiler, scope)

    return Query(
        class_name=class_name,
        predicate=predicate,
        order_by=order_by,
        descending=descending,
        limit=limit,
        sargs=sargs,
    )


def _conjuncts(expr: ast.Expr) -> list[ast.Expr]:
    """Flatten top-level ``and`` into its conjuncts."""
    if isinstance(expr, ast.Binary) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _extract_sargs(
    schema,
    class_name: str,
    where_expr: ast.Expr,
    compiler: SchemaCompiler,
    scope: Scope,
) -> tuple[Sarg, ...]:
    """Sargable conjuncts of a ``where`` clause, with compiled residuals."""
    attrs = schema.resolved(class_name).attributes
    conjuncts = _conjuncts(where_expr)
    sargs: list[Sarg] = []
    for position, conjunct in enumerate(conjuncts):
        probe = _sarg_shape(conjunct, attrs, compiler)
        if probe is None:
            continue
        attr, op, value = probe
        rest = conjuncts[:position] + conjuncts[position + 1 :]
        residual: Predicate | None = None
        if rest:
            folded = rest[0]
            for extra in rest[1:]:
                folded = ast.Binary(
                    "and", folded, extra, line=extra.line, column=extra.column
                )
            inputs, body = compiler._compile_body(
                scope, folded, folded.line, folded.column, predicate=True
            )
            residual = Predicate(
                inputs,
                body,
                description=f"residual where-clause on {class_name}",
            )
        sargs.append(Sarg(attr=attr, op=op, value=value, residual=residual))
    return tuple(sargs)


def _sarg_shape(
    conjunct: ast.Expr, attrs, compiler: SchemaCompiler
) -> tuple[str, str, Any] | None:
    """Match ``attr <op> literal`` (either side), else None."""
    if not (isinstance(conjunct, ast.Binary) and conjunct.op in _SARG_OPS):
        return None
    left, right = conjunct.left, conjunct.right
    if (
        isinstance(left, ast.Name)
        and isinstance(right, ast.Literal)
        and left.ident in attrs
        and left.ident not in compiler.constants
    ):
        return (left.ident, conjunct.op, right.value)
    if (
        isinstance(right, ast.Name)
        and isinstance(left, ast.Literal)
        and right.ident in attrs
        and right.ident not in compiler.constants
    ):
        return (right.ident, _FLIP[conjunct.op], left.value)
    return None


def run_query(db: "Database", text: str, **compile_kwargs) -> list[int]:
    """One-shot convenience: compile against the db's schema and run."""
    return compile_query(db.schema, text, **compile_kwargs).run(db)
