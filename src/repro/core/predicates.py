"""Predicate combinators for queries and subtype definitions.

Cactis defines subtypes "based on the values of relationships and
attributes, via predicates" -- e.g. "all Persons who own more than three
cars".  This module offers a small combinator language for building such
predicates without writing rule plumbing by hand:

* comparison builders over attributes -- :func:`attr_gt`, :func:`attr_eq`,
  :func:`attr_between` ... -- and over received relationship values --
  :func:`count_connections`, :func:`received_sum`;
* boolean composition with ``&``, ``|``, ``~``;
* conversion to a :class:`~repro.core.rules.SubtypePredicate`
  (:meth:`Predicate.as_subtype`) or a
  :class:`~repro.core.rules.Constraint` (:meth:`Predicate.as_constraint`),
  with the input declarations merged automatically;
* direct use in queries: :meth:`Predicate.select` filters a candidate
  list through the database's query read path
  (:meth:`repro.core.database.Database.read_inputs`), and
  :meth:`Predicate.on_view` evaluates against one
  :class:`~repro.core.database.InstanceView` -- the naive per-view
  reference that :meth:`repro.dsl.query.Query.run_scan` keeps.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.core.rules import Constraint, Input, Local, Received, SubtypePredicate
from repro.errors import SchemaError


class Predicate:
    """A boolean function of declared inputs, composable with ``& | ~``."""

    def __init__(
        self,
        inputs: Mapping[str, Input],
        fn: Callable[..., bool],
        description: str = "",
    ) -> None:
        self.inputs = dict(inputs)
        self.fn = fn
        self.description = description or "predicate"

    # -- composition ------------------------------------------------------------

    def _merged_inputs(self, other: "Predicate") -> dict[str, Input]:
        merged = dict(self.inputs)
        for key, decl in other.inputs.items():
            if key in merged and merged[key] != decl:
                raise SchemaError(
                    f"conflicting input declarations for parameter {key!r}"
                )
            merged[key] = decl
        return merged

    def __and__(self, other: "Predicate") -> "Predicate":
        merged = self._merged_inputs(other)
        left, right = self, other

        def fn(**kwargs: Any) -> bool:
            return left._call(kwargs) and right._call(kwargs)

        return Predicate(merged, fn, f"({left.description} and {right.description})")

    def __or__(self, other: "Predicate") -> "Predicate":
        merged = self._merged_inputs(other)
        left, right = self, other

        def fn(**kwargs: Any) -> bool:
            return left._call(kwargs) or right._call(kwargs)

        return Predicate(merged, fn, f"({left.description} or {right.description})")

    def __invert__(self) -> "Predicate":
        inner = self

        def fn(**kwargs: Any) -> bool:
            return not inner._call(kwargs)

        return Predicate(dict(inner.inputs), fn, f"(not {inner.description})")

    def _call(self, kwargs: Mapping[str, Any]) -> bool:
        own = {key: kwargs[key] for key in self.inputs}
        return bool(self.fn(**own))

    # -- conversions ------------------------------------------------------------

    def as_subtype(self, subtype_name: str) -> SubtypePredicate:
        """Package as a predicate-subtype membership test."""
        return SubtypePredicate(
            subtype_name=subtype_name, inputs=self.inputs, predicate=self._as_fn()
        )

    def as_constraint(self, name: str, recovery=None) -> Constraint:
        """Package as a class constraint (true = holds)."""
        return Constraint(
            name=name, inputs=self.inputs, predicate=self._as_fn(), recovery=recovery
        )

    def _as_fn(self) -> Callable[..., bool]:
        fn = self.fn

        def predicate(**kwargs: Any) -> bool:
            return bool(fn(**kwargs))

        predicate.__name__ = self.description.replace(" ", "_")[:40] or "predicate"
        return predicate

    def select(
        self, db, candidates: list[int], limit: int | None = None
    ) -> list[int]:
        """The candidates satisfying the predicate, in order (queries).

        Inputs come from :meth:`~repro.core.database.Database.read_inputs`
        -- clean slots read directly, out-of-date ones demanded -- and a
        compiled body runs through its positional closure.  The truth test
        is ``bool()``'s, as in :meth:`_call`.  With a ``limit``, reading
        stops once that many candidates match: the inputs of the rest are
        never read, so their stale slots stay stale.
        """
        # Imported lazily: repro.compile reaches repro.dsl, which imports us.
        from repro.compile.codegen import CompiledBody

        if limit is not None and limit <= 0:
            return []
        rows = db.read_inputs(candidates, tuple(self.inputs.values()))
        fn = self.fn
        if isinstance(fn, CompiledBody) and fn.kwnames == tuple(self.inputs):
            body = fn.fn
        else:
            keys = tuple(self.inputs)

            def body(*row: Any) -> Any:
                return fn(**dict(zip(keys, row)))

        if limit is None:
            return [iid for iid, row in zip(candidates, rows) if body(*row)]
        selected: list[int] = []
        for iid, row in zip(candidates, rows):
            if body(*row):
                selected.append(iid)
                if len(selected) == limit:
                    break
        return selected

    def on_view(self, view) -> bool:
        """Evaluate directly against an :class:`InstanceView` (queries).

        Local inputs read attributes; Received inputs resolve the current
        connections' transmitted values through the database.
        """
        kwargs: dict[str, Any] = {}
        db = view._db
        for key, decl in self.inputs.items():
            if isinstance(decl, Local):
                kwargs[key] = view.get(decl.attr)
            elif isinstance(decl, Received):
                instance = db.instance(view.iid)
                port_def = db._port_def(view.iid, decl.port)
                values = [
                    db.get_transmitted(conn.peer, conn.peer_port, decl.value)
                    for conn in instance.connections_on(decl.port)
                ]
                if port_def.multi:
                    kwargs[key] = values
                else:
                    kwargs[key] = (
                        values[0]
                        if values
                        else db._flow_default(view.iid, decl.port, decl.value)
                    )
            else:  # SelfRef
                kwargs[key] = view.iid
        return self._call(kwargs)

    def __repr__(self) -> str:
        return f"Predicate({self.description})"


# ---------------------------------------------------------------------------
# attribute comparisons
# ---------------------------------------------------------------------------


def _attr_cmp(attr: str, op: Callable[[Any, Any], bool], other: Any, sym: str) -> Predicate:
    key = f"p_{attr}"
    return Predicate(
        {key: Local(attr)},
        lambda **kw: op(kw[key], other),
        f"{attr} {sym} {other!r}",
    )


def attr_eq(attr: str, value: Any) -> Predicate:
    """``attr == value``."""
    return _attr_cmp(attr, lambda a, b: a == b, value, "==")


def attr_ne(attr: str, value: Any) -> Predicate:
    """``attr != value``."""
    return _attr_cmp(attr, lambda a, b: a != b, value, "!=")


def attr_gt(attr: str, value: Any) -> Predicate:
    """``attr > value``."""
    return _attr_cmp(attr, lambda a, b: a > b, value, ">")


def attr_ge(attr: str, value: Any) -> Predicate:
    """``attr >= value``."""
    return _attr_cmp(attr, lambda a, b: a >= b, value, ">=")


def attr_lt(attr: str, value: Any) -> Predicate:
    """``attr < value``."""
    return _attr_cmp(attr, lambda a, b: a < b, value, "<")


def attr_le(attr: str, value: Any) -> Predicate:
    """``attr <= value``."""
    return _attr_cmp(attr, lambda a, b: a <= b, value, "<=")


def attr_between(attr: str, low: Any, high: Any) -> Predicate:
    """``low <= attr <= high`` (inclusive on both ends)."""
    key = f"p_{attr}"
    return Predicate(
        {key: Local(attr)},
        lambda **kw: low <= kw[key] <= high,
        f"{low!r} <= {attr} <= {high!r}",
    )


def attr_in(attr: str, values) -> Predicate:
    """``attr`` is one of ``values``."""
    allowed = set(values)
    key = f"p_{attr}"
    return Predicate(
        {key: Local(attr)},
        lambda **kw: kw[key] in allowed,
        f"{attr} in {sorted(map(repr, allowed))}",
    )


def attr_satisfies(attr: str, fn: Callable[[Any], bool], description: str = "") -> Predicate:
    """``fn(attr)`` holds, for arbitrary single-attribute tests."""
    key = f"p_{attr}"
    return Predicate(
        {key: Local(attr)},
        lambda **kw: fn(kw[key]),
        description or f"{attr} satisfies {getattr(fn, '__name__', 'fn')}",
    )


# ---------------------------------------------------------------------------
# relationship-based predicates
# ---------------------------------------------------------------------------


def count_connections(port: str, counted_value: str, op: Callable[[int, int], bool], n: int, sym: str = "?") -> Predicate:
    """Compare the number of connections on a multi port against ``n``.

    ``counted_value`` names any value received on the port (the count is
    the length of the received list).  The paper's Car_Buff — "all Persons
    who own more than three cars" — is
    ``count_connections("cars", "unit", operator.gt, 3, ">")``.
    """
    key = f"p_{port}_{counted_value}"
    return Predicate(
        {key: Received(port, counted_value)},
        lambda **kw: op(len(kw[key]), n),
        f"#connections({port}) {sym} {n}",
    )


def more_connections_than(port: str, counted_value: str, n: int) -> Predicate:
    """Strictly more than ``n`` connections on ``port`` (the Car_Buff shape)."""
    return count_connections(port, counted_value, lambda a, b: a > b, n, ">")


def received_sum(port: str, value: str, op: Callable[[Any, Any], bool], threshold: Any, sym: str = "?") -> Predicate:
    """Compare the sum of a received multi-port value against a threshold."""
    key = f"p_{port}_{value}"
    return Predicate(
        {key: Received(port, value)},
        lambda **kw: op(sum(kw[key]), threshold),
        f"sum({port}.{value}) {sym} {threshold!r}",
    )
