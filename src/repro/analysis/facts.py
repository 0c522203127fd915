"""AnalysisFacts: what the static layer hands to the runtime layers.

``Schema.freeze`` computes one :class:`AnalysisFacts` per freeze and
attaches it as ``schema.analysis_facts`` (``None`` only when the analyzer
itself failed -- the facts are advisory and never block a freeze).  Three
consumers read it:

* :func:`repro.compile.fold_frozen_schema` folds every constraint and
  subtype predicate in :attr:`AnalysisFacts.always_true` down to a
  zero-input constant rule -- the slot is evaluated once at creation and
  never re-marked;
* :func:`repro.compile.slotplan.build_slot_plan` orders each shape's plan
  arrays by descending :class:`CostModel` op counts so expensive rules are
  marked/collected first within a wave;
* :func:`repro.storage.clustering.greedy_cluster` accepts
  :meth:`Database.static_cluster_weights` -- derived from
  :attr:`CostModel.port_weight` -- as cold-start frontier weights for
  edges no :class:`~repro.storage.usage.UsageStats` counter has seen yet.

Verdicts are computed *per concrete class* over its effective rule view
(a subclass overriding a rule can change the reachable ranges), which is
exactly the granularity ``Schema._resolved`` folds at.

The ``--facts`` flag of ``python -m repro.analysis`` dumps
:meth:`AnalysisFacts.to_json` for each compilation unit; the JSON shape
is documented in ``docs/DIAGNOSTICS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.dataflow import (
    FALSE,
    TRUE,
    Interval,
    ValueAnalysis,
    _BodyEvaluator,
    _for_each_loops,
    truthiness,
)
from repro.analysis.model import RuleInfo, SchemaModel, model_from_schema
from repro.core.rules import NATIVE_OPS
from repro.dsl import ast

#: assumed For-Each fan-out per nesting level for op counting.
FANOUT_BOUND = 4


@dataclass(frozen=True)
class CostModel:
    """Static cost estimates per rule and per port.

    ``rule_ops`` charges each effective rule its AST node count, with
    For-Each bodies multiplied by :data:`FANOUT_BOUND` per nesting level;
    ``fanout`` is the deepest loop nesting of the rule body; and
    ``port_weight`` sums, per ``(class, port)``, the op counts of every
    rule that reads a value received on the port plus every transmit rule
    that sends on it -- a static stand-in for the crossing counters the
    clustering layer normally learns at runtime.
    """

    rule_ops: Mapping[tuple[str, str], int] = field(default_factory=dict)
    fanout: Mapping[tuple[str, str], int] = field(default_factory=dict)
    port_weight: Mapping[tuple[str, str], float] = field(default_factory=dict)
    #: slot -> max ops over every class, for lookups from contexts (like
    #: slot plans of predicate-subtype shapes) keyed by a different class.
    by_slot: Mapping[str, int] = field(default_factory=dict)

    def ops_of(self, cls_name: str, slot: str) -> int:
        ops = self.rule_ops.get((cls_name, slot))
        if ops is not None:
            return ops
        return self.by_slot.get(slot, NATIVE_OPS)


@dataclass(frozen=True)
class AnalysisFacts:
    """One freeze's static analysis results, consumed by the runtime."""

    schema_version: int = 0
    #: (class, synthetic slot) -> constraint/predicate proven always-true.
    always_true: frozenset[tuple[str, str]] = frozenset()
    #: (class, synthetic slot) -> proven unsatisfiable.
    always_false: frozenset[tuple[str, str]] = frozenset()
    #: (class, port, value) reads no transmit rule anywhere can feed.
    unproduced: tuple[tuple[str, str, str], ...] = ()
    #: (class, slot) -> finite interval bounds proven for the slot.
    ranges: Mapping[tuple[str, str], tuple[float, float]] = field(
        default_factory=dict
    )
    cost: CostModel = field(default_factory=CostModel)
    #: fixpoint rounds the interval iteration needed.
    rounds: int = 0

    def to_json(self) -> dict[str, Any]:
        def key(pair: tuple[str, str]) -> str:
            return f"{pair[0]}.{pair[1]}"

        return {
            "schema_version": self.schema_version,
            "always_true": sorted(key(p) for p in self.always_true),
            "always_false": sorted(key(p) for p in self.always_false),
            "unproduced": [
                f"{cls}.{port}.{value}"
                for cls, port, value in sorted(self.unproduced)
            ],
            "ranges": {
                key(p): list(bounds)
                for p, bounds in sorted(self.ranges.items())
            },
            "cost": {
                "rule_ops": {
                    key(p): ops
                    for p, ops in sorted(self.cost.rule_ops.items())
                },
                "fanout": {
                    key(p): depth
                    for p, depth in sorted(self.cost.fanout.items())
                    if depth
                },
                "port_weight": {
                    key(p): weight
                    for p, weight in sorted(self.cost.port_weight.items())
                },
            },
            "rounds": self.rounds,
        }


# ---------------------------------------------------------------------------
# computation
# ---------------------------------------------------------------------------


def _body_ops(body, depth: int = 0) -> tuple[int, int]:
    """(op count, max loop depth) of one rule body AST.

    Every node below the block costs one op; a For-Each multiplies its
    subtree by :data:`FANOUT_BOUND`.
    """
    if body is None:
        return NATIVE_OPS, 0
    loop = isinstance(body, ast.ForEach)
    if loop:
        depth += 1
    ops = 0 if isinstance(body, ast.Block) else 1
    deepest = depth
    for child in ast.children(body):
        child_ops, child_depth = _body_ops(child, depth)
        ops += child_ops
        deepest = max(deepest, child_depth)
    return (ops * FANOUT_BOUND if loop else ops), deepest


def _verdict(
    analysis: ValueAnalysis, cls_name: str, slot: str, rule: RuleInfo
) -> Interval | None:
    """TRUE / FALSE / None(contingent) for one synthetic slot."""
    value = analysis.values.get((cls_name, slot))
    if value is None:
        result = _BodyEvaluator(
            analysis.model, rule, analysis.reader_for(cls_name)
        ).run()
        value = truthiness(result)
    if value == TRUE:
        return TRUE
    if value == FALSE:
        return FALSE
    return None


def _propositionally(
    model: SchemaModel, cls_name: str, rule: RuleInfo
) -> str:
    if rule.body is None or isinstance(rule.body, ast.Block):
        return "contingent"
    from repro.analysis.predicates import _abstract, _boolean_names, _evaluate

    return _evaluate(_abstract(rule.body, _boolean_names(model, cls_name)))


def facts_from_model(
    model: SchemaModel, schema_version: int = 0
) -> AnalysisFacts:
    """Compute facts over an already-built analyzer model."""
    analysis = ValueAnalysis(model)
    always_true: set[tuple[str, str]] = set()
    always_false: set[tuple[str, str]] = set()
    unproduced: list[tuple[str, str, str]] = []
    ranges: dict[tuple[str, str], tuple[float, float]] = {}
    rule_ops: dict[tuple[str, str], int] = {}
    fanout: dict[tuple[str, str], int] = {}
    port_weight: dict[tuple[str, str], float] = {}

    for cls_name, view in analysis.rule_views.items():
        ports = model.all_ports(cls_name)
        for slot, rule in view.items():
            ops, depth = _body_ops(rule.body)
            rule_ops[(cls_name, slot)] = ops
            if depth:
                fanout[(cls_name, slot)] = depth
            # Port weights: charge the whole rule to every port it reads
            # a value from, and transmit rules to their sending port.
            for dep in rule.deps:
                if dep[0] == "received" and dep[1] in ports:
                    key = (cls_name, dep[1])
                    port_weight[key] = port_weight.get(key, 0.0) + float(ops)
            if ">" in slot:
                port_name = slot.split(">", 1)[0]
                if port_name in ports:
                    key = (cls_name, port_name)
                    port_weight[key] = port_weight.get(key, 0.0) + float(ops)
            # Verdicts: per concrete class, both proof engines.
            if rule.kind in ("constraint", "predicate") and rule.ok:
                verdict = _verdict(analysis, cls_name, slot, rule)
                propositional = _propositionally(model, cls_name, rule)
                if verdict == TRUE or propositional == "valid":
                    always_true.add((cls_name, slot))
                elif verdict == FALSE or propositional == "unsat":
                    always_false.add((cls_name, slot))
            value = analysis.values.get((cls_name, slot))
            if (
                value is not None
                and value.lo != float("-inf")
                and value.hi != float("inf")
            ):
                ranges[(cls_name, slot)] = (value.lo, value.hi)

    for cls_name, cls in model.classes.items():
        ports = model.all_ports(cls_name)
        seen: set[tuple[str, str, str]] = set()
        for rule in cls.rules:
            if not rule.ok:
                continue
            for dep in rule.deps:
                if dep[0] != "received":
                    continue
                __, port_name, value = dep
                port = ports.get(port_name)
                if port is None:
                    continue
                if analysis.has_producer(port.rel_type, value):
                    continue
                entry = (cls_name, port_name, value)
                if entry not in seen:
                    seen.add(entry)
                    unproduced.append(entry)
            for loop in _for_each_loops(rule.body):
                port = ports.get(loop.port)
                if port is None:
                    continue
                key = (cls_name, loop.port)
                port_weight.setdefault(key, 0.0)

    by_slot: dict[str, int] = {}
    for (__, slot), ops in rule_ops.items():
        by_slot[slot] = max(by_slot.get(slot, 0), ops)

    return AnalysisFacts(
        schema_version=schema_version,
        always_true=frozenset(always_true),
        always_false=frozenset(always_false),
        unproduced=tuple(sorted(unproduced)),
        ranges=ranges,
        cost=CostModel(
            rule_ops=rule_ops,
            fanout=fanout,
            port_weight=port_weight,
            by_slot=by_slot,
        ),
        rounds=analysis.rounds,
    )


def compute_facts(schema) -> AnalysisFacts:
    """Facts for a compiled schema (the ``Schema.freeze`` entry point)."""
    model = model_from_schema(schema)
    return facts_from_model(model, schema_version=schema.version)
