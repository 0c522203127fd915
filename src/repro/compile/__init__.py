"""The freeze-time compilation pass: compile once, serve many.

``Schema.freeze`` calls :func:`compile_frozen_schema` after validation.
The pass walks every resolved rule plus the raw constraint and
subtype-membership predicates and swaps each DSL-interpreted body
(:class:`~repro.dsl.compiler._RuleInterpreter`, possibly behind the
``_booleanize`` predicate wrapper) for a
:class:`~repro.compile.codegen.CompiledBody` -- a specialized closure
produced by :mod:`repro.compile.codegen`.  Hand-written Python bodies are
left untouched (counted as ``native_bodies``); bodies the generator
declines stay on the interpreter (counted as ``fallbacks``).

The second compilation product -- the flattened per-class slot plan the
evaluation engine's inner loops iterate -- lives in
:mod:`repro.compile.slotplan` and is built lazily per instance shape by
the :class:`~repro.compile.slotplan.SlotPlanCache` a
:class:`~repro.core.database.Database` owns.

The interpreter is not gone: it is the fallback for declined bodies and
stays reachable as ``CompiledBody.__wrapped__``, which is what the tests
compare every compiled closure against.  The pass reports itself in the
``compile.*`` section of ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import time
from typing import Any

from repro.compile.codegen import CompiledBody, code_cache_size, compile_interpreter
from repro.dsl.resolve import body_of

__all__ = [
    "CompiledBody",
    "code_cache_size",
    "compile_frozen_schema",
    "fold_frozen_schema",
]


def _compile_attr(holder: Any, attr: str, inputs: Any, stats: dict) -> None:
    body = getattr(holder, attr)
    if isinstance(body, CompiledBody):
        return  # already compiled (idempotent across re-freezes)
    interp = body_of(body)
    if interp is None:
        stats["native_bodies"] += 1
        return
    # Behind the _booleanize predicate wrapper: compile in bool mode so the
    # closure coerces its result exactly as the wrapper did.
    compiled = compile_interpreter(interp, inputs, interp is not body, stats)
    if compiled is None:
        return  # declined; fallback already counted
    object.__setattr__(holder, attr, compiled)
    stats["rules_compiled"] += 1


def _folded_true() -> bool:
    """The body installed for a constraint/predicate proven always-true.

    Zero inputs, so the slot gets no dependency edges: it is evaluated
    once when the instance is created and never re-marked by any wave.
    """
    return True


def fold_frozen_schema(schema: Any) -> dict[str, Any]:
    """Fold constraints/predicates proven always-true into constant rules.

    Runs between ``Schema.freeze`` validation and
    :func:`compile_frozen_schema`, keyed off
    ``schema.analysis_facts.always_true`` -- verdicts the abstract
    interpreter (:mod:`repro.analysis.dataflow`) proved per concrete
    class.  Only the *synthetic* per-class rules in ``Schema._resolved``
    are mutated; they are freshly built by every ``_resolve_class`` call
    (``Constraint.as_rule`` / ``SubtypePredicate.as_rule``), so the raw
    ``Constraint.predicate`` used by the recovery re-check path -- and by
    the next freeze's verdict computation -- is untouched, and unfreezing
    plus extending the schema re-derives everything from scratch.
    Without facts (the analyzer failed) nothing is folded.
    """
    facts = getattr(schema, "analysis_facts", None)
    stats: dict[str, Any] = {"constraints_folded": 0, "predicates_folded": 0}
    if facts is None:
        return stats
    from repro.core.rules import is_constraint_attr, is_subtype_attr

    for resolved in schema._resolved.values():
        for slot, rule in resolved.rule_for.items():
            constraint = is_constraint_attr(slot)
            subtype = is_subtype_attr(slot)
            if not (constraint or subtype):
                continue
            if (resolved.name, slot) not in facts.always_true:
                continue
            if not rule.inputs and rule.body is _folded_true:
                continue  # already folded (shared rule_for entries)
            object.__setattr__(rule, "inputs", {})
            object.__setattr__(rule, "_received_inputs", [])
            object.__setattr__(rule, "_local_inputs", [])
            object.__setattr__(rule, "body", _folded_true)
            if constraint:
                stats["constraints_folded"] += 1
            else:
                stats["predicates_folded"] += 1
    return stats


def compile_frozen_schema(schema: Any) -> dict[str, Any]:
    """Compile every rule body reachable from a just-frozen schema.

    Returns the compile stats (also stored by the caller as
    ``schema.compile_stats``).  Event counters (``rules_compiled``,
    ``cache_hits``, ``code_objects``, ``compile_seconds``) accumulate
    across re-freezes -- dynamic schema extension triggers another pass
    over the (mostly already-compiled) rule set.  ``native_bodies`` and
    ``fallbacks`` are gauges recomputed per pass: still-interpreted bodies
    are re-walked every freeze, so accumulating them would double-count.
    """
    prev = getattr(schema, "compile_stats", None) or {}
    stats: dict[str, Any] = {
        "rules_compiled": prev.get("rules_compiled", 0),
        "cache_hits": prev.get("cache_hits", 0),
        "code_objects": prev.get("code_objects", 0),
        "fallbacks": 0,
        "native_bodies": 0,
        "compile_seconds": prev.get("compile_seconds", 0.0),
    }
    started = time.perf_counter()
    seen: set[int] = set()
    for resolved in schema._resolved.values():
        for rule in resolved.rules:
            if id(rule) in seen:
                continue  # inherited Rule objects are shared across classes
            seen.add(id(rule))
            _compile_attr(rule, "body", rule.inputs, stats)
    # The raw constraint / membership predicates feed the *next* freeze's
    # synthetic rules (Constraint.as_rule wraps self.predicate) and the
    # recovery re-check path, so compile them at the source too.
    for cls in schema.classes.values():
        for constraint in cls.constraints:
            _compile_attr(constraint, "predicate", constraint.inputs, stats)
        if cls.predicate is not None:
            _compile_attr(
                cls.predicate, "predicate", cls.predicate.inputs, stats
            )
    stats["compile_seconds"] += time.perf_counter() - started
    return stats
