"""Compile once, serve many: the products a DSL schema is compiled into.

* **Rule bodies.**  :mod:`repro.compile.codegen` turns every resolved DSL
  body -- rule, constraint, membership predicate, query ``where`` and
  residual -- into a :class:`~repro.compile.codegen.CompiledBody` the
  moment :mod:`repro.dsl.compiler` compiles it from source.  Hand-written
  Python bodies are left as they are (counted at freeze as
  ``native_bodies``).
* **Folded predicates.**  ``Schema.freeze`` calls
  :func:`fold_frozen_schema` after validation and analysis, turning
  constraints and predicates proven always-true into constant rules.
* **Slot plans.**  The flattened per-class plan the evaluation engine's
  inner loops iterate lives in :mod:`repro.compile.slotplan` and is built
  lazily per instance shape by the
  :class:`~repro.compile.slotplan.SlotPlanCache` a
  :class:`~repro.core.database.Database` owns.

All three report themselves in the ``compile.*`` section of
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any

from repro.compile.codegen import CompiledBody, code_cache_size

__all__ = [
    "CompiledBody",
    "code_cache_size",
    "fold_frozen_schema",
    "native_bodies",
]


def _folded_true() -> bool:
    """The body installed for a constraint/predicate proven always-true.

    Zero inputs, so the slot gets no dependency edges: it is evaluated
    once when the instance is created and never re-marked by any wave.
    """
    return True


def fold_frozen_schema(schema: Any) -> dict[str, Any]:
    """Fold constraints/predicates proven always-true into constant rules.

    Runs after ``Schema.freeze`` validation and analysis, keyed off
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


def native_bodies(schema: Any) -> int:
    """Resolved rules of a frozen schema whose body is hand-written Python.

    Neither DSL-compiled nor folded; inherited ``Rule`` objects are shared
    across classes and counted once.
    """
    bodies = {
        id(rule): rule.body
        for resolved in schema._resolved.values()
        for rule in resolved.rules
    }
    return sum(
        not isinstance(body, CompiledBody) and body is not _folded_true
        for body in bodies.values()
    )
