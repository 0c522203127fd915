"""Constraint folding: proven-constant predicates become no-op rules.

``Schema.freeze`` folds every constraint and subtype predicate the
interval analysis proved always-true: the synthetic rule keeps its slot
but loses its inputs and body, so it is evaluated exactly once at
instance creation and never re-marked.  The reference is a schema frozen
without analysis facts (:func:`tests.references.unfolded`), which keeps
the original predicate live; both arms must agree on every observable
outcome -- pinned by the A/B tests here and the hypothesis scripts in
``tests/analysis/test_properties.py``.
"""

from __future__ import annotations

import pytest
from tests.references import unfolded

from repro.compile import fold_frozen_schema
from repro.core.database import Database
from repro.dsl import compile_schema
from repro.errors import ConstraintViolation, TransactionAborted

SRC = """
object class task is
  attributes
    effort : integer;
    budget : integer;
    level  : integer;
  rules
    level = begin
        if effort > budget then
            return 2;
        end if;
        return 1;
    end;
  constraints
    level_ok : level >= 1 and level <= 2;
    cap      : effort <= 100;
end object;
"""


def _schema(no_fold: bool = False):
    with unfolded(no_fold):
        return compile_schema(SRC)


def test_freeze_folds_the_provable_constraint():
    schema = _schema()
    stats = schema.compile_stats
    assert stats["constraints_folded"] == 1
    rule = schema.resolved("task").rule_for["__constraint__level_ok"]
    assert rule.inputs == {}
    assert rule.body() is True


def test_contingent_constraint_stays_live():
    schema = _schema()
    rule = schema.resolved("task").rule_for["__constraint__cap"]
    assert rule.inputs


def test_unfolded_reference_keeps_predicates_live():
    schema = _schema(no_fold=True)
    assert schema.compile_stats["constraints_folded"] == 0
    rule = schema.resolved("task").rule_for["__constraint__level_ok"]
    assert rule.inputs


def test_refolding_is_idempotent():
    schema = _schema()
    stats = fold_frozen_schema(schema)
    assert stats["constraints_folded"] == 0
    assert stats["predicates_folded"] == 0


def test_raw_constraint_predicate_is_untouched():
    """Folding rewrites the synthetic rule only: the declared constraint
    keeps its predicate for recovery paths and the next freeze."""
    schema = _schema()
    constraint = next(
        c for c in schema.classes["task"].constraints if c.name == "level_ok"
    )
    assert constraint.predicate is not None


def _run(no_fold: bool, script):
    db = Database(_schema(no_fold=no_fold))
    task = db.create("task", budget=10)
    log = []
    for value in script:
        try:
            db.set_attr(task, "effort", value)
            log.append(("ok", db.get_attr(task, "level")))
        except (ConstraintViolation, TransactionAborted) as exc:
            log.append((type(exc).__name__, str(exc)))
    return log, db.engine.counters


@pytest.mark.parametrize(
    "script",
    [[5, 20, 101, 7], [0, 100], [101], [50, 150, 50]],
)
def test_folded_database_is_observably_identical(script):
    folded_log, folded = _run(False, script)
    live_log, live = _run(True, script)
    assert folded_log == live_log
    # The folded constraint contributes no wave work: strictly fewer
    # evaluations whenever the script updates an input, never more.
    assert folded.rule_evaluations <= live.rule_evaluations
    if any(v <= 100 for v in script):
        assert folded.rule_evaluations < live.rule_evaluations
