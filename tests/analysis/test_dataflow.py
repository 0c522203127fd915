"""CA6xx/CA7xx: the abstract-interpretation dataflow pass."""

from __future__ import annotations

import pytest

from repro.analysis import analyze_source
from repro.analysis.dataflow import (
    BOOL,
    FALSE,
    TOP,
    TRUE,
    Interval,
    ValueAnalysis,
    add,
    compare,
    const,
    div,
    logical_and,
    logical_or,
    mul,
    sub,
)
from repro.analysis.diagnostics import Severity
from repro.analysis.model import model_from_decl
from repro.dsl.parser import parse

from tests.analysis.conftest import by_code

# -- the Interval lattice ---------------------------------------------------


def test_join_and_meet():
    a = Interval(0.0, 5.0)
    b = Interval(3.0, 9.0)
    assert a.join(b) == Interval(0.0, 9.0)
    assert a.meet(b) == Interval(3.0, 5.0)
    assert a.meet(Interval(6.0, 7.0)) is None


def test_constants_and_booleans():
    assert const(True) == TRUE
    assert const(False) == FALSE
    assert const(3) == Interval(3.0, 3.0)
    assert const("opaque") == TOP
    assert TRUE.join(FALSE) == BOOL


def test_arithmetic_respects_infinities():
    assert add(TOP, const(1)) == TOP
    assert sub(const(5), Interval(1.0, 2.0)) == Interval(3.0, 4.0)
    assert mul(Interval(-2.0, 3.0), const(2)) == Interval(-4.0, 6.0)
    assert mul(TOP, const(0)) == Interval(0.0, 0.0)  # 0 * inf = 0
    assert div(const(7), const(2)) == const(3)  # runtime // on integers
    assert div(TOP, const(2)) == TOP


def test_comparisons_decide_only_separated_ranges():
    assert compare("<", Interval(0.0, 2.0), Interval(5.0, 9.0)) == TRUE
    assert compare("<", Interval(5.0, 9.0), Interval(0.0, 2.0)) == FALSE
    assert compare("<", Interval(0.0, 6.0), Interval(5.0, 9.0)) == BOOL
    assert compare("==", const(4), const(4)) == TRUE
    assert compare("!=", const(4), const(5)) == TRUE


# -- the whole-schema fixpoint ----------------------------------------------


def _analysis(source: str) -> ValueAnalysis:
    return ValueAnalysis(model_from_decl(parse(source)))


def test_fixpoint_propagates_constants_across_rules():
    analysis = _analysis(
        """
        object class c is
          attributes
            base    : integer;
            doubled : integer;
          rules
            base = 5;
            doubled = base * 2 + 1;
        end object;
        """
    )
    assert analysis.values[("c", "base")] == const(5)
    assert analysis.values[("c", "doubled")] == const(11)


def test_fixpoint_joins_producers_with_flow_default():
    analysis = _analysis(
        """
        relationship wire is
            signal : integer from plug;
        end relationship;
        object class producer is
          relationships out : wire multi plug;
          attributes level : integer;
          rules
            level = 7;
            out signal = level;
        end object;
        object class consumer is
          relationships feed : wire socket;
          attributes seen : integer;
          rules seen = feed.signal;
        end object;
        """
    )
    # A dangling port reads the flow default 0; a connected one reads 7.
    assert analysis.values[("consumer", "seen")] == Interval(0.0, 7.0)


def test_mutual_recursion_terminates_at_top():
    analysis = _analysis(
        """
        object class c is
          attributes
            a : integer;
            b : integer;
          rules
            a = b + 1;
            b = a + 1;
        end object;
        """
    )
    assert analysis.values[("c", "a")] == TOP
    assert analysis.values[("c", "b")] == TOP


# -- CA60x: initialization and body paths -----------------------------------


def test_unproduced_read_is_ca601(lint_fixture):
    diagnostics = lint_fixture("uninitialized.cactis")
    (diag,) = by_code(diagnostics, "CA601")
    assert diag.severity is Severity.WARNING
    assert "feed.quality" in diag.message
    assert "'wire'" in diag.message


def test_empty_port_loop_is_ca602(lint_fixture):
    diagnostics = lint_fixture("uninitialized.cactis")
    (diag,) = by_code(diagnostics, "CA602")
    assert diag.severity is Severity.WARNING
    assert "'lonely'" in diag.message
    assert "'orphan'" in diag.message


def test_missing_return_path_is_ca603_error(lint_fixture):
    diagnostics = lint_fixture("uninitialized.cactis")
    (diag,) = by_code(diagnostics, "CA603")
    assert diag.severity is Severity.ERROR
    assert "consumer.stale" in diag.message


def test_read_before_assign_is_ca604(lint_fixture):
    diagnostics = lint_fixture("uninitialized.cactis")
    (diag,) = by_code(diagnostics, "CA604")
    assert diag.severity is Severity.WARNING
    assert "'v'" in diag.message


def test_produced_reads_and_definite_returns_stay_quiet(lint_fixture):
    diagnostics = lint_fixture("uninitialized.cactis")
    flagged = [d.message for d in diagnostics if d.code.startswith("CA6")]
    assert not any("consumer.total" in m for m in flagged)


def test_constant_condition_prunes_the_missing_return():
    source = """
    object class c is
      attributes
        x : integer;
      rules
        x = begin
            if 1 < 2 then
                return 9;
            end if;
        end;
    end object;
    """
    assert not by_code(analyze_source(source), "CA603")


def test_for_each_assignment_counts_as_initialization():
    source = """
    relationship r is v : integer from plug; end relationship;
    object class p is
      relationships out : r multi plug;
      attributes k : integer;
      rules out v = k;
    end object;
    object class c is
      relationships feed : r multi socket;
      attributes total : integer;
      rules
        total = begin
            acc : integer;
            acc := 0;
            for each w related to feed do
                acc := acc + w.v;
            end for;
            return acc;
        end;
    end object;
    """
    # The loop pass smashes `acc` to TOP before re-reading it; the earlier
    # assignment must keep that read from counting as read-before-assign.
    assert not by_code(analyze_source(source), "CA604")


# -- CA61x verdicts ---------------------------------------------------------


def test_interval_true_constraint_is_ca611(lint_fixture):
    diagnostics = lint_fixture("folding.cactis")
    (diag,) = by_code(diagnostics, "CA611")
    assert diag.severity is Severity.INFO
    assert "in_range" in diag.message
    assert "folds it to a constant rule" in diag.message


def test_interval_false_constraint_is_ca612_error(lint_fixture):
    diagnostics = lint_fixture("folding.cactis")
    (diag,) = by_code(diagnostics, "CA612")
    assert diag.severity is Severity.ERROR
    assert "broken" in diag.message


def test_unsatisfiable_predicate_is_ca613_error(lint_fixture):
    diagnostics = lint_fixture("folding.cactis")
    (diag,) = by_code(diagnostics, "CA613")
    assert diag.severity is Severity.ERROR
    assert "hot_meter" in diag.message


def test_always_true_predicate_is_ca614(lint_fixture):
    diagnostics = lint_fixture("folding.cactis")
    (diag,) = by_code(diagnostics, "CA614")
    assert diag.severity is Severity.INFO
    assert "valid_meter" in diag.message


def test_propositional_verdicts_are_not_double_reported(lint_fixture):
    """CA5xx already covers `done or not done`; CA61x must stay silent."""
    diagnostics = lint_fixture("predicates.cactis")
    assert not [d for d in diagnostics if d.code.startswith("CA61")]


def test_contingent_constraint_stays_quiet():
    source = """
    object class c is
      attributes
        x : integer;
      constraints
        bound : x <= 10;
    end object;
    """
    assert not [
        d for d in analyze_source(source) if d.code.startswith("CA61")
    ]


# -- CA70x confluence -------------------------------------------------------


def test_overlapping_subtype_rules_are_ca701(lint_fixture):
    diagnostics = lint_fixture("races.cactis")
    (diag,) = by_code(diagnostics, "CA701")
    assert diag.severity is Severity.WARNING
    assert "'big_job'" in diag.message
    assert "'hot_job'" in diag.message
    assert "'priority'" in diag.message


def test_interval_disjoint_subtypes_are_not_flagged(lint_fixture):
    """cold_job (< 5) is disjoint from both hot_job (> 10) and
    big_job (> 8): exactly one CA701 pair survives."""
    diagnostics = lint_fixture("races.cactis")
    assert not any("cold_job" in d.message for d in diagnostics)


def test_membership_oscillation_is_ca702_error(lint_fixture):
    diagnostics = lint_fixture("races.cactis")
    (diag,) = by_code(diagnostics, "CA702")
    assert diag.severity is Severity.ERROR
    assert "busy_job" in diag.message
    assert "'score'" in diag.message


def test_propositionally_disjoint_subtypes_are_not_flagged():
    source = """
    object class t is
      attributes
        done : boolean;
        rank : integer;
      rules rank = 0;
    end object;
    object class open_t subtype of t where not done is
      rules rank = 1;
    end object;
    object class shut_t subtype of t where done is
      rules rank = 2;
    end object;
    """
    assert not by_code(analyze_source(source), "CA701")


def test_subtypes_of_unrelated_supertypes_are_not_compared():
    source = """
    object class a is
      attributes x : integer;
    end object;
    object class b is
      attributes x : integer;
    end object;
    object class big_a subtype of a where x > 0 is
      rules x = 1;
    end object;
    object class big_b subtype of b where x > 0 is
      rules x = 1;
    end object;
    """
    assert not by_code(analyze_source(source), "CA701")
