"""CA3xx: the rule-body type checker, with exact source spans."""

from __future__ import annotations

from repro.analysis import analyze_source
from repro.analysis.diagnostics import Severity

from tests.analysis.conftest import by_code, codes


def test_types_fixture_flags_every_type_code(lint_fixture):
    diagnostics = lint_fixture("types.cactis")
    assert codes(diagnostics) >= {
        "CA301",  # arithmetic on mismatched operands
        "CA302",  # comparison across unrelated types
        "CA303",  # non-boolean condition
        "CA304",  # body type vs. target type
        "CA305",  # bare loop variable in an expression
        "CA306",  # assignment type mismatch
        "CA307",  # non-boolean constraint
    }


def test_type_error_spans(lint_fixture):
    diagnostics = lint_fixture("types.cactis")
    spans = {d.code: (d.line, d.column) for d in diagnostics}
    assert spans["CA301"] == (17, 15)  # name + 1
    assert spans["CA304"] == (18, 21)  # real body into integer target
    assert spans["CA306"] == (21, 9)  # n := "five"
    assert spans["CA303"] == (22, 12)  # if count then
    assert spans["CA305"] == (26, 22)  # n + w
    assert spans["CA302"] == (31, 18)  # name < count
    assert spans["CA307"] == (32, 19)  # count + 1 as a constraint


def test_loop_variable_shadowing_a_local_is_still_bare():
    """Inside its loop the For Each variable wins over a block variable of
    the same name -- as it does at run time.  This schema used to lint clean
    and fail at the first evaluation with a connection."""
    source = """
    relationship r is v : integer from plug; end;
    object class c is
      relationships many : r multi socket;
      attributes total : integer;
      rules
        total = begin
            d : integer;
            for each d related to many do
                d := d + 1;
            end for;
            return d;
        end;
    end;
    """
    (diag,) = by_code(analyze_source(source), "CA305")
    assert (diag.line, diag.column) == (10, 22)


def test_condition_and_constraint_shape_checks_are_warnings(lint_fixture):
    diagnostics = lint_fixture("types.cactis")
    for code in ("CA303", "CA307"):
        for diag in by_code(diagnostics, code):
            assert diag.severity is Severity.WARNING


def test_integer_widens_to_real_without_complaint():
    source = """
    object class c is
      attributes
        n : integer;
        r : real;
      rules
        r = n + 1;
    end object;
    """
    diagnostics = analyze_source(source)
    assert not [d for d in diagnostics if d.code.startswith("CA3")]


def test_time_arithmetic_with_integers_is_legal():
    """Figure 1 computes exp_compl as TIME0 + integer durations."""
    source = """
    object class c is
      attributes
        base : time;
        span : integer;
        due  : time;
      rules
        due = base + span;
    end object;
    """
    diagnostics = analyze_source(source, constants=())
    assert not [d for d in diagnostics if d.code.startswith("CA3")]


def test_builtin_signatures_are_checked():
    source = """
    object class c is
      attributes
        name : string;
        when : time;
      rules
        when = later_of(name, 3);
    end object;
    """
    diagnostics = analyze_source(source)
    assert by_code(diagnostics, "CA301")


def test_unknown_external_function_result_is_not_second_guessed():
    """Externally-declared functions return `unknown`; no cascade."""
    source = """
    object class c is
      attributes
        x : integer;
      rules
        x = mystery() + 1;
    end object;
    """
    diagnostics = analyze_source(source, functions=("mystery",))
    assert not [d for d in diagnostics if d.code.startswith("CA3")]
