"""AnalysisFacts: the freeze-time hand-off from analyzer to runtime."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.analysis.facts import (
    FANOUT_BOUND,
    NATIVE_OPS,
    compute_facts,
    facts_from_model,
)
from repro.analysis.model import model_from_decl
from repro.dsl import compile_schema
from repro.dsl.parser import parse

SOURCE = """
relationship staffing is
    effort : integer from plug;
    note   : integer from socket;
end relationship;

object class task is
  relationships
    staffed_by : staffing multi socket;
  attributes
    budget : integer;
    total  : integer;
    level  : integer;
  rules
    total = begin
        acc : integer;
        acc := 0;
        for each e related to staffed_by do
            acc := acc + e.effort;
        end for;
        return acc;
    end;
    level = begin
        if total > budget then
            return 2;
        end if;
        return 1;
    end;
  constraints
    level_ok : level >= 1 and level <= 2;
    cap      : total <= 1000;
end object;

object class engineer is
  relationships
    works_on : staffing plug;
  attributes
    effort : integer;
  rules
    works_on effort = effort;
end object;
"""


def _facts():
    return facts_from_model(model_from_decl(parse(SOURCE)))


def test_always_true_records_the_provable_constraint():
    facts = _facts()
    assert ("task", "__constraint__level_ok") in facts.always_true
    assert not any("cap" in slot for __, slot in facts.always_true)
    assert not facts.always_false


def test_unproduced_records_the_value_nobody_transmits():
    facts = _facts()
    assert ("task", "staffed_by", "note") not in facts.unproduced  # unread
    # `effort` is produced; a read of `note` would be the unproduced case.
    produced = {(cls, port, value) for cls, port, value in facts.unproduced}
    assert ("task", "staffed_by", "effort") not in produced


def test_ranges_cover_the_branching_rule():
    facts = _facts()
    assert facts.ranges[("task", "level")] == (1.0, 2.0)


def test_cost_charges_for_each_bodies_by_fanout():
    facts = _facts()
    loop_ops = facts.cost.rule_ops[("task", "total")]
    flat_ops = facts.cost.rule_ops[("task", "level")]
    # The loop body is multiplied by the fan-out bound, so the For-Each
    # rule must dominate the flat branch despite similar AST sizes.
    assert loop_ops > flat_ops
    assert facts.cost.fanout[("task", "total")] == 1
    assert facts.cost.ops_of("task", "total") == loop_ops
    # Unknown slots fall back to the conservative native estimate.
    assert facts.cost.ops_of("elsewhere", "unknown") == NATIVE_OPS
    assert FANOUT_BOUND > 1


def test_port_weight_charges_readers_and_transmitters():
    facts = _facts()
    # task.total reads staffed_by.effort; engineer transmits on works_on.
    assert facts.cost.port_weight[("task", "staffed_by")] > 0
    assert facts.cost.port_weight[("engineer", "works_on")] > 0


def test_to_json_is_serializable_and_stringly_keyed():
    payload = _facts().to_json()
    text = json.dumps(payload)
    roundtrip = json.loads(text)
    assert "task.__constraint__level_ok" in roundtrip["always_true"]
    assert roundtrip["ranges"]["task.level"] == [1.0, 2.0]
    assert roundtrip["cost"]["rule_ops"]["task.level"] > 0
    assert roundtrip["rounds"] >= 1


def test_freeze_attaches_facts_to_the_schema():
    schema = compile_schema(SOURCE)
    facts = schema.analysis_facts
    assert facts is not None
    assert ("task", "__constraint__level_ok") in facts.always_true
    assert facts.schema_version == schema.version


def test_analyzer_failure_never_blocks_a_freeze(monkeypatch):
    def broken(schema):
        raise RuntimeError("analyzer bug")

    monkeypatch.setattr("repro.analysis.facts.compute_facts", broken)
    schema = compile_schema(SOURCE)
    assert schema.frozen
    assert schema.analysis_facts is None
    assert schema.compile_stats["constraints_folded"] == 0


def test_wide_generated_schema_proves_every_constraint_and_reports_no_error():
    """Sixty relationship-linked classes, each with a constraint the
    interval analysis can prove from a constant rule."""
    from repro.analysis import analyze_source

    classes = 60
    parts = [
        "relationship link is\n    score : integer from plug;\nend relationship;\n"
    ]
    for n in range(classes):
        parts.append(
            f"""
object class stage{n} is
  relationships
    feed : link multi socket;
    emit : link plug;
  attributes
    base   : integer;
    bound  : integer;
    rating : integer;
  rules
    bound = {n} + 1;
    rating = begin
        acc : integer;
        acc := base;
        for each w related to feed do
            acc := acc + w.score;
        end for;
        if acc > bound then
            return acc;
        end if;
        return bound;
    end;
    emit score = bound;
  constraints
    bound_ok : bound >= 1 and bound <= {n} + 1;
end object;
"""
        )
    source = "".join(parts)
    facts = facts_from_model(model_from_decl(parse(source)))
    assert len(facts.always_true) == classes
    assert not facts.always_false
    assert not [d for d in analyze_source(source) if d.is_error]


def test_compute_facts_runs_against_a_compiled_schema():
    schema = compile_schema(SOURCE)
    facts = compute_facts(schema)
    assert ("task", "__constraint__level_ok") in facts.always_true


def test_cli_facts_dump(tmp_path):
    out = tmp_path / "facts.json"
    src = tmp_path / "schema.cactis"
    src.write_text(SOURCE)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "--quiet",
            "--facts",
            str(out),
            str(src),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    (unit,) = payload.values()
    assert "task.__constraint__level_ok" in unit["always_true"]
    assert unit["cost"]["port_weight"]["task.staffed_by"] > 0
