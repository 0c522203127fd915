"""The harness's own tests: ``python -m pytest bench -q`` (not tier-1).

A ``--quick`` pass (1/50 of the data) over all four workloads, traced and
untraced, checks the printed metric names and units against
BENCHMARK.json, that embedded runs repeat exactly, that every span tree
closes, and that the checks and the gate actually bite.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from bench import OUT_DIR, REPO_ROOT, embedded, history, layers
from bench.workloads import WORKLOADS, sized

SPEC = history.benchmark_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    setup = {"name": "setup_s", "unit": "s", "better": "lower"}
    assert setup.items() <= SPEC["end_to_end"][0].items()
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_pass_prints_the_declared_metrics(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "2", "--trace", str(trace), "--quick"
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())
        return
    # Every span tree closes: each child lies inside a parent that exists.
    spans = {}
    with open(os.path.join(OUT_DIR, f"trace-{workload}.jsonl")) as handle:
        for line in handle:
            span = json.loads(line)
            spans[span["id"]] = span
    assert spans and "0 left open" in done.stdout
    for span in spans.values():
        assert span["end"] >= span["start"] > 0
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            # step_batch spans many transactions and carries no id itself.
            assert parent["txn"] in (None, span["txn"])


@pytest.mark.parametrize("workload", ["embed_wave", "embed_query_churn"])
def test_embedded_runs_repeat_exactly(workload):
    first = embedded.run(sized(workload, quick=True), seed=5, seconds=2, traced=False)
    second = embedded.run(sized(workload, quick=True), seed=5, seconds=2, traced=False)
    assert first["digests"] == second["digests"]
    assert first["counters"] == second["counters"]
    assert first["counters"]["engine.rule_evaluations"] > 0
    other = embedded.run(sized(workload, quick=True), seed=6, seconds=2, traced=False)
    assert other["digests"] != first["digests"]


def test_tracing_accounts_for_the_whole_root_span():
    result = embedded.run(sized("embed_wave", quick=True), seed=5, seconds=2, traced=True)
    tracer = result["tracer"]
    assert tracer.open_spans == 0
    per_op = sum(
        value
        for name, value in result["per_layer"].items()
        if name.endswith(("_us_per_op", "_us_per_txn")) and not name.startswith("client")
    )
    root_us = 1e6 * result["phases"]["run_s"] / result["samples"]["ops"]
    assert per_op == pytest.approx(root_us, rel=0.02)
    assert result["per_layer"]["index.maintain_us_per_write"] == 0  # the bypass


def test_a_corrupted_expected_value_fails_the_run():
    done = _bench("--workload", "embed_wave", "--seconds", "1", "--quick", "--corrupt")
    assert done.returncode != 0
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def _record(workload, ops_per_s, counters=None):
    return {
        "workload": workload, "trace": False, "quick": False, "git_sha": "x", "seed": 1,
        "seconds": 12, "attempted": 100, "failed": 0, "check_failures": 0,
        "digests": {"stream": "d"}, "counters": counters or {"engine.waves": 7},
        "end_to_end": {"setup_s": 1.0, "ops_per_s": ops_per_s, "p50_ms": 1.0, "tail_ms": 2.0,
                       "peak_rss_mb": 10.0},
        "extra": {},
    }


def test_compare_applies_the_bounds(tmp_path):
    def write(name, rate, counters=None):
        path = tmp_path / name
        path.write_text("".join(
            json.dumps(_record(w, rate, counters)) + "\n" for w in WORKLOADS for __ in range(3)
        ))
        return str(path)

    lines: list[str] = []
    base = write("a.jsonl", 100.0)
    assert history.compare(base, write("same.jsonl", 99.0), out=lines.append) == 0
    assert history.compare(base, write("slow.jsonl", 50.0), out=lines.append) == len(WORKLOADS)
    assert any("REGRESSION" in line for line in lines)
    # A changed work counter on an embedded workload is a finding by itself.
    drifted = write("drift.jsonl", 100.0, {"engine.waves": 8})
    assert history.compare(base, drifted, out=lines.append) == 2 * 3


def test_the_command_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, no result."""
    import shutil

    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(REPO_ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [*SPEC["command"], "--workload", "embed_wave", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
