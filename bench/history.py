"""The append-only trajectory (``bench/history.jsonl``) and the gate that
reads it (``python -m bench compare A B``)."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time

from bench import BENCH_DIR, REPO_ROOT, stats
from bench.workloads import WORKLOADS

HISTORY_PATH = os.path.join(BENCH_DIR, "history.jsonl")

#: Gated beside BENCHMARK.json's end-to-end metrics, but only where they
#: exist (the contract wants every end-to-end metric on every workload and
#: never 0, so these cannot be listed there): name -> (better, bound).
EXTRA_BOUNDS = {
    "recovery_s": ("lower", 0.15),
    "wal_bytes_per_txn": ("lower", 0.02),
}
#: ``failed / attempted`` may rise by at most this much, absolutely.
FAILED_RATIO_SLACK = 0.001


def benchmark_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _git(*args: str) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None


def _git_sha() -> str:
    """HEAD's sha, ``-dirty`` when the work tree differs from it."""
    head = _git("rev-parse", "HEAD")
    if head is None or head.returncode != 0:
        return "unknown"
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return head.stdout.strip() + ("-dirty" if dirty is None or dirty.stdout.strip() else "")


def append(
    path: str, spec: dict, seed: int, seconds: float, traced: bool, quick: bool, result: dict
) -> None:
    """One record per workload run; the file is only ever appended to."""
    record = {
        "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        **stats.machine(),
        "workload": spec["name"],
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "quick": quick,
        "params": {k: v for k, v in spec.items() if k not in ("name", "why")},
        "phases": result["phases"],
        "samples": result["samples"],
        "end_to_end": result["end_to_end"],
        "measured": result["measured"],
        "extra": result.get("extra", {}),
        "per_layer": result["per_layer"] if traced else {},
        "counters": result["counters"],
        "digests": result["digests"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks_run": result["checks_run"],
        "check_failures": len(result["check_failures"]),
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def load(selector: str) -> list[dict]:
    """Untraced full-size records of ``path`` or ``path@git_sha_prefix``."""
    path, __, sha = selector.partition("@")
    records = []
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if record["trace"] or record["quick"]:
                    continue
                if sha and not record["git_sha"].startswith(sha):
                    continue
                records.append(record)
    return records


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below 2 values)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _worse_by(better: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    return (new - base) / base if better == "lower" else (base - new) / base


def compare(selector_a: str, selector_b: str, out=print) -> int:
    """Apply the bounds to B against A; returns the number of regressions."""
    spec = benchmark_spec()
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    a, b = load(selector_a), load(selector_b)
    regressions = 0
    out(
        f"{'workload':<18} {'metric':<18} {'A median':>12} {'B median':>12} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = [r for r in a if r["workload"] == workload]
        runs_b = [r for r in b if r["workload"] == workload]
        if not runs_a or not runs_b:
            out(f"{workload:<18} no runs on {'A' if not runs_a else 'B'}")
            regressions += 1
            continue
        for name, (better, bound) in {**bounds, **EXTRA_BOUNDS}.items():
            section = "end_to_end" if name in bounds else "extra"
            values_a = [r[section][name] for r in runs_a if r[section].get(name)]
            values_b = [r[section][name] for r in runs_b if r[section].get(name)]
            if not values_a or not values_b:
                continue  # the metric does not exist on this workload
            med_a, med_b = statistics.median(values_a), statistics.median(values_b)
            worse = _worse_by(better, med_a, med_b)
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread(values_a) > bound:
                verdict = "unresolved (A's own spread exceeds the bound)"
            else:
                verdict = "ok"
            out(
                f"{workload:<18} {name:<18} {med_a:>12.4f} {med_b:>12.4f} "
                f"{worse:>+9.1%} {bound:>6.0%}  {verdict}"
            )

        def failed_ratio(runs):
            return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)

        ratio_a, ratio_b = failed_ratio(runs_a), failed_ratio(runs_b)
        if ratio_b > ratio_a + FAILED_RATIO_SLACK:
            out(f"{workload:<18} failed_ratio {ratio_a:.5f} -> {ratio_b:.5f}  REGRESSION")
            regressions += 1
        check_failures = sum(r["check_failures"] for r in runs_b)
        if check_failures:
            out(f"{workload:<18} check_failures {check_failures}  REGRESSION")
            regressions += 1
        if WORKLOADS[workload]["kind"] == "embed":
            regressions += _compare_counters(workload, runs_a, runs_b, out)
    out(f"{regressions} regression(s)")
    return regressions


def _compare_counters(workload: str, runs_a, runs_b, out) -> int:
    """Embedded work counters must not change at all for equal inputs."""
    changed = 0
    by_input = {(r["seed"], r["seconds"], r["digests"]["stream"]): r for r in runs_a}
    for run in runs_b:
        base = by_input.get((run["seed"], run["seconds"], run["digests"]["stream"]))
        if base is None:
            continue
        for name, value in run["counters"].items():
            if base["counters"].get(name) != value:
                was = base["counters"].get(name)
                out(f"{workload:<18} counter {name} seed {run['seed']}: {was} -> {value}  CHANGED")
                changed += 1
    return changed
