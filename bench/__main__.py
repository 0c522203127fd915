"""``python -m bench [run] ...`` and ``python -m bench compare A B``.

``run`` prints every metric by name with its unit and ends each workload
with one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``):
the end-to-end metrics of BENCHMARK.json, or with ``--trace`` the
per-layer ones.  The exit code is non-zero when any transaction failed or
any correctness check did.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from bench import OUT_DIR, REPO_ROOT, history, layers
from bench.workloads import WORKLOADS, sized


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(f"-- {title}")
    for name, value in values.items():
        print(f"{name:<40} {value:>16.6g} {units.get(name, '')}")


def run_one(name: str, args, spec_json: dict) -> bool:
    from bench import embedded, serving

    spec = sized(name, args.quick)
    traced = bool(args.trace)
    print(f"== {name}  seed={args.seed} seconds={args.seconds} trace={int(traced)}"
          f"{' quick' if args.quick else ''}")
    print(f"   why: {spec['why']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = serving if spec["kind"] == "serve" else embedded
    result = runner.run(spec, args.seed, args.seconds, traced, args.corrupt)

    tracer = result.pop("tracer", None)
    if tracer is not None:  # embedded: this process holds the spans
        path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
        result["trace_report"] = {
            "spans": tracer.write(path),
            "dropped_spans": tracer.dropped_spans,
            "open_spans": tracer.open_spans,
        }
    for label, value in result["digests"].items():
        print(f"digest {label:<33} {value}")
    units = {m["name"]: m["unit"] for m in spec_json["end_to_end"] + spec_json["per_layer"]}
    _print_metrics("end to end" + (" (traced: not for comparison)" if traced else ""),
                   result["end_to_end"], units)
    _print_metrics("as measured, before scaling to reference speed", result["measured"], units)
    if result.get("extra"):
        _print_metrics(
            "also recorded", result["extra"], {"recovery_s": "s", "wal_bytes_per_txn": "B"}
        )
    if traced:
        _print_metrics("per layer", result["per_layer"], units)
        report = result["trace_report"]
        print(f"trace: {report['spans']} spans written, {report['dropped_spans']} beyond the cap, "
              f"{report['open_spans']} left open -> bench/out/trace-{name}.jsonl")
        if report["open_spans"]:
            result["check_failures"].append(f"{report['open_spans']} spans never closed")
    _print_metrics("counters", result["counters"], {})
    print(f"checks: {result['checks_run']} run, {len(result['check_failures'])} failed; "
          f"transactions: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["check_failures"][:20]:
        print(f"CHECK FAILED: {failure}")

    if args.history:
        history.append(args.history, spec, args.seed, args.seconds, traced, args.quick, result)
    wanted = spec_json["per_layer"] if traced else spec_json["end_to_end"]
    source = result["per_layer"] if traced else result["end_to_end"]
    correct = not result["check_failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return correct and result["failed"] == 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("a", help="history file, or file@git-sha-prefix")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return 1 if history.compare(args.a, args.b) else 0
    if argv and argv[0] == "run":
        argv = argv[1:]
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print("bench: the program under test (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    spec_json = history.benchmark_spec()
    parser = argparse.ArgumentParser(prog="python -m bench run")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec_json["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--quick", action="store_true", help="1/50 of the data, for the harness's own tests"
    )
    parser.add_argument(
        "--history",
        default=None,
        help="append a record here (default: bench/history.jsonl; none with --quick)",
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="spoil one expected value; the run must then exit non-zero",
    )
    args = parser.parse_args(argv)
    if args.history is None and not args.quick:
        args.history = history.HISTORY_PATH
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    assert set(layers.PER_LAYER) == {m["name"] for m in spec_json["per_layer"]}
    ok = True
    for name in names:
        ok = run_one(name, args, spec_json) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
