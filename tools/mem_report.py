"""Memory census of a generated sum-node load, by allocation site.

Usage::

    PYTHONPATH=src python tools/mem_report.py --projects N

Loads ``N`` software-project graphs of 200 ``node`` instances each with
:func:`repro.workloads.load_sum_forest` (the served workloads' shape and
warm-up) and prints what ``tracemalloc`` still holds: the total per
instance, then the largest allocation sites with their bytes per instance.
The undo history (one ``Delta`` per project) is part of the load and so of
the census.  ``docs/STORAGE.md``'s "memory per instance" table is this
report at ``make mem-report``'s default size.
"""

from __future__ import annotations

import argparse
import gc
import linecache
import tracemalloc

from repro.workloads import load_sum_forest, sum_node_schema

#: allocation sites printed, largest first.
TOP_SITES = 15


def census(projects: int) -> tuple[int, int, list[tuple[str, str, int]]]:
    """``(instances, traced bytes, [(site, source line, bytes)])``, the
    sites largest first."""
    sum_node_schema()  # first-use imports and caches stay out of the census
    gc.collect()
    tracemalloc.start()
    try:
        db = load_sum_forest(projects)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    sites = []
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        site = f"{frame.filename.rsplit('src/', 1)[-1]}:{frame.lineno}"
        sites.append((site, linecache.getline(frame.filename, frame.lineno).strip(), stat.size))
    return db.next_instance_id - 1, sum(size for *__, size in sites), sites


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--projects", type=int, required=True)
    args = parser.parse_args(argv)
    instances, total, sites = census(args.projects)
    print(f"{instances} instances, {total / 2**20:.1f} MiB traced, "
          f"{total / instances:.0f} B/instance")
    print(f"{'B/inst':>8}  site")
    for site, line, size in sites[:TOP_SITES]:
        print(f"{size / instances:8.1f}  {site}  {line[:60]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
