"""The end-to-end benchmark harness (see bench/README.md).

Everything the benchmark needs lives in this directory; the system under
test is imported from ``src/`` of the same checkout and is measured from
outside, by timing calls into its public functions and reading
``Database.metrics()`` deltas.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

# The command in BENCHMARK.json names no file outside ``bench/``, so the
# package finds the program's sources itself.
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
