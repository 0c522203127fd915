"""A calibration kernel: how fast is this machine, right now?

The sandbox's CPU speed differs by up to 1.5x from one ten-second stretch
to the next (neighbours on the same host), and every timing inherits that.
The process that holds the database therefore runs this fixed, program-
independent kernel all through its measured phases, and timings are
reported *at reference speed*: scaled by how much slower or faster than
:data:`REFERENCE_S` the kernel ran beside them.  On ten runs of one seed
that halves the spread of throughput (0.18 -> 0.09 of the median).  The
raw values and the kernel's time are recorded with every run.
"""

from __future__ import annotations

from time import perf_counter

from bench import stats

#: What the kernel takes on this sandbox on a typical day, in seconds.
REFERENCE_S = 0.00085


def spin() -> float:
    """Seconds for a fixed mix of arithmetic, tuple and dict work."""
    started = perf_counter()
    x, d = 0, {}
    for i in range(4000):
        x += i * i % 7
        d[(i, x)] = i
    return perf_counter() - started


def at_reference(
    samples: list[float], ops_per_s: float, p50_ms: float, tail_ms: float
) -> tuple[dict, dict]:
    """The timings as measured (with the slowdown), and at reference speed.

    The slowdown is the kernel's median time over the reference: > 1 means
    a slow stretch, so rates scale up by it and latencies down.
    """
    slowdown = stats.median(samples) / REFERENCE_S if samples else 1.0
    measured = {
        "ops_per_s": ops_per_s,
        "p50_ms": p50_ms,
        "tail_ms": tail_ms,
        "slowdown": slowdown,
    }
    scaled = {
        "ops_per_s": ops_per_s * slowdown,
        "p50_ms": p50_ms / slowdown,
        "tail_ms": tail_ms / slowdown,
    }
    return measured, scaled
