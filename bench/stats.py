"""Small measurement helpers: percentiles, peak memory, machine facts."""

from __future__ import annotations

import os
import platform
import statistics


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def supported_tail(n: int) -> float:
    """The highest of the usual percentiles with >= 10 samples beyond it."""
    for q in (0.999, 0.99, 0.95, 0.9):
        if n * (1 - q) >= 10:
            return q
    return 0.5


def summarize_ms(seconds: list[float]) -> dict:
    """Median and tails of a latency sample, in milliseconds."""
    ordered = sorted(seconds)
    return {
        "n": len(ordered),
        "p50": 1e3 * percentile(ordered, 0.5),
        "p90": 1e3 * percentile(ordered, 0.90),
        "p95": 1e3 * percentile(ordered, 0.95),
        "p99": 1e3 * percentile(ordered, 0.99),
        "p999": 1e3 * percentile(ordered, 0.999),
        "supported_tail": supported_tail(len(ordered)),
    }


def chunk_rate(latencies: list[float], chunk: int) -> float:
    """Median over whole chunks of ``chunk`` ops of the chunk's ops/second.

    The sandbox's CPU slows down in bursts of a fraction of a second; a
    median over chunks ignores the bursts a mean over the run would keep.
    """
    rates = [
        chunk / sum(latencies[first : first + chunk])
        for first in range(0, len(latencies) - chunk + 1, chunk)
    ]
    return median(rates) if rates else len(latencies) / sum(latencies)


def window_rate(answered_at: list[float], started: float, seconds: float, window: float) -> float:
    """Median over whole ``window``-second windows of replies/second."""
    counts = [0] * max(1, int(seconds / window))
    for at in answered_at:
        index = int((at - started) / window)
        if 0 <= index < len(counts):
            counts[index] += 1
    return median(counts) / min(window, seconds)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MiB (0 where /proc is unavailable)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
    }
