"""Incremental attribute evaluation -- the paper's central contribution.

* :mod:`repro.evaluation.engine` -- the two-phase mark/evaluate algorithm.
* :mod:`repro.evaluation.scheduler` -- chunk scheduling in the paper's
  greedy I/O-aware order.
* :mod:`repro.evaluation.host` -- the protocol the database implements for
  the engine.
* :mod:`repro.evaluation.counters` -- shared work counters.
* :mod:`repro.evaluation.fixedpoint` -- Farrow-style fixed-point evaluation
  for circular attribute systems (the flow-analysis extension).
"""

from repro.evaluation.counters import EvalCounters
from repro.evaluation.engine import IncrementalEngine
from repro.evaluation.fixedpoint import (
    CircularAttributeSystem,
    FixedPointDivergence,
)
from repro.evaluation.host import DepBinding, EvaluationHost
from repro.evaluation.scheduler import ChunkScheduler
from repro.evaluation.trace import WaveTrace, WaveTracer

__all__ = [
    "ChunkScheduler",
    "CircularAttributeSystem",
    "DepBinding",
    "EvalCounters",
    "EvaluationHost",
    "FixedPointDivergence",
    "IncrementalEngine",
    "WaveTrace",
    "WaveTracer",
]
