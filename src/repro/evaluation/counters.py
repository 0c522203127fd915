"""Work counters for the evaluation engine and its test-side references.

The paper's claims (E1-E3 in DESIGN.md) are about *counts*: attributes
marked, attributes evaluated, dependency edges visited.  Every propagation
strategy -- the incremental engine and the trigger / full-recompute
reference engines of ``tests/references.py`` alike -- reports through this
one structure so comparisons are like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class EvalCounters:
    """Cumulative work counters."""

    #: number of times any attribute evaluation rule body ran.
    rule_evaluations: int = 0
    #: number of slots newly marked out of date (phase 1).
    slots_marked: int = 0
    #: dependency edges examined while marking, including edges whose head
    #: was already out of date (the "cut short" case).
    mark_edge_visits: int = 0
    #: explicit user demands (queries) served.
    demands: int = 0
    #: units of work run that waited in the scheduler's priced heap (a
    #: proxy for context switches).
    chunk_executions: int = 0
    #: evaluations of a slot whose recomputed value equalled the old value.
    unchanged_evaluations: int = 0
    #: units of work run that were first queued resident, in the very-high
    #: deque; a unit keeps its lane through promotion and demotion.
    fast_path_hits: int = 0
    #: propagation waves actually run (batching coalesces many primitive
    #: updates into one wave).
    waves: int = 0
    #: primitive updates whose marking was deferred into a pending batch.
    batched_updates: int = 0

    def snapshot(self) -> "EvalCounters":
        return EvalCounters(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def delta_since(self, earlier: "EvalCounters") -> "EvalCounters":
        """Counter difference between now and an earlier :meth:`snapshot`."""
        return EvalCounters(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)
