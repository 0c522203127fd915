"""Dependency-graph substrate for incremental attribute evaluation.

* :mod:`repro.graph.depgraph` -- the slot-level dependency graph, a
  read-only view derived from slot plans and live connections, with the
  ``Could_Change`` reachability helper from the paper's complexity bound.
* :mod:`repro.graph.cycles` -- cycle detection (Cactis forbids data
  cycles).
"""

from repro.graph.cycles import find_cycle, graph_has_cycle
from repro.graph.depgraph import DependencyView, could_change

__all__ = [
    "DependencyView",
    "could_change",
    "find_cycle",
    "graph_has_cycle",
]
