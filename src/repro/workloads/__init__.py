"""Deterministic workload generators for tests and benchmarks.

:mod:`repro.workloads.topologies` builds the canonical shapes (chain,
diamond ladder, tree, fan, grid) over a reusable sum-node schema;
:mod:`repro.workloads.generators` adds seeded random DAGs, the synthetic
software-project graph with skewed access patterns, and replayable update
scripts.
"""

from repro.workloads.generators import (
    SoftwareProject,
    build_random_dag,
    build_software_project,
    load_sum_forest,
    random_update_script,
    run_update_script,
    skewed_access_pattern,
)
from repro.workloads.topologies import (
    build_chain,
    build_diamond_ladder,
    build_fan,
    build_grid,
    build_tree,
    link,
    sum_node_schema,
)

__all__ = [
    "SoftwareProject",
    "build_chain",
    "build_diamond_ladder",
    "build_fan",
    "build_grid",
    "build_random_dag",
    "build_software_project",
    "build_tree",
    "link",
    "load_sum_forest",
    "random_update_script",
    "run_update_script",
    "skewed_access_pattern",
    "sum_node_schema",
]
