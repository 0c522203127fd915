"""Randomised (but seeded, reproducible) workload generators.

* :func:`build_random_dag` -- a layered random DAG over the sum-node
  schema, for property tests and coverage of irregular shapes.
* :func:`build_software_project` -- a synthetic software-project object
  graph (modules grouped into components) with a skewed access pattern
  generator; this is the clustering/scheduling workload (E4/E5): accesses
  concentrate inside components, so usage-based clustering has locality to
  discover.
* :func:`load_sum_forest` -- many such projects in one database, loaded
  and warm: the served workloads' graph shape, for memory measurements.
* :func:`random_update_script` -- a reproducible stream of primitive
  updates and queries for soak/property testing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.database import Database
from repro.workloads.topologies import link, sum_node_schema


def build_random_dag(
    db: Database,
    n_nodes: int,
    edge_prob: float = 0.2,
    seed: int = 0,
    max_parents: int = 4,
) -> list[int]:
    """A layered random DAG: node i may depend on nodes j < i.

    Edges are sampled with probability ``edge_prob`` per candidate pair,
    capped at ``max_parents`` parents per node.  Deterministic for a given
    seed.  Returns ids in topological order (upstream first).
    """
    rng = random.Random(seed)
    nodes = [db.create("node", weight=rng.randrange(1, 10)) for __ in range(n_nodes)]
    for i, node in enumerate(nodes):
        if i == 0:
            continue
        candidates = list(range(i))
        rng.shuffle(candidates)
        parents = 0
        for j in candidates:
            if parents >= max_parents:
                break
            if rng.random() < edge_prob:
                link(db, nodes[j], node)
                parents += 1
    return nodes


@dataclass
class SoftwareProject:
    """Handle to a generated project graph."""

    components: list[list[int]]
    all_nodes: list[int]

    def component_of(self, iid: int) -> int:
        for index, members in enumerate(self.components):
            if iid in members:
                return index
        raise KeyError(iid)


def build_software_project(
    db: Database,
    n_components: int = 8,
    modules_per_component: int = 12,
    cross_links: int = 6,
    seed: int = 0,
) -> SoftwareProject:
    """A component-structured module graph over the sum-node schema.

    Modules inside a component form a dependency chain plus a few intra-
    component shortcuts; ``cross_links`` edges connect consecutive
    components.  The structure mimics a layered software project: most
    value flow stays inside a component, which is exactly the locality the
    paper's clustering algorithm is designed to exploit.
    """
    rng = random.Random(seed)
    components: list[list[int]] = []
    for __ in range(n_components):
        members = [
            db.create("node", weight=rng.randrange(1, 5))
            for __ in range(modules_per_component)
        ]
        for upstream, downstream in zip(members, members[1:]):
            link(db, upstream, downstream)
        # A few intra-component shortcuts.
        for __ in range(modules_per_component // 4):
            i, j = sorted(rng.sample(range(modules_per_component), 2))
            if j - i > 1:
                try:
                    link(db, members[i], members[j])
                except Exception:
                    pass  # duplicate edge; skip
        components.append(members)
    for a, b in zip(components, components[1:]):
        for __ in range(cross_links):
            src = rng.choice(a)
            dst = rng.choice(b)
            try:
                link(db, src, dst)
            except Exception:
                pass  # duplicate edge; skip
    return SoftwareProject(
        components=components,
        all_nodes=[iid for members in components for iid in members],
    )


def load_sum_forest(projects: int) -> Database:
    """``projects`` software projects of 200 sum nodes each, loaded and warm.

    The served workloads' shape: 8 components of 25 modules, 3 cross links,
    one batch transaction per project (so one undo ``Delta`` each), then
    every project's tail demanded once.
    """
    db = Database(sum_node_schema())
    tails = []
    for k in range(projects):
        with db.transaction("load", batch=True):
            project = build_software_project(
                db, n_components=8, modules_per_component=25, cross_links=3, seed=k
            )
        tails.append(project.all_nodes[-1])
    for tail in tails:
        db.get_attr(tail, "total")
    return db


def skewed_access_pattern(
    project: SoftwareProject,
    n_accesses: int,
    hot_components: int = 2,
    hot_fraction: float = 0.8,
    seed: int = 1,
) -> list[int]:
    """Instance ids to query, concentrated on a few hot components.

    ``hot_fraction`` of accesses land in the first ``hot_components``
    components; the rest spread uniformly.  Deterministic per seed.
    """
    rng = random.Random(seed)
    hot = [iid for members in project.components[:hot_components] for iid in members]
    accesses = []
    for __ in range(n_accesses):
        if rng.random() < hot_fraction:
            accesses.append(rng.choice(hot))
        else:
            accesses.append(rng.choice(project.all_nodes))
    return accesses


def random_update_script(
    nodes: list[int], n_ops: int, seed: int = 0, query_fraction: float = 0.5
) -> list[tuple[str, int, int]]:
    """A reproducible stream of ``("set", iid, value)`` / ``("get", iid, 0)``.

    Property tests replay the same script against the incremental engine
    and a baseline and assert identical observable values.
    """
    rng = random.Random(seed)
    script: list[tuple[str, int, int]] = []
    for __ in range(n_ops):
        iid = rng.choice(nodes)
        if rng.random() < query_fraction:
            script.append(("get", iid, 0))
        else:
            script.append(("set", iid, rng.randrange(0, 100)))
    return script


def run_update_script(
    db: Database, script: list[tuple[str, int, int]], batch: bool = False
) -> list[int]:
    """Execute a script; returns the values observed by the gets.

    With ``batch=True`` the whole script runs inside one ``db.batch()``
    block: sets coalesce into a single propagation wave while gets still
    observe exact values (a mid-batch read flushes deferred marking).
    Property tests replay the same script both ways and assert identical
    observations.
    """
    observed: list[int] = []

    def run() -> None:
        for op, iid, value in script:
            if op == "set":
                db.set_attr(iid, "weight", value)
            else:
                observed.append(db.get_attr(iid, "total"))

    if batch:
        with db.batch():
            run()
    else:
        run()
    return observed
