"""Seeded input generation: datasets and op/txn streams as plain data.

Everything here is a pure function of its arguments.  The harness builds
every input *up front* from ``--seed``; the database and the server only
ever see the generated lists, and a digest of each stream is recorded so
two runs can prove they were fed the same bytes.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field


def digest(stream) -> str:
    """A short stable fingerprint of a generated stream."""
    return hashlib.sha256(repr(stream).encode()).hexdigest()[:16]


def subseed(seed: int, label: str) -> int:
    """An independent seed per use, so streams do not share one RNG state."""
    return int.from_bytes(
        hashlib.sha256(f"{seed}:{label}".encode()).digest()[:8], "big"
    )


class Zipf:
    """Zipf(s) ranks mapped onto ``n`` keys through a seeded permutation.

    Keys come in consecutive strata of ``stratum`` (one project graph
    each).  Which stratum a rank lands in is seeded; its offset inside the
    stratum follows one fixed evenly-spreading order.  The hot ranks of
    every seed therefore sit at the same spread of chain depths -- how far
    a write's marking wave runs depends on depth, and with a plain
    permutation the few hottest keys' depths made seeds differ by more
    than the metric bounds.
    """

    def __init__(self, n: int, s: float, seed: int, stratum: int = 1) -> None:
        assert n % stratum == 0
        bits = max(1, (stratum - 1).bit_length())
        spread = sorted(range(stratum), key=lambda p: int(f"{p:0{bits}b}"[::-1], 2))
        offsets = [(p + stratum // 2) % stratum for p in spread]  # hottest mid-chain
        rng = random.Random(subseed(seed, "zipf-permutation"))
        strata = []
        for __ in offsets:
            order = list(range(n // stratum))
            rng.shuffle(order)
            strata.append(order)
        self.keys = [
            strata[rank % stratum][rank // stratum] * stratum + offsets[rank % stratum]
            for rank in range(n)
        ]
        self.cum_weights = list(
            itertools.accumulate(1.0 / (rank**s) for rank in range(1, n + 1))
        )

    def sample(self, rng: random.Random, k: int) -> list[int]:
        return rng.choices(self.keys, cum_weights=self.cum_weights, k=k)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


@dataclass
class Forest:
    """Independent sum-node project graphs; node ``i`` gets instance id ``i+1``."""

    weights: list[int] = field(default_factory=list)
    #: ``(upstream, downstream)`` node indices, in creation order.
    edges: list[tuple[int, int]] = field(default_factory=list)
    #: per project: ``(first_node, end_node, first_edge, end_edge)``.
    projects: list[tuple[int, int, int, int]] = field(default_factory=list)

    @property
    def tails(self) -> list[int]:
        """The last node of every project (its total sees the whole chain)."""
        return [end - 1 for __, end, __, __ in self.projects]


class _Recorder:
    """Stands in for a Database so the repo's own generator yields data."""

    def __init__(self, forest: Forest) -> None:
        self.forest = forest
        self.seen: set[tuple[int, int]] = set()

    def create(self, class_name: str, weight: int) -> int:
        self.forest.weights.append(weight)
        return len(self.forest.weights) - 1

    def connect(self, downstream: int, __: str, upstream: int, ___: str) -> None:
        edge = (upstream, downstream)
        if edge in self.seen:  # the real database refuses a duplicate too
            raise ValueError("already connected")
        self.seen.add(edge)
        self.forest.edges.append(edge)


def project_forest(
    seed: int,
    n_projects: int,
    n_components: int = 8,
    modules_per_component: int = 25,
    cross_links: int = 3,
) -> Forest:
    """``n_projects`` graphs shaped by ``repro.workloads.build_software_project``."""
    from repro.workloads import build_software_project

    forest = Forest()
    recorder = _Recorder(forest)
    for k in range(n_projects):
        first_node, first_edge = len(forest.weights), len(forest.edges)
        build_software_project(
            recorder,
            n_components=n_components,
            modules_per_component=modules_per_component,
            cross_links=cross_links,
            seed=subseed(seed, f"project-{k}"),
        )
        forest.projects.append(
            (first_node, len(forest.weights), first_edge, len(forest.edges))
        )
    return forest


@dataclass
class Dag:
    """A layered milestone DAG; node ``i`` gets instance id ``i+1``."""

    layers: int
    width: int
    local_work: list[int]
    sched_compl: list[int]
    #: ``parents[i]``: the milestones ``i`` depends on (previous layer).
    parents: list[list[int]]

    def layer(self, index: int) -> range:
        index %= self.layers
        return range(index * self.width, (index + 1) * self.width)


def milestone_dag(seed: int, layers: int, width: int, random_parent: bool) -> Dag:
    """Each milestone depends on {same column, next column[, one random]}."""
    rng = random.Random(subseed(seed, "dag"))
    local_work = [rng.randrange(1, 10) for __ in range(layers * width)]
    parents: list[list[int]] = [[] for __ in range(layers * width)]
    for layer in range(1, layers):
        base, prev = layer * width, (layer - 1) * width
        for col in range(width):
            chosen = [prev + col, prev + (col + 1) % width]
            if random_parent:
                extra = prev + rng.randrange(width)
                if extra not in chosen:
                    chosen.append(extra)
            parents[base + col] = chosen
    # Schedule each milestone around its expected completion, so `late`
    # (and the very_late subtype) split the population instead of being
    # constant: about one in five starts late.
    expected = milestone_expected(local_work, parents)
    sched_compl = [exp + rng.randrange(-5, 21) for exp in expected]
    return Dag(layers, width, local_work, sched_compl, parents)


def milestone_expected(local_work, parents) -> list[int]:
    """Figure 1's rule over plain lists (parents precede children)."""
    expected: list[int] = []
    for work, deps in zip(local_work, parents):
        latest = 0
        for dep in deps:
            if expected[dep] > latest:
                latest = expected[dep]
        expected.append(latest + work)
    return expected


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def _mixed(rng: random.Random, count: int, block: dict[str, int]) -> list[str]:
    """``count`` kinds, built from whole blocks holding exactly ``block``'s
    counts, each block shuffled on its own.

    Every block of ``sum(block.values())`` ops therefore has the same
    composition, so per-block throughputs are comparable, and a rare slow
    kind can never straddle a percentile by chance.
    """
    template = [kind for kind, n in block.items() for __ in range(n)]
    kinds: list[str] = []
    while len(kinds) < count:
        part = list(template)
        rng.shuffle(part)
        kinds.extend(part)
    del kinds[count:]
    return kinds


def serving_stream(
    seed: int, label: str, count: int, zipf: Zipf, block: dict[str, int], reads: int
) -> list[tuple]:
    """One connection's transactions, as templates over node indices.

    ``("upd", k, w)`` set weight + read total; ``("read", k1..k_reads)``;
    ``("new", parent, w)`` create a leaf under ``parent`` and read it;
    ``("del", k)`` delete this connection's oldest acknowledged leaf (the
    load generator substitutes a read of ``k`` when it has none).
    """
    rng = random.Random(subseed(seed, label))
    kinds = _mixed(rng, count, block)
    keys = iter(zipf.sample(rng, reads * count))
    stream: list[tuple] = []
    for kind in kinds:
        if kind == "read":
            stream.append(("read", *itertools.islice(keys, reads)))
        elif kind == "del":
            stream.append(("del", next(keys)))
        else:
            stream.append((kind, next(keys), rng.randrange(1, 100)))
    return stream


def poisson_schedule(seed: int, label: str, rate: float, seconds: float) -> list[float]:
    """Due times (seconds from phase start) of an open loop at ``rate``/s."""
    rng = random.Random(subseed(seed, label))
    due, now = [], rng.expovariate(rate)
    while now < seconds:
        due.append(now)
        now += rng.expovariate(rate)
    return due


def wave_stream(seed: int, dag: Dag, count: int, depth: int, reads: int) -> list[tuple]:
    """``(target, new_work, (read, ...))``: one write ``depth`` layers from
    the end, then ``reads`` lookups on the last layer."""
    rng = random.Random(subseed(seed, "wave"))
    targets, last = dag.layer(-depth), dag.layer(-1)
    return [
        (
            rng.choice(targets),
            rng.randrange(1, 40),
            tuple(rng.choice(last) for __ in range(reads)),
        )
        for __ in range(count)
    ]


#: query kind -> text; ``{}`` takes the stream's literal.
QUERY_TEXT = {
    "eq": "select milestone where sched_compl == {}",
    "range": "select milestone where exp_compl > {} order by exp_compl desc limit 10",
    "extent": "select very_late_milestone",
    "scan": "select milestone where late and local_work > 10 limit 20",
}

# Ops per block of 200: half queries, half write transactions.  The
# unsargable scan is 1.5 % of all ops (the issue proposed 1 %): at 1 % the
# p99 sits on the boundary between scans and everything else and does not
# repeat; at 1.5 % it sits inside the scan population.
CHURN_BLOCK = {
    "eq": 44,
    "range": 40,
    "extent": 13,
    "scan": 3,
    "work": 60,
    "sched": 20,
    "new": 10,
    "del": 10,
}


def churn_stream(seed: int, dag: Dag, count: int) -> list[tuple]:
    """Queries interleaved with write transactions over the milestone DAG.

    ``("eq", K)``, ``("range", X)``, ``("extent",)``, ``("scan",)``,
    ``("work", node, value)``, ``("sched", node, value)``,
    ``("new", parent, work, sched)`` and ``("del", j)`` -- delete the
    ``j``-th leaf this stream created (generated only once it exists).
    """
    rng = random.Random(subseed(seed, "churn"))
    expected = milestone_expected(dag.local_work, dag.parents)
    top = max(expected)
    last = dag.layer(-1)
    created, deleted = 0, 0
    stream: list[tuple] = []
    for kind in _mixed(rng, count, CHURN_BLOCK):
        if kind == "del" and deleted == created:
            kind = "new"
        if kind == "eq":
            stream.append(("eq", dag.sched_compl[rng.randrange(len(expected))]))
        elif kind == "range":
            stream.append(("range", top - rng.randrange(1, 25)))
        elif kind in ("extent", "scan"):
            stream.append((kind,))
        elif kind == "work":
            node = rng.choice(dag.layer(-rng.randrange(2, 6)))
            stream.append(("work", node, rng.randrange(1, 40)))
        elif kind == "sched":
            node = rng.randrange(len(expected))
            stream.append(("sched", node, expected[node] + rng.randrange(-5, 21)))
        elif kind == "new":
            parent = rng.choice(last)
            stream.append(
                ("new", parent, rng.randrange(1, 10), expected[parent] + rng.randrange(0, 30))
            )
            created += 1
        else:
            stream.append(("del", deleted))
            deleted += 1
    return stream
