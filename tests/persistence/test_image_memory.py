"""Memory guard: checkpoint and reopen stream the image a record at a time.

Neither writing a checkpoint nor loading one may hold the whole database as
a second, JSON-shaped copy.  The guard compares ``tracemalloc`` peaks at
1 000 and 10 000 instances: a streamed image pays for one record at a time,
so ten times the instances must cost less than twice the transient memory.
Each database is loaded in one transaction, so its undo history holds a
single delta of thousands of records.
"""

import gc
import tracemalloc

import pytest

from repro.core.database import Database
from repro.workloads import link, sum_node_schema

SCHEMA = sum_node_schema()


def _loaded(directory, n):
    """A durable chain of ``n`` nodes created and linked in one transaction."""
    db = Database.open(str(directory), SCHEMA, sync=False)
    with db.transaction("load", batch=True):
        nodes = [db.create("node", weight=i % 7) for i in range(n)]
        for upstream, downstream in zip(nodes, nodes[1:]):
            link(db, upstream, downstream)
    db.get_attr(nodes[n // 2], "total")  # half the chain evaluated, half marked
    return db


def _traced(action):
    """(peak, final) traced bytes allocated while ``action`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        result = action()
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, final


@pytest.fixture(scope="module")
def transients(tmp_path_factory):
    """n -> (checkpoint peak, reopen peak minus its final size, reopened db)."""
    out = {}
    for n in (1_000, 10_000):
        directory = tmp_path_factory.mktemp(f"db{n}")
        db = _loaded(directory, n)
        __, checkpoint_peak, __ = _traced(db.checkpoint)
        db.close()
        del db
        reopened, peak, final = _traced(
            lambda: Database.open(str(directory), SCHEMA, sync=False)
        )
        assert len(reopened) == n and len(reopened.txn.history) == 1
        out[n] = (checkpoint_peak, peak - final, reopened)
    return out


def test_checkpoint_peak_does_not_grow_with_the_database(transients):
    assert transients[10_000][0] < 2 * transients[1_000][0]


def test_reopen_transient_does_not_grow_with_the_database(transients):
    assert transients[10_000][1] < 2 * transients[1_000][1]


def test_restored_names_are_the_schema_strings(transients):
    db = transients[1_000][2]
    resolved = SCHEMA.resolved("node")
    own = {name: name for name in [*resolved.attributes, *resolved.ports]}
    instance = db.instance(2)
    names = [name for name in instance.attrs if name in resolved.attributes]
    names += list(instance.connections)
    names += [c.peer_port for conns in instance.connections.values() for c in conns]
    assert sorted(names) == ["inputs", "inputs", "outputs", "outputs", "total", "weight"]
    assert all(name is own[name] for name in names)
    assert instance.class_name is next(k for k in SCHEMA.classes if k == "node")
