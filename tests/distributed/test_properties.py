"""Property: an N-site federation computes what one site would.

Hypothesis generates small weighted DAGs with every node assigned to one
of three sites.  The same graph is built twice -- once in a single
database with ordinary connections, once scattered across a federation
where every cross-site edge becomes a mirror link -- and after
``sync_until_quiescent`` every node's derived total must agree, before
and after a round of weight updates.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.distributed import Federation
from repro.workloads import sum_node_schema

N_SITES = 3


@st.composite
def dag_spec(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=20), min_size=n, max_size=n
        )
    )
    sites = draw(
        st.lists(
            st.integers(min_value=0, max_value=N_SITES - 1),
            min_size=n,
            max_size=n,
        )
    )
    # Edges only run low index -> high index, so the graph is acyclic and
    # the federation never needs its cycle guard.
    edges = [
        (i, j)
        for j in range(1, n)
        for i in range(j)
        if draw(st.booleans())
    ]
    updates = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=3,
        )
    )
    return n, weights, sites, edges, updates


def single_site(spec):
    n, weights, __, edges, __ = spec
    db = Database(sum_node_schema(), pool_capacity=128)
    ids = [db.create("node", weight=w) for w in weights]
    for i, j in edges:
        db.connect(ids[j], "inputs", ids[i], "outputs")
    return db, ids


def federated(spec):
    n, weights, sites, edges, __ = spec
    fed = Federation()
    names = [f"S{k}" for k in range(N_SITES)]
    for name in names:
        fed.add_site(name, Database(sum_node_schema(), pool_capacity=128))
    nodes = [
        (names[site], fed.site(names[site]).create("node", weight=w))
        for site, w in zip(sites, weights)
    ]
    for i, j in edges:
        p_site, p_iid = nodes[i]
        c_site, c_iid = nodes[j]
        if p_site == c_site:
            fed.site(c_site).connect(c_iid, "inputs", p_iid, "outputs")
        else:
            fed.link(c_site, c_iid, "inputs", p_site, p_iid, "outputs")
    return fed, nodes


def totals_single(db, ids):
    return [db.get_attr(iid, "total") for iid in ids]


def totals_federated(fed, nodes):
    return [fed.site(site).get_attr(iid, "total") for site, iid in nodes]


def run_property(spec):
    db, ids = single_site(spec)
    fed, nodes = federated(spec)
    fed.sync_until_quiescent(max_passes=64)
    assert totals_federated(fed, nodes) == totals_single(db, ids)

    for slot, value in spec[4]:
        db.set_attr(ids[slot], "weight", value)
        site, iid = nodes[slot]
        fed.site(site).set_attr(iid, "weight", value)
    fed.sync_until_quiescent(max_passes=64)
    assert totals_federated(fed, nodes) == totals_single(db, ids)


@settings(max_examples=25, deadline=None)
@given(spec=dag_spec())
def test_federation_matches_single_site(spec):
    run_property(spec)


def test_known_shape_matches_in_both_modes():
    """A deterministic anchor case, independent of hypothesis shrinking."""
    spec = (
        5,
        [1, 2, 3, 4, 5],
        [0, 1, 2, 0, 1],
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)],
        [(0, 9), (3, 0)],
    )
    run_property(spec)
