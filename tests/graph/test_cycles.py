"""Unit tests for cycle detection and topological ordering."""

import pytest

from repro.errors import CycleError
from repro.graph.cycles import find_cycle, graph_has_cycle
from tests.references import DependencyGraph, topological_order

A, B, C, D, E = (1, "a"), (1, "b"), (2, "c"), (2, "d"), (3, "e")


def deps_of(graph):
    return graph.dependencies


class TestFindCycle:
    def test_acyclic_returns_none(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(B, C)
        assert find_cycle([C], deps_of(g)) is None

    def test_self_loop(self):
        g = DependencyGraph()
        g.add_edge(A, A)
        cycle = find_cycle([A], deps_of(g))
        assert cycle == [A]

    def test_two_cycle(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(B, A)
        cycle = find_cycle([A], deps_of(g))
        assert cycle is not None and set(cycle) == {A, B}

    def test_long_cycle_found_from_outside(self):
        g = DependencyGraph()
        g.add_edge(A, B)  # A -> B means B depends... dependencies(B)=[A]
        g.add_edge(B, C)
        g.add_edge(C, A)
        g.add_edge(C, D)  # D hangs off the cycle
        cycle = find_cycle([D], deps_of(g))
        assert cycle is not None and set(cycle) == {A, B, C}

    def test_graph_has_cycle_wrapper(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        assert graph_has_cycle(g) is None
        g.add_edge(B, A)
        assert graph_has_cycle(g) is not None

    def test_diamond_is_not_a_cycle(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(A, C)
        g.add_edge(B, D)
        g.add_edge(C, D)
        assert find_cycle([D], deps_of(g)) is None


class TestTopologicalOrder:
    def test_dependencies_come_first(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(B, C)
        g.add_edge(A, C)
        order = topological_order([C], deps_of(g))
        assert order.index(A) < order.index(B) < order.index(C)

    def test_raises_on_cycle(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(B, A)
        with pytest.raises(CycleError):
            topological_order([A], deps_of(g))

    def test_multiple_seeds_deduplicated(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(A, C)
        order = topological_order([B, C], deps_of(g))
        assert order.count(A) == 1
        assert set(order) == {A, B, C}

    def test_deep_chain_no_recursion_error(self):
        g = DependencyGraph()
        slots = [(i, "x") for i in range(5000)]
        for a, b in zip(slots, slots[1:]):
            g.add_edge(a, b)
        order = topological_order([slots[-1]], deps_of(g))
        assert order[0] == slots[0] and order[-1] == slots[-1]
