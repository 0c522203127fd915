"""Unit tests for the dependency graph."""

from repro.graph.depgraph import could_change
from tests.references import DependencyGraph

A, B, C, D = (1, "a"), (1, "b"), (2, "c"), (2, "d")


class TestEdges:
    def test_add_and_query(self):
        g = DependencyGraph()
        assert g.add_edge(A, B)
        assert g.has_edge(A, B)
        assert g.dependents(A) == [B]
        assert g.dependencies(B) == [A]
        assert len(g) == 1

    def test_duplicate_add_is_noop(self):
        g = DependencyGraph()
        assert g.add_edge(A, B)
        assert not g.add_edge(A, B)
        assert len(g) == 1

    def test_remove_edge(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        assert g.remove_edge(A, B)
        assert not g.has_edge(A, B)
        assert len(g) == 0
        assert g.dependents(A) == []

    def test_remove_missing_edge_is_noop(self):
        g = DependencyGraph()
        assert not g.remove_edge(A, B)

    def test_remove_slot_drops_both_directions(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(B, C)
        g.remove_slot(B)
        assert len(g) == 0
        assert g.dependents(A) == []
        assert g.dependencies(C) == []

    def test_degrees(self):
        g = DependencyGraph()
        g.add_edge(A, C)
        g.add_edge(B, C)
        g.add_edge(C, D)
        assert g.in_degree(C) == 2
        assert g.out_degree(C) == 1
        assert g.in_degree(A) == 0

    def test_insertion_order_preserved(self):
        g = DependencyGraph()
        g.add_edge(A, D)
        g.add_edge(A, B)
        g.add_edge(A, C)
        assert g.dependents(A) == [D, B, C]

    def test_slots_enumeration(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(B, C)
        assert set(g.slots()) == {A, B, C}


class TestIteratorViews:
    def test_iter_dependents_matches_list_view(self):
        g = DependencyGraph()
        g.add_edge(A, D)
        g.add_edge(A, B)
        g.add_edge(A, C)
        assert list(g.iter_dependents(A)) == g.dependents(A)
        assert list(g.iter_dependencies(B)) == g.dependencies(B)

    def test_iter_views_empty_for_unknown_slot(self):
        g = DependencyGraph()
        assert list(g.iter_dependents(A)) == []
        assert list(g.iter_dependencies(A)) == []

    def test_iter_view_is_live_not_a_copy(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        view = g.iter_dependents(A)
        g.add_edge(A, C)
        assert list(view) == [B, C]

    def test_empty_view_shared_and_not_polluted(self):
        g = DependencyGraph()
        empty = g.iter_dependents(A)
        g.add_edge(A, B)
        # A fresh lookup sees the edge; the old empty view stays empty.
        assert list(g.iter_dependents(A)) == [B]
        assert list(empty) == []


class TestCouldChange:
    def test_linear_chain(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(B, C)
        g.add_edge(C, D)
        region, edges = could_change(g, [A])
        assert region == {A, B, C, D}
        assert edges == 3

    def test_diamond_counts_internal_edges(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(A, C)
        g.add_edge(B, D)
        g.add_edge(C, D)
        region, edges = could_change(g, [A])
        assert region == {A, B, C, D}
        assert edges == 4

    def test_unreachable_excluded(self):
        g = DependencyGraph()
        g.add_edge(A, B)
        g.add_edge(C, D)
        region, __ = could_change(g, [A])
        assert region == {A, B}

    def test_seed_only(self):
        g = DependencyGraph()
        region, edges = could_change(g, [A])
        assert region == {A}
        assert edges == 0
