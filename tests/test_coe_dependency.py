"""Tests for the expert dependency graph."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coe.dependency import DependencyGraph


def maps(graph):
    """Copies of the graph's parent and children maps."""
    return (
        {node: set(parents) for node, parents in graph.parents_by_expert.items()},
        {node: set(children) for node, children in graph.children_by_expert.items()},
    )


def inverse(parents):
    """The children map that ``parents`` implies, over the same experts."""
    children = {node: set() for node in parents}
    for child, preliminaries in parents.items():
        for parent in preliminaries:
            children[parent].add(child)
    return children


@pytest.fixture
def graph():
    return DependencyGraph.from_pipelines(
        [
            ("cls0", "det0"),
            ("cls1", "det0"),
            ("cls2",),
            ("cls3", "det1"),
        ]
    )


class TestConstruction:
    def test_from_pipelines(self, graph):
        assert len(graph) == 6
        assert graph.preliminary_parents("det0") == ("cls0", "cls1")
        assert graph.preliminary_parents("det1") == ("cls3",)

    def test_children_index_is_the_inverse_of_the_parents(self, graph):
        parents, children = maps(graph)
        assert parents == {node: set(graph.preliminary_parents(node)) for node in graph}
        assert children == inverse(parents)
        assert children["cls1"] == {"det0"}
        assert children["det0"] == set()

    def test_add_expert_is_idempotent(self, graph):
        graph.add_expert("cls0")
        assert len(graph) == 6

    def test_self_dependency_rejected(self, graph):
        before = maps(graph)
        with pytest.raises(ValueError):
            graph.add_dependency("cls0", "cls0")
        assert maps(graph) == before

    def test_cycle_rejected(self, graph):
        before = maps(graph)
        with pytest.raises(ValueError):
            graph.add_dependency("det0", "cls0")
        # The failed edge must not remain in either map.
        assert not graph.is_subsequent("cls0")
        assert maps(graph) == before

    def test_empty_expert_id_rejected(self):
        with pytest.raises(ValueError):
            DependencyGraph().add_expert("")


class TestQueries:
    def test_preliminary_and_subsequent(self, graph):
        assert not graph.is_subsequent("cls0")
        assert graph.is_subsequent("det0")
        assert not graph.is_subsequent("cls2")

    def test_parents(self, graph):
        assert graph.preliminary_parents("det0") == ("cls0", "cls1")
        assert graph.preliminary_parents("cls0") == ()

    def test_unknown_expert_raises(self, graph):
        with pytest.raises(KeyError):
            graph.preliminary_parents("missing")
        with pytest.raises(KeyError):
            graph.is_subsequent("missing")

    def test_membership_and_iteration(self, graph):
        assert "det0" in graph
        assert "missing" not in graph
        assert list(graph) == sorted(graph.expert_ids)


@pytest.mark.parametrize(
    "edges, closing",
    [
        ([], ("a", "a")),
        ([("a", "b")], ("b", "a")),
        ([("a", "b"), ("b", "c")], ("c", "a")),
        ([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], ("d", "a")),
        ([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")], ("e", "b")),
    ],
    ids=["self-loop", "two-cycle", "three-cycle", "diamond", "chain-back-edge"],
)
def test_cycle_closing_edge_rejected_without_trace(edges, closing):
    graph = DependencyGraph()
    for preliminary, subsequent in edges:
        graph.add_dependency(preliminary, subsequent)
    nodes = sorted({node for edge in edges + [closing] for node in edge})
    for node in nodes:
        graph.add_expert(node)
    before = maps(graph)
    with pytest.raises(ValueError):
        graph.add_dependency(*closing)
    assert maps(graph) == before


@pytest.mark.parametrize(
    "edges",
    [
        [("a", "d"), ("b", "d"), ("c", "d")],
        [("a", "b"), ("a", "c"), ("a", "d")],
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        [("a", "b"), ("b", "c"), ("a", "c")],
        [("a", "b"), ("a", "b")],
    ],
    ids=["fan-in", "fan-out", "diamond", "shortcut", "repeated-edge"],
)
def test_acyclic_shapes_accepted(edges):
    graph = DependencyGraph()
    for preliminary, subsequent in edges:
        graph.add_dependency(preliminary, subsequent)
    nodes = sorted({node for edge in edges for node in edge})
    assert list(graph) == nodes
    for node in nodes:
        parents = tuple(sorted({parent for parent, child in edges if child == node}))
        assert graph.preliminary_parents(node) == parents
        assert graph.is_subsequent(node) == bool(parents)


NODES = [f"e{index}" for index in range(6)]


def _reaches(edges, source, target):
    """Brute-force reachability over a set of (parent, child) edges."""
    seen, frontier = set(), [source]
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        if node not in seen:
            seen.add(node)
            frontier.extend(child for parent, child in edges if parent == node)
    return False


@given(st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)), max_size=25))
@settings(max_examples=300, deadline=None)
def test_graph_matches_brute_force_reachability(edges):
    graph = DependencyGraph()
    for node in NODES:
        graph.add_expert(node)
    accepted = set()
    for preliminary, subsequent in edges:
        rejected = preliminary == subsequent or _reaches(accepted, subsequent, preliminary)
        before = maps(graph)
        if rejected:
            with pytest.raises(ValueError):
                graph.add_dependency(preliminary, subsequent)
            assert maps(graph) == before
            assert len(graph) == len(NODES)
        else:
            graph.add_dependency(preliminary, subsequent)
            accepted.add((preliminary, subsequent))
    for node in NODES:
        parents = tuple(sorted(parent for parent, child in accepted if child == node))
        assert graph.preliminary_parents(node) == parents
        assert graph.is_subsequent(node) == bool(parents)
        children = {child for parent, child in accepted if parent == node}
        assert graph.children_by_expert[node] == children
