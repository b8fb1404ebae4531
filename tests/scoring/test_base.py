"""Group-statistics invariants — unit cases plus hypothesis properties.

The cases check the per-group oracle sweep
(:func:`oracles.stats.compute_group_stats`), which
``tests/engine/test_batch_stats.py`` holds the production pass to.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EmptyGroupError, NodeNotFound
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

from oracles.stats import compute_group_stats


class TestUndirectedStats:
    def test_triangle_subset(self, triangle_graph):
        stats = compute_group_stats(triangle_graph, [1, 2, 3])
        assert stats.n == 4
        assert stats.m == 4
        assert stats.n_C == 3
        assert stats.m_C == 3
        assert stats.c_C == 1

    def test_boundary_matches_edge_boundary(self, two_cliques_graph):
        members = [0, 1, 2, 3]
        stats = compute_group_stats(two_cliques_graph, members)
        assert stats.c_C == len(two_cliques_graph.edge_boundary(members))
        assert stats.m_C == 6

    def test_member_degree_arrays(self, triangle_graph):
        stats = compute_group_stats(triangle_graph, [3, 4])
        degrees = dict(zip(stats.members, stats.member_degrees))
        internal = dict(zip(stats.members, stats.member_internal_degrees))
        assert degrees == {3: 3, 4: 1}
        assert internal == {3: 1, 4: 1}
        assert stats.member_boundary_degrees.sum() == stats.c_C

    def test_internal_degree_sum_is_twice_m_C(self, two_cliques_graph):
        stats = compute_group_stats(two_cliques_graph, [0, 1, 2, 3, 4])
        assert stats.internal_degree_sum == 2 * stats.m_C

    def test_duplicated_members_deduplicated(self, triangle_graph):
        stats = compute_group_stats(triangle_graph, [1, 1, 2, 2])
        assert stats.n_C == 2

    def test_empty_group_raises(self, triangle_graph):
        with pytest.raises(EmptyGroupError):
            compute_group_stats(triangle_graph, [])

    def test_missing_member_raises(self, triangle_graph):
        with pytest.raises(NodeNotFound):
            compute_group_stats(triangle_graph, [1, 999])

    def test_whole_graph_has_no_boundary(self, triangle_graph):
        stats = compute_group_stats(triangle_graph, [1, 2, 3, 4])
        assert stats.c_C == 0
        assert stats.m_C == triangle_graph.number_of_edges()

    def test_possible_internal_edges(self, triangle_graph):
        stats = compute_group_stats(triangle_graph, [1, 2, 3])
        assert stats.possible_internal_edges == 3


class TestDirectedStats:
    def test_directed_counts(self, small_digraph):
        stats = compute_group_stats(small_digraph, ["a", "b"])
        assert stats.m_C == 2  # a->b and b->a
        assert stats.c_C == 1  # b->c
        assert stats.directed

    def test_boundary_counts_both_directions(self):
        graph = DiGraph([(1, 2), (3, 1), (1, 4), (5, 1)])
        stats = compute_group_stats(graph, [1, 2])
        assert stats.m_C == 1
        assert stats.c_C == 3

    def test_in_out_arrays(self, small_digraph):
        stats = compute_group_stats(small_digraph, ["b"])
        assert stats.member_in_degrees[0] == 1
        assert stats.member_out_degrees[0] == 2
        assert stats.member_degrees[0] == 3

    def test_internal_degree_sum_is_twice_m_C(self, small_digraph):
        stats = compute_group_stats(small_digraph, ["a", "b", "c"])
        assert stats.internal_degree_sum == 2 * stats.m_C

    def test_possible_internal_edges_directed(self, small_digraph):
        stats = compute_group_stats(small_digraph, ["a", "b", "c"])
        assert stats.possible_internal_edges == 6


@st.composite
def graph_and_group(draw):
    """A random undirected graph plus a random non-empty vertex subset."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=40,
        )
    )
    graph = Graph()
    graph.add_nodes_from(range(n))
    for u, v in edges:
        if u != v:
            graph.add_edge(u, v)
    members = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1,
            max_size=n,
            unique=True,
        )
    )
    return graph, members


class TestProperties:
    @given(graph_and_group())
    @settings(max_examples=60, deadline=None)
    def test_invariants_match_networkx(self, data):
        graph, members = data
        stats = compute_group_stats(graph, members)
        oracle = nx.Graph()
        oracle.add_nodes_from(graph.nodes)
        oracle.add_edges_from(graph.edges)
        member_set = set(members)
        expected_internal = oracle.subgraph(member_set).number_of_edges()
        expected_boundary = len(list(nx.edge_boundary(oracle, member_set)))
        assert stats.m_C == expected_internal
        assert stats.c_C == expected_boundary
        # Conservation: every endpoint of a member is internal or boundary.
        assert stats.degree_sum == 2 * stats.m_C + stats.c_C
        assert stats.internal_degree_sum == 2 * stats.m_C
        assert 0 <= stats.m_C <= stats.possible_internal_edges

    @given(graph_and_group())
    @settings(max_examples=30, deadline=None)
    def test_directed_conservation(self, data):
        graph, members = data
        directed = DiGraph()
        directed.add_nodes_from(graph.nodes)
        for u, v in graph.edges:
            directed.add_edge(u, v)
            directed.add_edge(v, u)
        stats = compute_group_stats(directed, members)
        undirected_stats = compute_group_stats(graph, members)
        # Full symmetrization doubles every count.
        assert stats.m_C == 2 * undirected_stats.m_C
        assert stats.c_C == 2 * undirected_stats.c_C
        assert stats.degree_sum == 2 * stats.m_C + stats.c_C


@pytest.mark.parametrize("directed", [False, True])
def test_value_objects_hold_no_live_graph(directed):
    """A GroupStatsBatch is a frozen snapshot: it keeps no reference to
    the graph it was computed from, even once its member labels are
    built."""
    from repro.engine import AnalysisContext, batch_group_stats_columns

    graph = (DiGraph if directed else Graph)(
        [(f"v{i}", f"v{(i * 7 + 3) % 20}") for i in range(20)]
        + [(f"v{i}", f"v{(i + 1) % 20}") for i in range(20)]
    )
    groups = [[f"v{i}" for i in range(start, start + 5)] for start in (0, 5, 12)]
    batch = batch_group_stats_columns(
        AnalysisContext(graph), groups, include_internal_adjacency=True
    )
    batch.members  # noqa: B018 - fills the cached member labels
    held = [
        name
        for name, field in vars(batch).items()
        if isinstance(field, (Graph, DiGraph))
    ]
    assert held == []
