"""Tests of the individual scoring functions (paper eqs. 1-4 and the
Yang-Leskovec extensions) on hand-computable graphs."""

import math

import pytest

from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.combined import (
    AverageOutDegreeFraction,
    Conductance,
    FlakeOutDegreeFraction,
    MaxOutDegreeFraction,
    NormalizedCut,
    Separability,
)
from repro.scoring.external import Expansion, RatioCut, ScaledRatioCut
from repro.scoring.internal import (
    AverageDegree,
    EdgesInside,
    FractionOverMedianDegree,
    InternalDensity,
    TriangleParticipationRatio,
)

from oracles.stats import compute_group_stats


def stats_for(graph, members, **kwargs):
    return compute_group_stats(graph, members, **kwargs)


class TestAverageDegree:
    def test_paper_formula(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        assert AverageDegree()(stats) == pytest.approx(2 * 6 / 4)

    def test_single_vertex_zero(self, triangle_graph):
        assert AverageDegree()(stats_for(triangle_graph, [1])) == 0.0

    def test_directed_counts_internal_edges_once(self):
        graph = DiGraph([(1, 2), (2, 1), (3, 1)])
        stats = stats_for(graph, [1, 2])
        assert AverageDegree()(stats) == pytest.approx(2 * 2 / 2)


class TestInternalDensity:
    def test_clique_is_one(self, two_cliques_graph):
        assert InternalDensity()(stats_for(two_cliques_graph, [0, 1, 2, 3])) == 1.0

    def test_single_vertex_zero(self, triangle_graph):
        assert InternalDensity()(stats_for(triangle_graph, [4])) == 0.0

    def test_directed_normalizes_by_ordered_pairs(self):
        graph = DiGraph([(1, 2), (2, 1), (1, 3)])
        stats = stats_for(graph, [1, 2])
        assert InternalDensity()(stats) == pytest.approx(1.0)


class TestEdgesInside:
    def test_counts_m_C(self, two_cliques_graph):
        assert EdgesInside()(stats_for(two_cliques_graph, [4, 5, 6, 7])) == 6.0


class TestFOMD:
    def test_with_precomputed_median(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3], graph_median_degree=3.0)
        # internal degrees are all 3, never strictly above the median 3
        assert FractionOverMedianDegree()(stats) == 0.0

    def test_lower_median(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3], graph_median_degree=2.0)
        assert FractionOverMedianDegree()(stats) == 1.0

    def test_missing_median_raises(self, triangle_graph):
        # GroupStats no longer carries a graph reference, so FOMD cannot
        # recover the graph-wide median on demand; it must be precomputed
        # (AnalysisContext.median_degree does this once per run).
        stats = stats_for(triangle_graph, [1, 2, 3])
        with pytest.raises(ValueError, match="graph_median_degree"):
            FractionOverMedianDegree()(stats)


class TestTPR:
    def test_triangle_members_participate(self, triangle_graph):
        stats = stats_for(triangle_graph, [1, 2, 3])
        assert TriangleParticipationRatio()(stats) == 1.0

    def test_pendant_does_not(self, triangle_graph):
        stats = stats_for(triangle_graph, [1, 2, 3, 4])
        assert TriangleParticipationRatio()(stats) == pytest.approx(3 / 4)

    def test_no_triangles(self):
        graph = Graph([(1, 2), (2, 3)])
        stats = stats_for(graph, [1, 2, 3])
        assert TriangleParticipationRatio()(stats) == 0.0

    def test_directed_uses_skeleton(self):
        graph = DiGraph([(1, 2), (2, 3), (3, 1)])
        stats = stats_for(graph, [1, 2, 3])
        assert TriangleParticipationRatio()(stats) == 1.0

    def test_triangle_outside_group_does_not_count(self, triangle_graph):
        stats = stats_for(triangle_graph, [1, 2, 4])
        assert TriangleParticipationRatio()(stats) == 0.0


class TestRatioCut:
    def test_paper_formula(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        assert RatioCut()(stats) == pytest.approx(1 / (4 * 4))

    def test_whole_graph_zero(self, triangle_graph):
        assert RatioCut()(stats_for(triangle_graph, [1, 2, 3, 4])) == 0.0

    def test_scaled_variant(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        assert ScaledRatioCut()(stats) == pytest.approx(8 * 1 / (4 * 4))

    def test_ordering_preserved_by_scaling(self, two_cliques_graph, triangle_graph):
        clique_stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        triangle_stats = stats_for(triangle_graph, [1, 2])
        plain = RatioCut()
        scaled = ScaledRatioCut()
        assert (plain(clique_stats) < plain(triangle_stats)) == (
            scaled(clique_stats) / 8 < scaled(triangle_stats) / 4
        )


class TestExpansion:
    def test_boundary_per_member(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        assert Expansion()(stats) == pytest.approx(1 / 4)


class TestConductance:
    def test_paper_formula(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        assert Conductance()(stats) == pytest.approx(1 / (2 * 6 + 1))

    def test_isolated_group_zero(self):
        graph = Graph([(1, 2)])
        graph.add_node(3)
        assert Conductance()(stats_for(graph, [3])) == 0.0

    def test_star_center_alone_is_one(self):
        star = Graph([(0, i) for i in range(1, 5)])
        assert Conductance()(stats_for(star, [0])) == 1.0

    def test_bounded_between_zero_and_one(self, small_circles_dataset):
        graph = small_circles_dataset.graph
        function = Conductance()
        for group in small_circles_dataset.groups:
            members = [v for v in group.members if v in graph]
            if not members:
                continue
            value = function(compute_group_stats(graph, members))
            assert 0.0 <= value <= 1.0


class TestNormalizedCut:
    def test_adds_complement_term(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        expected = 1 / (2 * 6 + 1) + 1 / (2 * (13 - 6) + 1)
        assert NormalizedCut()(stats) == pytest.approx(expected)

    def test_symmetric_for_balanced_split(self, two_cliques_graph):
        left = NormalizedCut()(stats_for(two_cliques_graph, [0, 1, 2, 3]))
        right = NormalizedCut()(stats_for(two_cliques_graph, [4, 5, 6, 7]))
        assert left == pytest.approx(right)


class TestODF:
    def test_max_odf(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        # vertex 3 has degree 4 with 1 edge leaving
        assert MaxOutDegreeFraction()(stats) == pytest.approx(1 / 4)

    def test_avg_odf(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        assert AverageOutDegreeFraction()(stats) == pytest.approx((0 + 0 + 0 + 0.25) / 4)

    def test_flake_odf(self, triangle_graph):
        # group {3, 4}: vertex 3 has internal 1 of degree 3 -> flake;
        # vertex 4 has internal 1 of degree 1 -> not flake.
        stats = stats_for(triangle_graph, [3, 4])
        assert FlakeOutDegreeFraction()(stats) == pytest.approx(0.5)

    def test_isolated_group_all_zero(self):
        graph = Graph([(1, 2)])
        graph.add_node(9)
        stats = stats_for(graph, [9])
        assert MaxOutDegreeFraction()(stats) == 0.0
        assert AverageOutDegreeFraction()(stats) == 0.0


class TestSeparability:
    def test_ratio(self, two_cliques_graph):
        stats = stats_for(two_cliques_graph, [0, 1, 2, 3])
        assert Separability()(stats) == pytest.approx(6.0)

    def test_no_boundary_with_edges_is_inf(self, triangle_graph):
        stats = stats_for(triangle_graph, [1, 2, 3, 4])
        assert math.isinf(Separability()(stats))

    def test_fully_isolated_zero(self):
        graph = Graph([(1, 2)])
        graph.add_node(5)
        assert Separability()(stats_for(graph, [5])) == 0.0
