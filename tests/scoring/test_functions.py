"""Tests of the individual scoring functions (paper eqs. 1-4 and the
Yang-Leskovec extensions) on hand-computable graphs.

Each value goes through the production path: the columnar stats pass,
then the function's ``score_batch``."""

import math

import pytest

from repro.engine import AnalysisContext, batch_group_stats_columns
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


def batch_for(graph, members, *, graph_median_degree=None):
    """A one-group batch with every optional column TPR and FOMD read."""
    return batch_group_stats_columns(
        AnalysisContext(graph),
        [members],
        graph_median_degree=graph_median_degree,
        include_internal_adjacency=True,
    )


def score(function, batch):
    """The batch's one score under ``function``."""
    (value,) = function.score_batch(batch).tolist()
    return value


class TestAverageDegree:
    def test_paper_formula(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        assert score(AverageDegree(), batch) == pytest.approx(2 * 6 / 4)

    def test_single_vertex_zero(self, triangle_graph):
        assert score(AverageDegree(), batch_for(triangle_graph, [1])) == 0.0

    def test_directed_counts_internal_edges_once(self):
        graph = DiGraph([(1, 2), (2, 1), (3, 1)])
        batch = batch_for(graph, [1, 2])
        assert score(AverageDegree(), batch) == pytest.approx(2 * 2 / 2)


class TestInternalDensity:
    def test_clique_is_one(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        assert score(InternalDensity(), batch) == 1.0

    def test_single_vertex_zero(self, triangle_graph):
        assert score(InternalDensity(), batch_for(triangle_graph, [4])) == 0.0

    def test_directed_normalizes_by_ordered_pairs(self):
        graph = DiGraph([(1, 2), (2, 1), (1, 3)])
        batch = batch_for(graph, [1, 2])
        assert score(InternalDensity(), batch) == pytest.approx(1.0)


class TestEdgesInside:
    def test_counts_m_C(self, two_cliques_graph):
        assert score(EdgesInside(), batch_for(two_cliques_graph, [4, 5, 6, 7])) == 6.0


class TestFOMD:
    def test_with_precomputed_median(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3], graph_median_degree=3.0)
        # internal degrees are all 3, never strictly above the median 3
        assert score(FractionOverMedianDegree(), batch) == 0.0

    def test_lower_median(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3], graph_median_degree=2.0)
        assert score(FractionOverMedianDegree(), batch) == 1.0

    def test_missing_median_raises(self, triangle_graph):
        # A batch carries no graph reference, so FOMD cannot recover the
        # graph-wide median on demand; it must be precomputed
        # (AnalysisContext.median_degree does this once per run).
        batch = batch_for(triangle_graph, [1, 2, 3])
        with pytest.raises(ValueError, match="graph_median_degree"):
            score(FractionOverMedianDegree(), batch)


class TestTPR:
    def test_triangle_members_participate(self, triangle_graph):
        batch = batch_for(triangle_graph, [1, 2, 3])
        assert score(TriangleParticipationRatio(), batch) == 1.0

    def test_pendant_does_not(self, triangle_graph):
        batch = batch_for(triangle_graph, [1, 2, 3, 4])
        assert score(TriangleParticipationRatio(), batch) == pytest.approx(3 / 4)

    def test_no_triangles(self):
        graph = Graph([(1, 2), (2, 3)])
        batch = batch_for(graph, [1, 2, 3])
        assert score(TriangleParticipationRatio(), batch) == 0.0

    def test_directed_uses_skeleton(self):
        graph = DiGraph([(1, 2), (2, 3), (3, 1)])
        batch = batch_for(graph, [1, 2, 3])
        assert score(TriangleParticipationRatio(), batch) == 1.0

    def test_triangle_outside_group_does_not_count(self, triangle_graph):
        batch = batch_for(triangle_graph, [1, 2, 4])
        assert score(TriangleParticipationRatio(), batch) == 0.0


class TestRatioCut:
    def test_paper_formula(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        assert score(RatioCut(), batch) == pytest.approx(1 / (4 * 4))

    def test_whole_graph_zero(self, triangle_graph):
        assert score(RatioCut(), batch_for(triangle_graph, [1, 2, 3, 4])) == 0.0

    def test_scaled_variant(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        assert score(ScaledRatioCut(), batch) == pytest.approx(8 * 1 / (4 * 4))

    def test_ordering_preserved_by_scaling(self, two_cliques_graph, triangle_graph):
        clique_batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        triangle_batch = batch_for(triangle_graph, [1, 2])
        plain = RatioCut()
        scaled = ScaledRatioCut()
        assert (
            score(plain, clique_batch) < score(plain, triangle_batch)
        ) == (
            score(scaled, clique_batch) / 8 < score(scaled, triangle_batch) / 4
        )


class TestExpansion:
    def test_boundary_per_member(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        assert score(Expansion(), batch) == pytest.approx(1 / 4)


class TestConductance:
    def test_paper_formula(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        assert score(Conductance(), batch) == pytest.approx(1 / (2 * 6 + 1))

    def test_isolated_group_zero(self):
        graph = Graph([(1, 2)])
        graph.add_node(3)
        assert score(Conductance(), batch_for(graph, [3])) == 0.0

    def test_star_center_alone_is_one(self):
        star = Graph([(0, i) for i in range(1, 5)])
        assert score(Conductance(), batch_for(star, [0])) == 1.0

    def test_bounded_between_zero_and_one(self, small_circles_dataset):
        graph = small_circles_dataset.graph
        member_lists = [
            [v for v in group.members if v in graph]
            for group in small_circles_dataset.groups
        ]
        batch = batch_group_stats_columns(
            AnalysisContext(graph), [m for m in member_lists if m]
        )
        values = Conductance().score_batch(batch)
        assert len(values) > 0
        assert ((0.0 <= values) & (values <= 1.0)).all()


class TestNormalizedCut:
    def test_adds_complement_term(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        expected = 1 / (2 * 6 + 1) + 1 / (2 * (13 - 6) + 1)
        assert score(NormalizedCut(), batch) == pytest.approx(expected)

    def test_symmetric_for_balanced_split(self, two_cliques_graph):
        left = score(NormalizedCut(), batch_for(two_cliques_graph, [0, 1, 2, 3]))
        right = score(NormalizedCut(), batch_for(two_cliques_graph, [4, 5, 6, 7]))
        assert left == pytest.approx(right)


class TestODF:
    def test_max_odf(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        # vertex 3 has degree 4 with 1 edge leaving
        assert score(MaxOutDegreeFraction(), batch) == pytest.approx(1 / 4)

    def test_avg_odf(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        expected = (0 + 0 + 0 + 0.25) / 4
        assert score(AverageOutDegreeFraction(), batch) == pytest.approx(expected)

    def test_flake_odf(self, triangle_graph):
        # group {3, 4}: vertex 3 has internal 1 of degree 3 -> flake;
        # vertex 4 has internal 1 of degree 1 -> not flake.
        batch = batch_for(triangle_graph, [3, 4])
        assert score(FlakeOutDegreeFraction(), batch) == pytest.approx(0.5)

    def test_isolated_group_all_zero(self):
        graph = Graph([(1, 2)])
        graph.add_node(9)
        batch = batch_for(graph, [9])
        assert score(MaxOutDegreeFraction(), batch) == 0.0
        assert score(AverageOutDegreeFraction(), batch) == 0.0


class TestSeparability:
    def test_ratio(self, two_cliques_graph):
        batch = batch_for(two_cliques_graph, [0, 1, 2, 3])
        assert score(Separability(), batch) == pytest.approx(6.0)

    def test_no_boundary_with_edges_is_inf(self, triangle_graph):
        batch = batch_for(triangle_graph, [1, 2, 3, 4])
        assert math.isinf(score(Separability(), batch))

    def test_fully_isolated_zero(self):
        graph = Graph([(1, 2)])
        graph.add_node(5)
        assert score(Separability(), batch_for(graph, [5])) == 0.0
