"""Edge-case and failure-injection tests across subsystems.

Systematically exercises the unhappy paths: degenerate graphs, boundary
sample sizes, adversarial fit inputs, and rollback behaviour of the
connectivity-preserving shuffle.
"""

import numpy as np
import pytest

from repro.algorithms.shortest_paths import average_shortest_path, diameter
from repro.algorithms.triangles import average_clustering
from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.experiment import circles_vs_random
from repro.data.groups import Circle, GroupSet
from repro.exceptions import FitError, SamplingError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.nullmodel.viger_latapy import viger_latapy_graph
from repro.powerlaw.fitting import fit_tail, scan_xmin
from repro.scoring.registry import score_groups

from oracles.random_walk import random_walk_set
from oracles.stats import compute_group_stats


class TestDegenerateGraphs:
    def test_single_edge_graph_everything_works(self):
        graph = Graph([(1, 2)])
        assert diameter(graph) == 1
        assert average_shortest_path(graph) == 1.0
        assert average_clustering(graph) == 0.0
        stats = compute_group_stats(graph, [1])
        assert stats.c_C == 1

    def test_star_graph_metrics(self):
        star = Graph([(0, i) for i in range(1, 12)])
        assert diameter(star) == 2
        assert average_clustering(star) == 0.0
        center = compute_group_stats(star, [0])
        assert center.c_C == 11
        assert center.m_C == 0

    def test_two_isolated_nodes(self):
        graph = Graph()
        graph.add_nodes_from([1, 2])
        assert diameter(graph) == 0
        csr = CSRGraph(graph)
        assert csr.num_half_edges == 0

    def test_directed_cycle_statistics(self):
        cycle = DiGraph([(i, (i + 1) % 6) for i in range(6)])
        stats = compute_group_stats(cycle, list(range(6)))
        assert stats.m_C == 6
        assert stats.c_C == 0
        assert stats.degree_sum == 12


class TestSamplerBoundaries:
    def test_walk_size_equals_graph(self):
        graph = Graph([(i, i + 1) for i in range(9)])
        sample = random_walk_set(graph, 10, seed=0)
        assert sample == set(graph.nodes)

    def test_walk_on_single_node(self):
        graph = Graph()
        graph.add_node("only")
        assert random_walk_set(graph, 1, seed=0) == {"only"}

    def test_walk_exhaustion_raises_cleanly(self):
        graph = Graph()
        graph.add_nodes_from(range(3))
        # Fully disconnected: walk must restart every step but still finish.
        sample = random_walk_set(graph, 3, seed=0)
        assert sample == {0, 1, 2}

    def test_empty_graph_walk_rejected(self):
        with pytest.raises(SamplingError):
            random_walk_set(Graph(), 1)


class TestFittingBoundaries:
    def test_scan_rejects_constant_sample(self):
        with pytest.raises(FitError):
            scan_xmin(np.ones(100))  # single unique value leaves no scan room

    def test_fit_tail_with_explicit_tiny_xmin(self):
        rng = np.random.default_rng(0)
        sample = rng.zipf(2.5, size=500)
        fit = fit_tail(sample, xmin=1)
        assert fit.xmin == 1
        assert fit.n_tail == 500

    def test_all_mass_below_one_filtered(self):
        with pytest.raises(FitError):
            fit_tail(np.zeros(50))

    def test_negative_values_ignored(self):
        rng = np.random.default_rng(1)
        sample = np.concatenate([rng.zipf(2.5, size=400), -np.ones(100)])
        fit = fit_tail(sample, xmin=1)
        assert fit.n_tail == 400


class TestVigerLatapyRollback:
    def test_tiny_window_still_connected(self):
        degrees = [2] * 12 + [3, 3]
        graph = viger_latapy_graph(degrees, seed=0, window=2, shuffle_factor=3.0)
        from repro.algorithms.traversal import is_connected

        assert is_connected(graph)
        assert sorted(graph.degree[v] for v in graph) == sorted(degrees)

    def test_zero_shuffle_factor(self):
        degrees = [2] * 10
        graph = viger_latapy_graph(degrees, seed=1, shuffle_factor=0.0)
        assert sorted(graph.degree[v] for v in graph) == degrees


class TestExperimentBoundaries:
    def test_all_groups_too_small_gives_empty_result(self, triangle_graph):
        groups = GroupSet(
            groups=[Circle(name="tiny", members=frozenset({1}), owner=None)]
        )
        result = circles_vs_random((triangle_graph, groups), seed=0)
        assert len(result.circle_scores) == 0
        assert len(result.random_scores) == 0

    def test_score_groups_empty_groupset(self, triangle_graph):
        table = score_groups(triangle_graph, GroupSet())
        assert len(table) == 0
        assert table.summary() == {
            name: {"mean": 0.0, "median": 0.0, "min": 0.0, "max": 0.0}
            for name in table.function_names()
        }

    def test_cdf_pair_on_empty_result(self, triangle_graph):
        groups = GroupSet(
            groups=[Circle(name="tiny", members=frozenset({1}), owner=None)]
        )
        result = circles_vs_random((triangle_graph, groups), seed=0)
        circles, randoms = result.cdf_pair("conductance")
        assert len(circles) == 0
        assert len(randoms) == 0

    def test_whole_graph_group_scores(self, triangle_graph):
        groups = GroupSet(
            groups=[Circle(name="all", members=frozenset({1, 2, 3, 4}), owner=None)]
        )
        table = score_groups(triangle_graph, groups)
        assert table.scores("ratio_cut")[0] == 0.0
        assert table.scores("conductance")[0] == 0.0


class TestEmpiricalCdfBoundaries:
    def test_single_value(self):
        cdf = EmpiricalCDF([3.5])
        assert cdf(3.5) == 1.0
        assert cdf(3.4) == 0.0
        assert cdf.quantile(0.5) == 3.5

    def test_all_infinite_sample(self):
        cdf = EmpiricalCDF([float("inf")] * 5)
        assert len(cdf) == 0
