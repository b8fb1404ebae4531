"""Cross-cutting hypothesis property tests.

These complement the per-module suites with randomized invariants that
exercise several subsystems together: samplers against arbitrary graphs,
degree-preserving rewiring, scoring-function bounds, and CDF laws.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import EmpiricalCDF
from repro.analysis.stats import ks_two_sample, mann_whitney_u
from repro.engine import AnalysisContext, batch_group_stats_columns
from repro.graph.ugraph import Graph
from repro.nullmodel.configuration import configuration_model
from repro.nullmodel.degree_sequence import is_graphical
from repro.nullmodel.rewiring import double_edge_swap
from repro.scoring.registry import make_all_functions

from oracles.random_sets import bfs_ball_set, forest_fire_set, uniform_vertex_set
from oracles.random_walk import random_walk_set


@st.composite
def connected_graph(draw):
    """A small connected graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_value=2, max_value=25))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((parent, v))
    extra = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=30,
        )
    )
    graph = Graph(edges)
    for u, v in extra:
        if u != v:
            graph.add_edge(u, v)
    return graph


class TestSamplerProperties:
    @given(connected_graph(), st.integers(min_value=1, max_value=10), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_random_walk_size_and_membership(self, graph, size, seed):
        size = min(size, graph.number_of_nodes())
        sample = random_walk_set(graph, size, seed=seed)
        assert len(sample) == size
        assert all(node in graph for node in sample)

    @given(connected_graph(), st.integers(min_value=1, max_value=10), st.integers())
    @settings(max_examples=30, deadline=None)
    def test_all_samplers_agree_on_contract(self, graph, size, seed):
        size = min(size, graph.number_of_nodes())
        for sampler in (uniform_vertex_set, bfs_ball_set, forest_fire_set):
            sample = sampler(graph, size, seed=seed)
            assert len(sample) == size
            assert all(node in graph for node in sample)


class TestRewiringProperties:
    @given(connected_graph(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_double_edge_swap_preserves_degrees(self, graph, seed):
        before = sorted(graph.degree.values())
        edges_before = graph.number_of_edges()
        double_edge_swap(graph, 20, seed=seed)
        assert sorted(graph.degree.values()) == before
        assert graph.number_of_edges() == edges_before
        listed = list(graph.edges)
        assert len({frozenset(e) for e in listed}) == len(listed)
        assert all(u != v for u, v in listed)


class TestConfigurationModelProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=16),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_degrees_whenever_graphical(self, degrees, seed):
        if not is_graphical(degrees):
            return
        graph = configuration_model(degrees, seed=seed)
        assert sorted(graph.degree[v] for v in graph) == sorted(degrees)


class TestScoringBounds:
    @given(connected_graph(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_all_functions_respect_bounds(self, graph, data):
        members = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=graph.number_of_nodes() - 1),
                min_size=1,
                max_size=graph.number_of_nodes(),
                unique=True,
            )
        )
        # FOMD needs the graph-wide median up front: a batch carries no
        # graph reference, so the median cannot be derived on demand.
        context = AnalysisContext(graph)
        batch = batch_group_stats_columns(
            context,
            [members],
            graph_median_degree=context.median_degree,
            include_internal_adjacency=True,
        )
        for function in make_all_functions():
            (value,) = function.score_batch(batch).tolist()
            assert not np.isnan(value), function.name
            if function.name in (
                "conductance",
                "internal_density",
                "fomd",
                "tpr",
                "max_odf",
                "avg_odf",
                "flake_odf",
            ):
                assert 0.0 <= value <= 1.0, function.name
            if function.name in ("average_degree", "expansion", "edges_inside",
                                 "ratio_cut", "scaled_ratio_cut"):
                assert value >= 0.0, function.name
            if function.name == "normalized_cut":
                assert 0.0 <= value <= 2.0


class TestCdfLaws:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6), min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_cdf_is_monotone_and_normalized(self, values):
        cdf = EmpiricalCDF(values)
        sorted_values = sorted(values)
        assert cdf(sorted_values[-1]) == 1.0
        assert cdf(sorted_values[0] - 1.0) == 0.0
        probes = np.linspace(sorted_values[0], sorted_values[-1], 10)
        results = [cdf(float(p)) for p in probes]
        assert all(a <= b + 1e-12 for a, b in zip(results, results[1:]))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-100, max_value=100),
                    min_size=3, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_sample_vs_itself_is_never_significant(self, values):
        result = ks_two_sample(values, values)
        assert result.statistic == 0.0
        assert result.p_value > 0.9

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-100, max_value=100),
                    min_size=3, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_mann_whitney_self_effect_is_half(self, values):
        result = mann_whitney_u(values, values)
        assert result.statistic == pytest.approx(0.5)
