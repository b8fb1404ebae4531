"""Vertex-set sampler tests (random walk + ablation samplers)."""

import random

import pytest

from repro.exceptions import SamplingError
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

from oracles.random_sets import (
    SAMPLERS,
    bfs_ball_set,
    forest_fire_set,
    sample_matched_sets,
    uniform_vertex_set,
)
from oracles.random_walk import matched_random_sets, random_walk_set


def _grid_graph(side: int = 8) -> Graph:
    graph = Graph()
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                graph.add_edge((i, j), (i + 1, j))
            if j + 1 < side:
                graph.add_edge((i, j), (i, j + 1))
    return graph


class TestRandomWalk:
    def test_exact_size(self):
        graph = _grid_graph()
        sample = random_walk_set(graph, 10, seed=0)
        assert len(sample) == 10
        assert all(node in graph for node in sample)

    def test_reproducible(self):
        graph = _grid_graph()
        assert random_walk_set(graph, 12, seed=5) == random_walk_set(
            graph, 12, seed=5
        )

    def test_connectedness_tendency(self):
        # A walk-grown set in a connected graph should contain at least
        # some adjacent pairs (unlike uniform sampling of a large graph).
        graph = _grid_graph(10)
        sample = random_walk_set(graph, 15, seed=1)
        adjacent_pairs = sum(
            1
            for u in sample
            for v in graph.neighbors(u)
            if v in sample
        )
        assert adjacent_pairs > 0

    def test_directed_walk_ignores_direction(self):
        graph = DiGraph([(i, i + 1) for i in range(20)])
        sample = random_walk_set(graph, 10, seed=2)
        assert len(sample) == 10

    def test_restarts_cross_components(self):
        graph = Graph([(1, 2), (2, 3), (10, 11), (11, 12)])
        sample = random_walk_set(graph, 5, seed=3)
        assert len(sample) == 5

    def test_size_larger_than_graph_raises(self, triangle_graph):
        with pytest.raises(SamplingError):
            random_walk_set(triangle_graph, 10)

    def test_non_positive_size_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            random_walk_set(triangle_graph, 0)

    def test_matched_sets_sizes(self):
        graph = _grid_graph()
        sets = matched_random_sets(graph, [3, 7, 5], seed=0)
        assert [len(s) for s in sets] == [3, 7, 5]

    def test_accepts_random_instance(self):
        graph = _grid_graph()
        rng = random.Random(0)
        sample = random_walk_set(graph, 5, seed=rng)
        assert len(sample) == 5


class TestAblationSamplers:
    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_exact_size(self, name):
        graph = _grid_graph()
        sample = SAMPLERS[name](graph, 12, seed=0)
        assert len(sample) == 12

    def test_uniform_is_spread_out(self):
        graph = _grid_graph(10)
        sample = uniform_vertex_set(graph, 10, seed=0)
        assert len(sample) == 10

    def test_bfs_ball_is_connected(self):
        graph = _grid_graph(10)
        sample = bfs_ball_set(graph, 12, seed=1)
        sub = graph.subgraph(sample)
        from repro.algorithms.traversal import is_connected

        assert is_connected(sub)

    def test_forest_fire_probability_validation(self, triangle_graph):
        with pytest.raises(ValueError):
            forest_fire_set(triangle_graph, 2, burn_probability=0.0)
        with pytest.raises(ValueError):
            forest_fire_set(triangle_graph, 2, burn_probability=1.5)

    def test_forest_fire_full_burn_equals_bfs_size(self):
        graph = _grid_graph()
        sample = forest_fire_set(graph, 9, seed=2, burn_probability=1.0)
        assert len(sample) == 9

    def test_oversized_request_raises(self, triangle_graph):
        with pytest.raises(SamplingError):
            uniform_vertex_set(triangle_graph, 99)

    def test_sample_matched_sets_dispatch(self):
        graph = _grid_graph()
        for name in ("random_walk", "uniform", "bfs_ball", "forest_fire"):
            sets = sample_matched_sets(graph, [4, 6], name, seed=0)
            assert [len(s) for s in sets] == [4, 6]

    def test_unknown_sampler_rejected(self, triangle_graph):
        with pytest.raises(KeyError, match="random_walk"):
            sample_matched_sets(triangle_graph, [2], "bogus")
