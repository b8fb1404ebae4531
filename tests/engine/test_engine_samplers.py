"""CSR-native samplers replay the legacy label-level samplers exactly.

The Fig. 5 acceptance bar is seed-for-seed identical output: the engine
samplers must consume randomness exactly like their legacy counterparts
so that every published number survives the substrate swap unchanged.
The insertion order of the test graphs is deliberately scrambled so
vertex-id order and label order disagree — the case that distinguishes
"same distribution" from "same draw".  Contexts opened from on-disk
stores are replayed too: their arrays are memmaps, and an identity
labelling takes the sampler path that never sorts by label rank.
"""

import random

import numpy as np
import pytest

from repro.engine import (
    ENGINE_SAMPLERS,
    AnalysisContext,
    ParallelExecutor,
    bfs_ball_set,
    forest_fire_set,
    random_walk_set,
    sample_matched_sets,
    uniform_vertex_set,
)
from repro.exceptions import SamplingError
from repro.graph.csr import IdentityNodes
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

from oracles import random_sets as legacy
from oracles.random_walk import random_walk_set as legacy_random_walk


def scrambled_graph(directed, n=40, m=150, seed=13):
    rng = random.Random(seed)
    graph = (DiGraph if directed else Graph)()
    order = list(range(n))
    rng.shuffle(order)  # id order != label order
    for i in order:
        graph.add_node(f"v{i:03d}")
    labels = [f"v{i:03d}" for i in range(n)]
    while graph.number_of_edges() < m:
        u, v = rng.sample(labels, 2)
        graph.add_edge(u, v)
    return graph


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", [0, 7])
class TestLegacyReplay:
    def test_random_walk(self, directed, seed):
        graph = scrambled_graph(directed)
        context = AnalysisContext(graph)
        for size in (1, 6, 25):
            assert random_walk_set(
                context, size, seed=seed
            ) == legacy_random_walk(graph, size, seed=seed)

    def test_bfs_ball(self, directed, seed):
        graph = scrambled_graph(directed)
        context = AnalysisContext(graph)
        for size in (1, 6, 25):
            assert bfs_ball_set(context, size, seed=seed) == legacy.bfs_ball_set(
                graph, size, seed=seed
            )

    def test_forest_fire(self, directed, seed):
        graph = scrambled_graph(directed)
        context = AnalysisContext(graph)
        for size in (1, 6, 25):
            assert forest_fire_set(
                context, size, seed=seed
            ) == legacy.forest_fire_set(graph, size, seed=seed)

    def test_uniform(self, directed, seed):
        graph = scrambled_graph(directed)
        context = AnalysisContext(graph)
        for size in (1, 6, 40):
            assert uniform_vertex_set(
                context, size, seed=seed
            ) == legacy.uniform_vertex_set(graph, size, seed=seed)

    @pytest.mark.parametrize(
        "sampler", ["random_walk", "bfs_ball", "uniform", "forest_fire"]
    )
    def test_matched_sets(self, directed, seed, sampler):
        graph = scrambled_graph(directed)
        context = AnalysisContext(graph)
        assert sample_matched_sets(
            context, [3, 9, 14], sampler, seed=seed
        ) == legacy.sample_matched_sets(graph, [3, 9, 14], sampler, seed=seed)


def identity_graph(directed, n=40, m=90, seed=13):
    """Int labels 0..n-1 inserted in order: a store saves no node list."""
    rng = random.Random(seed)
    graph = (DiGraph if directed else Graph)()
    graph.add_nodes_from(range(n))
    while graph.number_of_edges() < m:
        u, v = rng.sample(range(n), 2)
        graph.add_edge(u, v)
    return graph


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize(
    "build, identity",
    [(identity_graph, True), (scrambled_graph, False)],
    ids=["identity", "shuffled-strings"],
)
def test_opened_store_replays_legacy(tmp_path, directed, build, identity):
    graph = build(directed)
    AnalysisContext(graph).save(tmp_path / "store")
    opened = AnalysisContext.open(tmp_path / "store")
    assert isinstance(opened.csr.indices, np.memmap)
    assert isinstance(opened.csr.nodes, IdentityNodes) is identity
    sizes = [1, 6, 25, 12]
    with ParallelExecutor(opened, jobs=2) as executor:
        for seed in (0, 7):
            for size in sizes:
                assert random_walk_set(
                    opened, size, seed=seed
                ) == legacy_random_walk(graph, size, seed=seed)
                assert bfs_ball_set(
                    opened, size, seed=seed
                ) == legacy.bfs_ball_set(graph, size, seed=seed)
            for sampler in (
                "random_walk",
                "bfs_ball",
                "uniform",
                "forest_fire",
            ):
                assert sample_matched_sets(
                    opened, sizes, sampler, seed=seed, executor=executor
                ) == legacy.sample_matched_sets(
                    graph, sizes, sampler, seed=seed
                )


@pytest.mark.parametrize("seed", range(5))
def test_step_budget_error_matches_legacy(seed):
    graph = Graph()
    graph.add_nodes_from(range(10))
    graph.add_edge(0, 1)
    context = AnalysisContext(graph)
    with pytest.raises(SamplingError) as legacy_error:
        legacy_random_walk(graph, 10, seed=seed, max_steps_factor=1)
    with pytest.raises(SamplingError) as engine_error:
        random_walk_set(context, 10, seed=seed, max_steps_factor=1)
    assert str(engine_error.value) == str(legacy_error.value)
    if seed == 0:
        assert str(engine_error.value) == (
            "random walk exhausted 10 steps collecting 8/10 vertices"
        )


class TestSamplerContracts:
    def test_members_are_labels(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        sample = uniform_vertex_set(context, 2, seed=0)
        assert sample <= set(triangle_graph.nodes)

    def test_exact_size(self, two_cliques_graph):
        context = AnalysisContext(two_cliques_graph)
        for size in (1, 4, 8):
            assert len(random_walk_set(context, size, seed=1)) == size
            assert len(bfs_ball_set(context, size, seed=1)) == size
            assert len(uniform_vertex_set(context, size, seed=1)) == size

    def test_oversized_request_raises(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        with pytest.raises(SamplingError):
            random_walk_set(context, 99, seed=0)

    def test_nonpositive_size_raises(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        with pytest.raises(ValueError):
            uniform_vertex_set(context, 0, seed=0)

    def test_unknown_sampler_raises(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        with pytest.raises(KeyError, match="unknown sampler"):
            sample_matched_sets(context, [2], "metropolis", seed=0)

    def test_registry_names(self):
        assert set(ENGINE_SAMPLERS) == {
            "uniform",
            "bfs_ball",
            "forest_fire",
            "random_walk",
        }

    def test_restart_covers_disconnected_graph(self):
        graph = Graph([(1, 2), (3, 4), (5, 6)])
        context = AnalysisContext(graph)
        assert len(random_walk_set(context, 5, seed=0)) == 5
        assert len(bfs_ball_set(context, 5, seed=0)) == 5
