"""Parallel execution is byte-identical to serial execution.

The whole value of :mod:`repro.engine.parallel` rests on one claim: a
``--jobs N`` run produces the *same bytes* as the serial run — same
score columns, same sampled sets, same order.  These tests pin that
claim for scoring and sampling, exercise the shard-edge geometry
(empty batch, one group, more shards than groups), and verify that a
dying worker surfaces as a clean :class:`~repro.exceptions.ParallelError`
rather than a raw ``BrokenProcessPool``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.data.groups import GroupSet, VertexGroup
from repro.engine import (
    AnalysisContext,
    ParallelExecutor,
    resolve_jobs,
    sample_matched_sets,
)
from repro.engine.parallel import shard_ranges
from repro.exceptions import ParallelError
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.registry import make_paper_functions, score_groups


def scrambled_graph(directed, n=60, m=240, seed=13):
    """Insertion-scrambled graph so vertex-id and label order disagree."""
    rng = random.Random(seed)
    graph = (DiGraph if directed else Graph)()
    order = list(range(n))
    rng.shuffle(order)
    for i in order:
        graph.add_node(f"v{i:03d}")
    labels = [f"v{i:03d}" for i in range(n)]
    while graph.number_of_edges() < m:
        u, v = rng.sample(labels, 2)
        graph.add_edge(u, v)
    return graph


def some_groups(graph, count=13, seed=3):
    rng = random.Random(seed)
    labels = sorted(graph.nodes)
    return GroupSet(
        groups=[
            VertexGroup(
                name=f"g{i:02d}",
                members=frozenset(rng.sample(labels, rng.randint(3, 12))),
            )
            for i in range(count)
        ]
    )


def assert_tables_identical(left, right):
    assert left.group_names == right.group_names
    assert left.group_sizes == right.group_sizes
    assert left.function_names() == right.function_names()
    for name in left.function_names():
        assert left.scores(name).tobytes() == right.scores(name).tobytes()


# -- shard geometry -----------------------------------------------------------


class TestShardRanges:
    def test_empty_input_yields_no_shards(self):
        assert shard_ranges(0, 8) == []

    def test_single_item_single_shard(self):
        assert shard_ranges(1, 8) == [range(0, 1)]

    def test_more_shards_than_items_clamps(self):
        ranges = shard_ranges(3, 16)
        assert ranges == [range(0, 1), range(1, 2), range(2, 3)]

    def test_balanced_contiguous_cover(self):
        ranges = shard_ranges(10, 4)
        assert [len(r) for r in ranges] == [3, 3, 2, 2]
        flat = [i for r in ranges for i in r]
        assert flat == list(range(10))


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_variable_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


# -- byte-identity ------------------------------------------------------------


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("jobs", [2, 4])
def test_parallel_scoring_matches_serial_bytes(directed, jobs):
    graph = scrambled_graph(directed)
    groups = some_groups(graph)
    context = AnalysisContext(graph)
    serial = score_groups(context, groups)
    parallel = score_groups(context, groups, jobs=jobs)
    assert_tables_identical(serial, parallel)


@pytest.mark.parametrize("sampler", ["random_walk", "bfs_ball", "uniform"])
def test_parallel_sampling_replays_serial_seed_for_seed(sampler):
    context = AnalysisContext(scrambled_graph(directed=True))
    sizes = [3, 7, 1, 12, 5, 9, 4]
    serial = sample_matched_sets(context, sizes, sampler, seed=0)
    parallel = sample_matched_sets(context, sizes, sampler, seed=0, jobs=4)
    assert serial == parallel


def test_walk_counters_match_serial_under_jobs():
    """Worker metrics are off; the parent adds up each chunk's totals."""
    from repro import obs
    from repro.obs import instruments

    # Sparse enough that some walks dead-end and restart.
    context = AnalysisContext(scrambled_graph(directed=False, m=70))
    sizes = [3, 7, 1, 12, 5, 9, 4, 30, 45]
    counts = {}
    for jobs in (1, 2):
        obs.REGISTRY.reset()
        obs.enable_metrics()
        try:
            sample_matched_sets(
                context, sizes, "random_walk", seed=3, jobs=jobs
            )
        finally:
            obs.disable()
        counts[jobs] = (
            instruments.WALK_STEPS.value(),
            instruments.WALK_RESTARTS.value(),
        )
    obs.REGISTRY.reset()
    steps, restarts = counts[1]
    assert steps > 0 and restarts > 0
    assert counts[2] == counts[1]


def test_more_groups_than_workers_covered():
    graph = scrambled_graph(directed=False)
    groups = some_groups(graph, count=21)
    context = AnalysisContext(graph)
    assert_tables_identical(
        score_groups(context, groups), score_groups(context, groups, jobs=2)
    )


def test_single_group_batch():
    graph = scrambled_graph(directed=False)
    groups = some_groups(graph, count=1)
    context = AnalysisContext(graph)
    assert_tables_identical(
        score_groups(context, groups), score_groups(context, groups, jobs=4)
    )


def test_empty_batch_returns_empty_without_spawning():
    context = AnalysisContext(scrambled_graph(directed=False))
    with ParallelExecutor(context, jobs=4) as executor:
        sizes, rows = executor.score_groups(
            [],
            make_paper_functions(),
            graph_median_degree=None,
            include_internal_adjacency=False,
        )
        assert sizes == [] and rows.shape == (0, 4)
        assert executor.sample_ids("uniform", [], []) == []
        # No work was dispatched, so no pool was ever created.
        assert executor._pool is None


# -- failure surface ----------------------------------------------------------


class _Kaboom:
    """A 'scoring function' that kills its worker process outright."""

    name = "kaboom"

    def __call__(self, stats):
        os._exit(13)


def test_worker_crash_surfaces_as_parallel_error():
    graph = scrambled_graph(directed=False, n=20, m=60)
    context = AnalysisContext(graph)
    ids = [context.vertex_ids(sorted(graph.nodes)[:5])]
    with ParallelExecutor(context, jobs=2) as executor:
        with pytest.raises(ParallelError, match="--jobs 1"):
            executor.score_groups(
                ids,
                [_Kaboom()],
                graph_median_degree=None,
                include_internal_adjacency=False,
            )


def test_executor_close_is_idempotent():
    context = AnalysisContext(scrambled_graph(directed=False, n=20, m=60))
    executor = ParallelExecutor(context, jobs=2)
    ids = [context.vertex_ids(sorted(context.graph.nodes)[:4])]
    sizes, rows = executor.score_groups(
        ids,
        make_paper_functions(),
        graph_median_degree=None,
        include_internal_adjacency=False,
    )
    assert sizes == [4] and len(rows) == 1
    executor.close()
    executor.close()


def test_inactive_executor_never_exports():
    context = AnalysisContext(scrambled_graph(directed=False, n=20, m=60))
    executor = ParallelExecutor(context, jobs=1)
    assert not executor.active
    executor.close()


def test_forest_fire_falls_back_to_serial():
    # forest_fire has no id-level kernel; jobs must not change its draws.
    context = AnalysisContext(scrambled_graph(directed=True))
    sizes = [4, 8, 3]
    serial = sample_matched_sets(context, sizes, "forest_fire", seed=7)
    parallel = sample_matched_sets(
        context, sizes, "forest_fire", seed=7, jobs=4
    )
    assert serial == parallel


def test_sampled_modularity_scores_serially_but_identically():
    """Sampled-Modularity carries a null ensemble (non-scalar state): the
    registry must refuse to ship it to workers and still match serial."""
    from repro.engine.cache import function_tokens
    from repro.scoring.modularity import NullModelEnsemble

    graph = scrambled_graph(directed=False, n=30, m=90)
    groups = some_groups(graph, count=4)
    context = AnalysisContext(graph)
    ensemble = NullModelEnsemble(graph, samples=2, seed=11)
    functions = make_paper_functions(
        modularity_expectation="sampled", ensemble=ensemble
    )
    assert function_tokens(functions) is None
    assert_tables_identical(
        score_groups(context, groups, functions),
        score_groups(context, groups, functions, jobs=2),
    )


def test_null_ensemble_parallel_generation_matches_serial():
    from repro.scoring.modularity import NullModelEnsemble

    graph = scrambled_graph(directed=False, n=30, m=90)
    members = frozenset(sorted(graph.nodes)[:8])
    serial = NullModelEnsemble(graph, samples=3, seed=5)
    parallel = NullModelEnsemble(graph, samples=3, seed=5, jobs=2)
    assert serial.expected_internal_edges(
        members
    ) == parallel.expected_internal_edges(members)
