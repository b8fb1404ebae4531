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

import numpy as np
import pytest

from repro.data.groups import GroupSet, VertexGroup
from repro.engine import (
    AnalysisContext,
    GroupIds,
    ParallelExecutor,
    resolve_jobs,
    sample_matched_ids,
    sample_matched_sets,
)
from repro.engine.parallel import _worker_context, shard_ranges
from repro.exceptions import ParallelError, SamplingError
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

    @pytest.mark.parametrize("jobs", [2.5, 2.0, "3"])
    def test_non_integer_count_is_a_type_error(self, jobs):
        # Not truncated to 2 workers, nor parsed as 3.
        with pytest.raises(TypeError):
            resolve_jobs(jobs)

    def test_numpy_integer_count_passes(self):
        assert resolve_jobs(np.int64(3)) == 3
        assert resolve_jobs(np.int32(2)) == 2


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


@pytest.mark.parametrize(
    "sampler", ["random_walk", "bfs_ball", "uniform", "forest_fire"]
)
def test_parallel_sampling_replays_serial_seed_for_seed(sampler):
    context = AnalysisContext(scrambled_graph(directed=True))
    sizes = [3, 7, 1, 12, 5, 9, 4]
    serial = sample_matched_sets(context, sizes, sampler, seed=0)
    parallel = sample_matched_sets(context, sizes, sampler, seed=0, jobs=4)
    assert serial == parallel


def _walk_counts(call):
    """Run ``call`` with metrics on: (error text or None, steps, restarts)."""
    from repro import obs
    from repro.obs import instruments

    obs.REGISTRY.reset()
    obs.enable_metrics()
    error = None
    try:
        call()
    except SamplingError as exc:
        error = str(exc)
    finally:
        obs.disable()
    counts = (
        error,
        instruments.WALK_STEPS.value(),
        instruments.WALK_RESTARTS.value(),
    )
    obs.REGISTRY.reset()
    return counts


def test_walk_counters_match_serial_under_jobs():
    """Worker metrics are off; the parent adds up each chunk's totals.

    A failing batch counts the replicates before the first failure, as
    the serial loop does: every chunk before the failing one, plus that
    chunk's replicates before it (chunks after it are not counted).
    """
    # Sparse enough that some walks dead-end and restart.
    context = AnalysisContext(scrambled_graph(directed=False, m=70))
    # Lockstep-sized chunks, failing inside the second of two.
    rng = random.Random(8)
    failing = [rng.randint(1, 40) for _ in range(320)]
    failing[200] = context.num_vertices + 1
    for sizes in ([3, 7, 1, 12, 5, 9, 4, 30, 45], failing):
        counts = {
            jobs: _walk_counts(
                lambda: sample_matched_sets(
                    context, sizes, "random_walk", seed=3, jobs=jobs
                )
            )
            for jobs in (1, 2)
        }
        error, steps, restarts = counts[1]
        assert steps > 0 and restarts > 0
        assert counts[2] == counts[1]
        assert (error is not None) == (sizes is failing)
    # Exactly replicates 0..199, whichever process drew them.
    assert counts[1][1:] == _walk_counts(
        lambda: sample_matched_sets(context, failing[:200], "random_walk", seed=3)
    )[1:]


def test_parallel_draw_hands_out_views_of_one_array():
    """Each sampling chunk returns one flat array, not one per replicate."""
    context = AnalysisContext(scrambled_graph(directed=True))
    drawn = sample_matched_ids(
        context, [3, 7, 1, 12, 5, 9, 4], "random_walk", seed=0, jobs=2
    )
    assert all(np.shares_memory(ids, drawn[0].base) for ids in drawn)


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
            GroupIds.from_arrays([], n=context.num_vertices),
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
    ids = GroupIds.from_labels(context, [sorted(graph.nodes)[:5]])
    with ParallelExecutor(context, jobs=2) as executor:
        with pytest.raises(ParallelError, match="--jobs 1"):
            executor.score_groups(
                ids,
                [_Kaboom()],
                graph_median_degree=None,
                include_internal_adjacency=False,
            )


def _probe_worker_writes() -> tuple[list[str], list[str]]:
    """Write one element of each shared array of the worker's context.

    Returns every probed array name and the names that took the write.
    """
    context = _worker_context()
    arrays = {"degree_array": context.degree_array}
    for orientation, csr in (
        ("union", context.csr),
        ("out", context.csr_out),
        ("in", context.csr_in),
    ):
        if csr is not None:
            arrays[f"{orientation}.indptr"] = csr.indptr
            arrays[f"{orientation}.indices"] = csr.indices
    writable = []
    for name, array in arrays.items():
        try:
            array[0] = array[0]
        except ValueError:
            continue
        writable.append(name)
    return sorted(arrays), writable


@pytest.mark.parametrize("source", ["in_memory", "opened_store"])
def test_workers_cannot_write_the_shared_context(source, tmp_path):
    """Shared-memory and file-backed exports both attach read-only."""
    context = AnalysisContext(scrambled_graph(directed=True))
    if source == "opened_store":
        context = AnalysisContext.open(context.save(tmp_path / "store"))
    with ParallelExecutor(context, jobs=2) as executor:
        pool = executor._ensure_pool()
        kind = executor._shared.spec["degree"]["kind"]
        probed, writable = pool.submit(_probe_worker_writes).result()
    assert kind == ("shm" if source == "in_memory" else "file")
    assert probed == [
        "degree_array",
        "in.indices",
        "in.indptr",
        "out.indices",
        "out.indptr",
        "union.indices",
        "union.indptr",
    ]
    assert writable == []


def test_executor_close_is_idempotent():
    context = AnalysisContext(scrambled_graph(directed=False, n=20, m=60))
    executor = ParallelExecutor(context, jobs=2)
    ids = GroupIds.from_labels(context, [sorted(context.graph.nodes)[:4]])
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
