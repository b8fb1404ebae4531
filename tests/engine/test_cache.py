"""The on-disk result cache returns exactly what it would recompute.

A cache is only safe if a hit is indistinguishable from a recomputation
and *anything* that could change the answer changes the key: the graph
(CSR fingerprint), the functions' configuration, the group memberships,
the sampler and seed.  These tests pin the keying rules, the warm-run
"zero kernel invocations" guarantee, corrupt-entry recovery, and the
``--no-cache`` / unseeded bypasses.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.data.groups import GroupSet, VertexGroup
from repro.engine import AnalysisContext, ResultCache, sample_matched_sets
from repro.engine.cache import function_tokens
from repro.graph.ugraph import Graph
from repro.obs import instruments
from repro.scoring.registry import make_paper_functions, score_groups


def build_graph(extra_edge=False, n=40, m=150, seed=13):
    rng = random.Random(seed)
    graph = Graph()
    for i in range(n):
        graph.add_node(f"v{i:03d}")
    labels = [f"v{i:03d}" for i in range(n)]
    while graph.number_of_edges() < m:
        u, v = rng.sample(labels, 2)
        graph.add_edge(u, v)
    if extra_edge:
        pairs = (
            (u, v)
            for u in labels
            for v in labels
            if u < v and not graph.has_edge(u, v)
        )
        graph.add_edge(*next(pairs))
    return graph


def build_groups(graph, count=7, seed=3):
    rng = random.Random(seed)
    labels = sorted(graph.nodes)
    return GroupSet(
        groups=[
            VertexGroup(
                name=f"g{i:02d}",
                members=frozenset(rng.sample(labels, rng.randint(3, 10))),
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


@pytest.fixture(autouse=True)
def enabled_obs():
    """Counters only record while observability is on ("off means free")."""
    from repro import obs

    obs.REGISTRY.reset()
    obs.enable(name="test-cache")
    yield
    obs.disable()
    obs.REGISTRY.reset()


def totals():
    return (
        instruments.CACHE_HITS.total(),
        instruments.CACHE_MISSES.total(),
        instruments.CACHE_EVICTIONS.total(),
    )


# -- resolve ------------------------------------------------------------------


class TestResolve:
    def test_false_disables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert ResultCache.resolve(False) is None

    def test_none_without_env_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert ResultCache.resolve(None) is None

    def test_none_with_env_opens_there(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        cache = ResultCache.resolve(None)
        assert cache is not None and cache.root == tmp_path / "store"

    def test_instance_passes_through(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert ResultCache.resolve(cache) is cache

    def test_path_opens_cache(self, tmp_path):
        cache = ResultCache.resolve(tmp_path / "c")
        assert isinstance(cache, ResultCache)
        assert (tmp_path / "c").is_dir()


# -- score_groups caching -----------------------------------------------------


def test_warm_run_hits_with_zero_kernel_invocations(tmp_path):
    graph = build_graph()
    groups = build_groups(graph)
    context = AnalysisContext(graph)
    cache = ResultCache(tmp_path)
    cold = score_groups(context, groups, cache=cache)
    hits0, misses0, _ = totals()
    kernels0 = instruments.KERNEL_SELECTED.total()
    warm = score_groups(context, groups, cache=cache)
    hits1, misses1, _ = totals()
    assert_tables_identical(cold, warm)
    assert hits1 == hits0 + 1
    assert misses1 == misses0
    # The whole point: a warm run never enters the batch kernels.
    assert instruments.KERNEL_SELECTED.total() == kernels0


def test_group_membership_change_misses(tmp_path):
    graph = build_graph()
    context = AnalysisContext(graph)
    cache = ResultCache(tmp_path)
    score_groups(context, build_groups(graph, seed=3), cache=cache)
    hits0, misses0, _ = totals()
    score_groups(context, build_groups(graph, seed=4), cache=cache)
    hits1, misses1, _ = totals()
    assert hits1 == hits0
    assert misses1 == misses0 + 1


def test_function_config_change_misses(tmp_path):
    from repro.scoring.internal import (
        AverageDegree,
        FractionOverMedianDegree,
    )

    graph = build_graph()
    groups = build_groups(graph)
    context = AnalysisContext(graph)
    cache = ResultCache(tmp_path)
    score_groups(context, groups, [AverageDegree()], cache=cache)
    hits0, misses0, _ = totals()
    score_groups(
        context, groups, [FractionOverMedianDegree()], cache=cache
    )
    hits1, misses1, _ = totals()
    assert hits1 == hits0
    assert misses1 == misses0 + 1


def test_graph_change_invalidates_fingerprint(tmp_path):
    groups_seed = 3
    cache = ResultCache(tmp_path)
    graph = build_graph()
    score_groups(
        AnalysisContext(graph), build_groups(graph, seed=groups_seed), cache=cache
    )
    hits0, misses0, _ = totals()
    changed = build_graph(extra_edge=True)
    score_groups(
        AnalysisContext(changed),
        build_groups(changed, seed=groups_seed),
        cache=cache,
    )
    hits1, misses1, _ = totals()
    assert hits1 == hits0
    assert misses1 == misses0 + 1


def test_corrupt_entry_evicted_and_recomputed(tmp_path):
    graph = build_graph()
    groups = build_groups(graph)
    context = AnalysisContext(graph)
    cache = ResultCache(tmp_path)
    cold = score_groups(context, groups, cache=cache)
    (entry,) = list(tmp_path.glob("*.npz"))
    entry.write_bytes(b"not a zip archive at all")
    _, _, evictions0 = totals()
    recovered = score_groups(context, groups, cache=cache)
    _, _, evictions1 = totals()
    assert_tables_identical(cold, recovered)
    assert evictions1 == evictions0 + 1
    # The recomputation restored a servable entry.
    hits0, _, _ = totals()
    score_groups(context, groups, cache=cache)
    assert totals()[0] == hits0 + 1


def test_no_cache_bypasses_even_with_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    graph = build_graph()
    groups = build_groups(graph)
    context = AnalysisContext(graph)
    score_groups(context, groups, cache=False)
    assert list(tmp_path.glob("*.npz")) == []


def test_unsafe_functions_never_cached(tmp_path):
    from repro.scoring.modularity import NullModelEnsemble

    graph = build_graph()
    groups = build_groups(graph)
    context = AnalysisContext(graph)
    ensemble = NullModelEnsemble(graph, samples=2, seed=11)
    functions = make_paper_functions(
        modularity_expectation="sampled", ensemble=ensemble
    )
    assert function_tokens(functions) is None
    score_groups(context, groups, functions, cache=ResultCache(tmp_path))
    assert list(tmp_path.glob("*.npz")) == []


# -- matched-set caching ------------------------------------------------------


def test_seeded_sampling_hits_and_replays(tmp_path):
    context = AnalysisContext(build_graph())
    cache = ResultCache(tmp_path)
    sizes = [3, 6, 2, 9]
    cold = sample_matched_sets(
        context, sizes, "random_walk", seed=0, cache=cache
    )
    hits0, _, _ = totals()
    warm = sample_matched_sets(
        context, sizes, "random_walk", seed=0, cache=cache
    )
    assert warm == cold
    assert totals()[0] == hits0 + 1


def test_sampler_and_seed_key_the_draw(tmp_path):
    context = AnalysisContext(build_graph())
    cache = ResultCache(tmp_path)
    sizes = [3, 6, 2]
    sample_matched_sets(context, sizes, "random_walk", seed=0, cache=cache)
    hits0, _, _ = totals()
    other_seed = sample_matched_sets(
        context, sizes, "random_walk", seed=1, cache=cache
    )
    other_sampler = sample_matched_sets(
        context, sizes, "bfs_ball", seed=0, cache=cache
    )
    assert totals()[0] == hits0  # both were misses
    assert other_seed != other_sampler


def test_unseeded_sampling_never_cached(tmp_path):
    context = AnalysisContext(build_graph())
    cache = ResultCache(tmp_path)
    sample_matched_sets(context, [3, 5], "uniform", cache=cache)
    assert list(tmp_path.glob("*.npz")) == []


# -- token rules --------------------------------------------------------------


def test_scalar_state_tokenizes():
    tokens = function_tokens(make_paper_functions())
    assert tokens is not None
    assert [token["name"] for token in tokens] == [
        function.name for function in make_paper_functions()
    ]


def test_store_roundtrip_preserves_bytes(tmp_path):
    cache = ResultCache(tmp_path)
    columns = {
        "a": np.array([1.0, float("nan"), -0.0]),
        "b": np.array([0.5, 2.0, 3.5]),
    }
    cache.store_score_table("k", ["x", "y", "z"], [1, 2, 3], columns)
    names, sizes, loaded = cache.load_score_table("k")
    assert names == ["x", "y", "z"] and sizes == [1, 2, 3]
    for name in columns:
        assert loaded[name].tobytes() == columns[name].tobytes()


def test_empty_id_sets_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store_id_sets("k", [])
    assert cache.load_id_sets("k") == []


# -- interrupted writes -------------------------------------------------------


def test_failed_replace_leaves_no_scratch_file(tmp_path, monkeypatch):
    """A full or read-only cache dir skips the entry and leaves no file."""

    def refuse(src, dst):
        raise OSError("no space left on device")

    cache = ResultCache(tmp_path)
    monkeypatch.setattr("repro.engine.cache.os.replace", refuse)
    cache.store_score_table("k", ["x"], [1], {"a": np.array([0.5])})
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []
    assert cache.load_score_table("k") is None


def test_interrupted_write_leaves_no_scratch_file(tmp_path, monkeypatch):
    """An interrupt mid-write propagates and removes the partial file."""

    def interrupted_savez(handle, **arrays):
        handle.write(b"PK\x03\x04 partial archive")
        raise KeyboardInterrupt

    cache = ResultCache(tmp_path)
    monkeypatch.setattr("repro.engine.cache.np.savez", interrupted_savez)
    with pytest.raises(KeyboardInterrupt):
        cache.store_score_table("k2", ["x"], [1], {"a": np.array([0.5])})
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []
    assert cache.load_score_table("k2") is None
