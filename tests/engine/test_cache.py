"""The on-disk result cache returns exactly what it would recompute.

A cache is only safe if a hit is indistinguishable from a recomputation
and *anything* that could change the answer changes the key: the graph
(CSR fingerprint), the functions' configuration, the group memberships,
the sampler and seed.  These tests pin the keying rules, the warm-run
"zero kernel invocations" guarantee, corrupt-entry recovery, and the
``--no-cache`` / unseeded bypasses.
"""

from __future__ import annotations

import json
import random
import zlib

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
    (entry,) = list(tmp_path.iterdir())
    entry.write_bytes(b"not a cache entry at all")
    _, _, evictions0 = totals()
    recovered = score_groups(context, groups, cache=cache)
    _, _, evictions1 = totals()
    assert_tables_identical(cold, recovered)
    assert evictions1 == evictions0 + 1
    # The recomputation restored a servable entry.
    hits0, _, _ = totals()
    score_groups(context, groups, cache=cache)
    assert totals()[0] == hits0 + 1


def _damaged(data):
    """Every single-bit flip of ``data``, then every proper prefix."""
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield bytes(flipped)
    for length in range(len(data)):
        yield data[:length]


def _assert_every_damage_evicted(root, load):
    """Each damaged copy of ``root``'s one entry loads as ``None``, counts
    one eviction and is removed; returns the entry's path and bytes."""
    (entry,) = list(root.iterdir())
    data = entry.read_bytes()
    survived = []
    for index, damaged in enumerate(_damaged(data)):
        entry.write_bytes(damaged)
        evictions = instruments.CACHE_EVICTIONS.total()
        loaded = load(entry.stem)
        if (
            loaded is not None
            or instruments.CACHE_EVICTIONS.total() != evictions + 1
            or entry.exists()
        ):
            survived.append(index)
    assert survived == [], f"{len(survived)} damaged entries were not evicted"
    return entry, data


def _samples(data):
    """An empty, a truncated and a bit-flipped copy of ``data``."""
    middle = len(data) // 2
    flipped = data[:middle] + bytes([data[middle] ^ 0x10]) + data[middle + 1 :]
    return [b"", data[:-1], flipped]


def test_every_damaged_score_entry_is_evicted_and_recomputed(tmp_path):
    graph = build_graph()
    groups = build_groups(graph)
    context = AnalysisContext(graph)
    cache = ResultCache(tmp_path)
    cold = score_groups(context, groups, cache=cache)
    entry, data = _assert_every_damage_evicted(tmp_path, cache.load_score_table)
    for damaged in _samples(data):
        entry.write_bytes(damaged)
        recovered = score_groups(context, groups, cache=cache)
        assert_tables_identical(cold, recovered)
        # The recomputation rewrote the undamaged entry, byte for byte.
        assert entry.read_bytes() == data


def test_every_damaged_id_sets_entry_is_evicted_and_redrawn(tmp_path):
    context = AnalysisContext(build_graph())
    cache = ResultCache(tmp_path)
    sizes = [3, 6, 2, 9]
    cold = sample_matched_sets(
        context, sizes, "random_walk", seed=0, cache=cache
    )
    entry, data = _assert_every_damage_evicted(tmp_path, cache.load_id_sets)
    for damaged in _samples(data):
        entry.write_bytes(damaged)
        redrawn = sample_matched_sets(
            context, sizes, "random_walk", seed=0, cache=cache
        )
        assert redrawn == cold
        assert entry.read_bytes() == data


def _entry(header, payload=b""):
    """A raw entry around ``header`` whose checksum is valid."""
    from repro.engine.cache import _MAGIC

    if not isinstance(header, bytes):
        header = json.dumps(header).encode()
    body = _MAGIC + len(header).to_bytes(4, "little") + header + payload
    return body + zlib.crc32(body).to_bytes(4, "little")


def _score_header(shape, dtype="<f8", **fields):
    return {
        "fields": {"functions": ["a"], "names": ["x"], "sizes": [1], **fields},
        "arrays": [["scores", dtype, shape]],
    }


ONE_SCORE = np.array([0.25]).tobytes()

CHECKSUMMED_DAMAGE = {
    "not json": (b"{not json", ONE_SCORE),
    "not utf-8": (b"\xff\xfe\x00", ONE_SCORE),
    "header a list": ([1, 2], ONE_SCORE),
    "deep nesting": (b"[" * 100_000, b""),
    "no arrays": ({"fields": {}}, b""),
    "fields a list": ({**_score_header([1, 1]), "fields": []}, ONE_SCORE),
    "object dtype": (_score_header([1, 1], dtype="|O"), ONE_SCORE),
    "string dtype": (_score_header([1, 1], dtype="<U2"), ONE_SCORE),
    "big-endian": (_score_header([1, 1], dtype=">f8"), ONE_SCORE),
    "negative dim": (_score_header([-1]), ONE_SCORE),
    "bool dim": (_score_header([True, True]), ONE_SCORE),
    "huge dim": (_score_header([2**70, 1]), ONE_SCORE),
    "bytes short": (_score_header([1, 2]), ONE_SCORE),
    "bytes over": (_score_header([1, 1]), ONE_SCORE * 2),
    "shape off names": (_score_header([1, 1], names=["x", "y"]), ONE_SCORE),
    "sizes off names": (_score_header([1, 1], sizes=[1, 2]), ONE_SCORE),
    "size a string": (_score_header([1, 1], sizes=["1"]), ONE_SCORE),
    "integer scores": (_score_header([1, 1], dtype="<i8"), ONE_SCORE),
}


def test_a_checksummed_entry_loads(tmp_path):
    """The raw entries below differ from this loadable one in one way."""
    cache = ResultCache(tmp_path)
    cache._path("k").write_bytes(_entry(_score_header([1, 1]), ONE_SCORE))
    names, sizes, columns = cache.load_score_table("k")
    assert (names, sizes, columns["a"].tolist()) == (["x"], [1], [0.25])


@pytest.mark.parametrize("damage", sorted(CHECKSUMMED_DAMAGE))
def test_checksummed_entry_failing_a_check_is_evicted(tmp_path, damage):
    """A valid checksum is not enough: a bad header, dtype, shape or byte
    count is damage too, and never raises."""
    cache = ResultCache(tmp_path)
    header, payload = CHECKSUMMED_DAMAGE[damage]
    path = cache._path("k")
    path.write_bytes(_entry(header, payload))
    _, _, evictions0 = totals()
    assert cache.load_score_table("k") is None
    assert totals()[2] == evictions0 + 1
    assert not path.exists()


@pytest.mark.parametrize(
    "values, offsets",
    [
        ([1, 2], [1, 2]),  # offsets do not start at 0
        ([1, 2], [0, 2, 1, 2]),  # offsets fall
        ([1, 2], [0, 3]),  # offsets end past the values
        ([1, 2], []),  # no offsets at all
    ],
    ids=["start", "falling", "end", "empty"],
)
def test_checksummed_id_sets_with_bad_offsets_are_evicted(
    tmp_path, values, offsets
):
    def id_sets_entry(values, offsets):
        arrays = {"values": values, "offsets": offsets}
        header = {
            "fields": {},
            "arrays": [[name, "<i8", [len(a)]] for name, a in arrays.items()],
        }
        payload = np.array(values + offsets, dtype="<i8").tobytes()
        return _entry(header, payload)

    cache = ResultCache(tmp_path)
    path = cache._path("k")
    path.write_bytes(id_sets_entry([1, 2], [0, 1, 2]))
    assert [ids.tolist() for ids in cache.load_id_sets("k")] == [[1], [2]]
    path.write_bytes(id_sets_entry(values, offsets))
    _, _, evictions0 = totals()
    assert cache.load_id_sets("k") is None
    assert totals()[2] == evictions0 + 1
    assert not path.exists()


def test_entries_of_an_older_layout_are_ignored(tmp_path):
    """A ``.npz`` left by an older layout is never opened: a plain miss,
    no eviction, and the file stays where it is."""
    cache = ResultCache(tmp_path)
    old = tmp_path / "k.npz"
    old.write_bytes(b"PK\x03\x04 an older entry")
    hits0, misses0, evictions0 = totals()
    assert cache.load_score_table("k") is None
    assert totals() == (hits0, misses0 + 1, evictions0)
    assert old.exists()


def test_no_cache_bypasses_even_with_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    graph = build_graph()
    groups = build_groups(graph)
    context = AnalysisContext(graph)
    score_groups(context, groups, cache=False)
    assert list(tmp_path.iterdir()) == []


def test_no_cache_never_fingerprints(monkeypatch):
    """Without a cache no key is derived: a key hashes the whole union
    CSR, which a ``--no-cache`` run must not pay for."""
    import repro.engine.cache as cache_module
    import repro.obs.manifest as manifest_module
    from repro import obs
    from repro.analysis.experiment import circles_vs_random

    def refuse(context):
        raise AssertionError("fingerprinted a context without a cache")

    # Manifests fingerprint by design, and only while observability is on.
    obs.disable()
    monkeypatch.setattr(cache_module, "fingerprint_context", refuse)
    monkeypatch.setattr(manifest_module, "fingerprint_context", refuse)
    graph = build_graph()
    groups = build_groups(graph)
    context = AnalysisContext(graph)
    score_groups(context, groups, cache=False)
    circles_vs_random((graph, groups), context=context, seed=5, cache=False)


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
    assert list(tmp_path.iterdir()) == []


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
    assert list(tmp_path.iterdir()) == []


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


def test_group_names_roundtrip_exactly(tmp_path):
    """Names travel in the JSON header, so no character is stripped (a
    fixed-width string array drops trailing NULs)."""
    cache = ResultCache(tmp_path)
    names = ["x\x00", "", "\u00e9\ud800", "a,b"]
    cache.store_score_table("k", names, [1, 2, 3, 4], {"a": np.zeros(4)})
    loaded, _, _ = cache.load_score_table("k")
    assert loaded == names


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

    def interrupted_write(handle, fields, arrays):
        handle.write(b"repro-result-cache 1\n partial entry")
        raise KeyboardInterrupt

    cache = ResultCache(tmp_path)
    monkeypatch.setattr("repro.engine.cache._write_entry", interrupted_write)
    with pytest.raises(KeyboardInterrupt):
        cache.store_score_table("k2", ["x"], [1], {"a": np.array([0.5])})
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []
    assert cache.load_score_table("k2") is None
