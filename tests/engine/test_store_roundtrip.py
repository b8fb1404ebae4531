"""Store round trip — `AnalysisContext.save`/`open` must be invisible.

A memmap-backed context is a drop-in for the in-RAM one: same
fingerprint, byte-identical score tables, same cache keys (a batch
scored from RAM is served from cache when re-scored from disk), and the
attached buffers are read-only so nothing can mutate the store through
a context.
"""

import json
import re

import numpy as np
import pytest

from repro import obs
from repro.engine import AnalysisContext, ResultCache
from repro.exceptions import GraphError
from repro.graph.ugraph import Graph
from repro.obs.instruments import GROUPS_SCORED
from repro.obs.manifest import fingerprint_context
from repro.scoring import score_groups
from tests.engine.store_damage import STORE_DAMAGES, damage_store


@pytest.fixture
def undirected_pair(small_community_dataset, tmp_path):
    context = AnalysisContext(small_community_dataset.graph)
    directory = context.save(tmp_path / "store")
    return context, AnalysisContext.open(directory)


@pytest.fixture
def directed_pair(small_circles_dataset, tmp_path):
    context = AnalysisContext(small_circles_dataset.graph)
    directory = context.save(tmp_path / "store")
    return context, AnalysisContext.open(directory)


class TestFingerprint:
    def test_undirected_fingerprint_survives_round_trip(self, undirected_pair):
        context, opened = undirected_pair
        assert fingerprint_context(opened) == fingerprint_context(context)

    def test_directed_fingerprint_survives_round_trip(self, directed_pair):
        context, opened = directed_pair
        assert opened.is_directed == context.is_directed
        assert fingerprint_context(opened) == fingerprint_context(context)

    def test_graph_wide_caches_survive(self, undirected_pair):
        context, opened = undirected_pair
        assert opened.num_vertices == context.num_vertices
        assert opened.num_edges == context.num_edges
        assert opened.median_degree == context.median_degree
        assert np.array_equal(opened.degree_array, context.degree_array)

    def test_label_boundary_survives(self, directed_pair):
        context, opened = directed_pair
        assert list(opened.csr.nodes) == list(context.csr.nodes)


class TestReadOnly:
    def test_opened_buffers_are_read_only_memmaps(self, undirected_pair):
        _, opened = undirected_pair
        assert isinstance(opened.csr.indices, np.memmap)
        assert not opened.csr.indices.flags.writeable
        assert not opened.csr.indptr.flags.writeable

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(GraphError, match="meta.json"):
            AnalysisContext.open(tmp_path / "nope")

    @pytest.mark.parametrize("damage", sorted(STORE_DAMAGES))
    def test_damaged_metadata_raises_graph_error(
        self, small_community_dataset, tmp_path, damage
    ):
        """A missing array file or a ``meta.json`` that does not parse or
        lacks a well-typed field fails as GraphError naming the file."""
        store = AnalysisContext(small_community_dataset.graph).save(
            tmp_path / "store"
        )
        name = damage_store(store, damage)
        with pytest.raises(GraphError, match=re.escape(name)):
            AnalysisContext.open(store)

    @pytest.mark.parametrize(
        "damage",
        ["missing", "truncated", "not-a-list", "list-label", "repeated-label"],
    )
    def test_damaged_label_file_raises_graph_error(self, tmp_path, damage):
        """Each damage keeps one label per vertex, so the length check
        alone passes it."""
        graph = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        store = AnalysisContext(graph).save(tmp_path / "store")
        path = store / "nodes.json"
        labels = json.loads(path.read_text(encoding="utf-8"))
        texts = {
            "truncated": json.dumps(labels)[:-5],
            "not-a-list": json.dumps(dict.fromkeys(labels, 0)),
            "list-label": json.dumps([[labels[0]]] + labels[1:]),
            "repeated-label": json.dumps([labels[1]] + labels[1:]),
        }
        if damage == "missing":
            path.unlink()
        else:
            path.write_text(texts[damage], encoding="utf-8")
        with pytest.raises(GraphError, match="nodes.json"):
            AnalysisContext.open(store)

    def test_save_refuses_existing_store_without_overwrite(
        self, undirected_pair, tmp_path
    ):
        context, _ = undirected_pair
        target = tmp_path / "twice"
        context.save(target)
        with pytest.raises(GraphError):
            context.save(target)
        context.save(target, overwrite=True)


class TestScores:
    def test_scores_byte_identical(self, undirected_pair, small_community_dataset):
        context, opened = undirected_pair
        left = score_groups(context, small_community_dataset.groups)
        right = score_groups(opened, small_community_dataset.groups)
        assert left.group_names == right.group_names
        for name in left.function_names():
            assert left.scores(name).tobytes() == right.scores(name).tobytes()

    def test_directed_scores_byte_identical(
        self, directed_pair, small_circles_dataset
    ):
        context, opened = directed_pair
        left = score_groups(context, small_circles_dataset.groups)
        right = score_groups(opened, small_circles_dataset.groups)
        for name in left.function_names():
            assert left.scores(name).tobytes() == right.scores(name).tobytes()

    def test_parallel_scoring_over_store_matches_serial(
        self, undirected_pair, small_community_dataset
    ):
        _, opened = undirected_pair
        serial = score_groups(opened, small_community_dataset.groups)
        sharded = score_groups(opened, small_community_dataset.groups, jobs=2)
        for name in serial.function_names():
            assert serial.scores(name).tobytes() == sharded.scores(name).tobytes()


class TestCacheKeys:
    def test_ram_warmed_cache_serves_mmap_context(
        self, undirected_pair, small_community_dataset, tmp_path
    ):
        """Cache keys hash the fingerprint, so the RAM and mmap contexts
        share entries: a batch scored in RAM replays from disk with zero
        kernel invocations."""
        context, opened = undirected_pair
        cache = ResultCache(tmp_path / "cache")
        warm = score_groups(context, small_community_dataset.groups, cache=cache)
        obs.enable(name="store-cache")
        try:
            before = GROUPS_SCORED.value()
            served = score_groups(
                opened, small_community_dataset.groups, cache=cache
            )
            assert GROUPS_SCORED.value() == before
        finally:
            obs.disable()
        for name in warm.function_names():
            assert warm.scores(name).tobytes() == served.scores(name).tobytes()
