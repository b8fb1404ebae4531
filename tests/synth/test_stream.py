"""Streaming generation — chunked emitters and the external merge.

The contract under test: `freeze_stream(stream)` writes a store whose
fingerprint is identical to freezing the materialised graph, for every
stream flavour (graph adapter, vectorised benchmark generator) and for
any chunking.
"""

import numpy as np
import pytest

from repro.engine import AnalysisContext
from repro.exceptions import GraphError, ScaleError
from repro.graph.csr import MAX_PACKED_VERTICES
from repro.graph.io.edgelist import iter_edge_chunks, iter_edges
from repro.obs.manifest import fingerprint_context
from repro.synth import benchmark_stream, freeze_stream
from repro.synth import stream as stream_module
from repro.synth.stream import _RUN_KEYS, GraphEdgeStream, _RunSpiller


def store_fingerprint(stream, directory, **kwargs) -> str:
    return fingerprint_context(
        AnalysisContext.open(freeze_stream(stream, directory, **kwargs))
    )


class TestGraphEdgeStream:
    def test_undirected_adapter_matches_direct_freeze(
        self, two_cliques_graph, tmp_path
    ):
        oracle = fingerprint_context(AnalysisContext(two_cliques_graph))
        stream = GraphEdgeStream(two_cliques_graph)
        assert store_fingerprint(stream, tmp_path / "store") == oracle

    def test_directed_adapter_matches_direct_freeze(
        self, small_digraph, tmp_path
    ):
        oracle = fingerprint_context(AnalysisContext(small_digraph))
        stream = GraphEdgeStream(small_digraph)
        assert store_fingerprint(stream, tmp_path / "store") == oracle

    def test_chunking_does_not_change_the_store(
        self, two_cliques_graph, tmp_path
    ):
        whole = store_fingerprint(
            GraphEdgeStream(two_cliques_graph), tmp_path / "whole"
        )
        tiny_chunks = store_fingerprint(
            GraphEdgeStream(two_cliques_graph, chunk_edges=3),
            tmp_path / "tiny",
            chunk_edges=3,
        )
        assert tiny_chunks == whole


class TestBenchmarkStream:
    def test_same_seed_same_store(self, tmp_path):
        left = store_fingerprint(
            benchmark_stream(5000, seed=7), tmp_path / "left"
        )
        right = store_fingerprint(
            benchmark_stream(5000, seed=7), tmp_path / "right"
        )
        assert left == right

    def test_different_seed_different_store(self, tmp_path):
        left = store_fingerprint(
            benchmark_stream(5000, seed=7), tmp_path / "left"
        )
        right = store_fingerprint(
            benchmark_stream(5000, seed=8), tmp_path / "right"
        )
        assert left != right

    def test_groups_partition_the_vertices(self, tmp_path):
        stream = benchmark_stream(5000, seed=7)
        directory = freeze_stream(stream, tmp_path / "store")
        context = AnalysisContext.open(directory)
        groups = stream.groups()
        seen: set[int] = set()
        for group in groups:
            members = set(group.members)
            assert not members & seen
            seen |= members
        assert len(seen) == context.num_vertices


class TestIterEdgeChunks:
    def edge_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(
            "# comment\n0 1\n1 2\n\n2 3\n3 0\n4 1\n", encoding="utf-8"
        )
        return path

    def test_chunks_concatenate_to_iter_edges(self, tmp_path):
        path = self.edge_file(tmp_path)
        flat = list(iter_edges(path))
        chunked = [
            (int(u), int(v))
            for us, vs in iter_edge_chunks(path, chunk_edges=2)
            for u, v in zip(us, vs)
        ]
        assert chunked == flat

    def test_chunks_are_int64_and_bounded(self, tmp_path):
        path = self.edge_file(tmp_path)
        for us, vs in iter_edge_chunks(path, chunk_edges=2):
            assert us.dtype == np.int64 and vs.dtype == np.int64
            assert len(us) == len(vs) <= 2

    def test_rejects_nonpositive_chunk(self, tmp_path):
        path = self.edge_file(tmp_path)
        with pytest.raises(ValueError):
            next(iter_edge_chunks(path, chunk_edges=0))


class TestFreezeStreamGuards:
    def test_refuses_existing_store_without_overwrite(
        self, two_cliques_graph, tmp_path
    ):
        target = tmp_path / "store"
        freeze_stream(GraphEdgeStream(two_cliques_graph), target)
        with pytest.raises(GraphError):
            freeze_stream(GraphEdgeStream(two_cliques_graph), target)
        freeze_stream(
            GraphEdgeStream(two_cliques_graph), target, overwrite=True
        )

    def test_oversized_vertex_count_raises_scale_error(self, tmp_path):
        # Beyond MAX_PACKED_VERTICES the u*n+v keys would wrap int64;
        # the packing helper must refuse before any key is spilled.
        class HugeStream:
            num_vertices = MAX_PACKED_VERTICES + 1
            directed = False
            name = "huge"
            nodes = None

            def edge_chunks(self):
                yield (
                    np.asarray([0], dtype=np.int64),
                    np.asarray([1], dtype=np.int64),
                )

        with pytest.raises(ScaleError, match="overflows"):
            freeze_stream(HugeStream(), tmp_path / "store")
        assert not list((tmp_path / "store").glob("**/*.run"))


class TestRunSpillerCleanup:
    def test_cleanup_removes_run_files_and_buffer(self, tmp_path):
        spiller = _RunSpiller(tmp_path, "t", run_keys=4)
        spiller.add(np.arange(6, dtype=np.int64))  # auto-flushes one run
        spiller.add(np.arange(2, dtype=np.int64))  # stays buffered
        assert spiller.paths and all(p.exists() for p in spiller.paths)
        spiller.cleanup()
        assert spiller.paths == []
        assert not list(tmp_path.glob("*.run"))

    def test_context_exit_cleans_up_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with _RunSpiller(tmp_path, "t", run_keys=2) as spiller:
                spiller.add(np.arange(4, dtype=np.int64))
                assert list(tmp_path.glob("*.run"))
                raise RuntimeError("mid-spill abort")
        assert not list(tmp_path.glob("*.run"))

    def test_mid_merge_exception_leaves_no_spill_files(
        self, two_cliques_graph, tmp_path, monkeypatch
    ):
        # An exception between spill and merge must tear down every run
        # file and the spill directory itself — an aborted terabyte
        # freeze may not strand its external-sort scratch space.
        cleanups: list[int] = []
        original_cleanup = _RunSpiller.cleanup

        def spying_cleanup(self):
            cleanups.append(len(self.paths))
            original_cleanup(self)

        def exploding_merge(*args, **kwargs):
            raise RuntimeError("merge aborted")

        monkeypatch.setattr(_RunSpiller, "cleanup", spying_cleanup)
        monkeypatch.setattr(stream_module, "_merge_into", exploding_merge)
        target = tmp_path / "store"
        with pytest.raises(RuntimeError, match="merge aborted"):
            freeze_stream(GraphEdgeStream(two_cliques_graph), target)
        assert cleanups, "spiller cleanup never ran"
        assert not list(tmp_path.glob("**/*.run"))
        assert not list(target.glob(".spill-*"))
        # The aborted store has no meta.json, so it cannot be opened.
        assert not (target / "meta.json").exists()
        with pytest.raises(GraphError):
            AnalysisContext.open(target)

    def test_run_keys_constant_is_positive(self):
        assert _RUN_KEYS >= 1
