"""Chunked edge-emitter streams and the out-of-core freeze.

The dict-adjacency generators cap out around 10^5 edges — every edge is a
Python object in a set of sets.  This module is the scale path: a graph
is described as an :class:`EdgeStream` (bounded numpy id-chunks, never a
whole adjacency), and :func:`freeze_stream` turns any stream into an
on-disk CSR directory (``docs/SCALING.md``) by spilling sorted key runs
to disk and external-merging them, so no Python-object adjacency is ever
built (the merge's memory still grows with m; see :func:`freeze_stream`).

Two stream families cover the use cases:

* :class:`GraphEdgeStream` adapts an already-built
  :class:`~repro.graph.Graph`/:class:`~repro.graph.DiGraph` (the
  ``build_google_plus()`` family), so every existing generator freezes
  to disk bit-identically to its in-RAM freeze;
* :func:`benchmark_stream` is a fully vectorized planted-partition
  generator for the 10^5–10^8-edge perf trajectory
  (``benchmarks/bench_parallel_scoring.py --scale``).

Duplicate edges across chunks are collapsed at merge time (set semantics,
exactly like dict adjacency), so emitters may over-emit freely.
"""

from __future__ import annotations

import tempfile
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.data.groups import Community, GroupSet
from repro.exceptions import GraphError
from repro.graph.convert import integer_index
from repro.graph.csr import CSRDirWriter, is_identity_nodes, pack_edge_keys
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

__all__ = [
    "EdgeStream",
    "GraphEdgeStream",
    "BenchmarkStream",
    "benchmark_stream",
    "freeze_stream",
]

#: Default edges per emitted/merged chunk (~64 MiB of int64 keys as two
#: symmetrized key arrays).  The freeze's peak RSS scales with this knob.
DEFAULT_CHUNK_EDGES = 1 << 22

#: Keys per spill run: one run file is one sorted array of this length.
_RUN_KEYS = 1 << 23


class EdgeStream:
    """One graph described as bounded chunks of integer edge endpoints.

    Attributes
    ----------
    name:
        Dataset name recorded in the store's ``meta.json``.
    num_vertices:
        Vertex count ``n``; every emitted id must lie in ``[0, n)``.
    directed:
        Whether chunks are arcs (directed) or edges (undirected).
    nodes:
        Explicit label list when the labelling is not the identity
        ``0 .. n-1``; ``None`` for identity-labelled streams.
    """

    name: str | None = None
    num_vertices: int = 0
    directed: bool = False
    nodes: list | None = None

    def edge_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(src_ids, dst_ids)`` int64 array pairs, any chunking."""
        raise NotImplementedError


class GraphEdgeStream(EdgeStream):
    """Adapter presenting a built dict-adjacency graph as an edge stream.

    This is how the ``build_google_plus()`` generator family plugs into
    the out-of-core freeze: the ids follow
    :func:`~repro.graph.convert.integer_index` order, so the resulting
    store is byte-identical (fingerprint and all) to an in-RAM
    :class:`~repro.engine.AnalysisContext` freeze of the same graph.
    """

    def __init__(
        self,
        graph: Graph | DiGraph,
        *,
        chunk_edges: int = DEFAULT_CHUNK_EDGES,
    ) -> None:
        self.graph = graph
        self.name = graph.name or None
        self.directed = bool(graph.is_directed)
        self.chunk_edges = int(chunk_edges)
        index_of, nodes = integer_index(graph)
        self._index_of = index_of
        self.num_vertices = len(nodes)
        self.nodes = None if is_identity_nodes(nodes) else nodes

    def edge_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        index_of = self._index_of
        us: list[int] = []
        vs: list[int] = []
        for u, v in self.graph.edges:
            us.append(index_of[u])
            vs.append(index_of[v])
            if len(us) >= self.chunk_edges:
                yield (
                    np.asarray(us, dtype=np.int64),
                    np.asarray(vs, dtype=np.int64),
                )
                us, vs = [], []
        if us:
            yield (
                np.asarray(us, dtype=np.int64),
                np.asarray(vs, dtype=np.int64),
            )


class BenchmarkStream(EdgeStream):
    """Vectorized planted-partition stream for the scale benchmark.

    Vertices ``0 .. n-1`` fall into contiguous blocks of
    ``community_size``; each emitted chunk draws ``internal_fraction``
    of its endpoints inside one block and the rest globally uniform.
    Every draw is a bulk :class:`numpy.random.Generator` call, so
    emitting 10^8 edges costs seconds, and the target edge count is the
    number of *draws* — the merge's dedup trims the few-percent of
    collisions, exactly like set-based generators do.
    """

    def __init__(
        self,
        num_edges: int,
        *,
        seed: int = 0,
        avg_degree: int = 16,
        community_size: int = 50,
        internal_fraction: float = 0.8,
        chunk_edges: int = DEFAULT_CHUNK_EDGES,
        name: str | None = None,
    ) -> None:
        if num_edges < 1:
            raise ValueError("num_edges must be >= 1")
        self.num_edges = int(num_edges)
        self.seed = seed
        self.community_size = int(community_size)
        blocks = max(1, (2 * self.num_edges // avg_degree) // self.community_size)
        self.num_communities = blocks
        self.num_vertices = blocks * self.community_size
        self.internal_fraction = float(internal_fraction)
        self.chunk_edges = int(chunk_edges)
        self.directed = False
        self.nodes = None
        self.name = name or f"bench-{self.num_edges}"

    def edge_chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(self.seed)
        n = self.num_vertices
        size = self.community_size
        remaining = self.num_edges
        while remaining > 0:
            k = min(self.chunk_edges, remaining)
            remaining -= k
            internal = int(k * self.internal_fraction)
            base = rng.integers(0, self.num_communities, size=internal) * size
            iu = base + rng.integers(0, size, size=internal)
            iv = base + rng.integers(0, size, size=internal)
            gu = rng.integers(0, n, size=k - internal)
            gv = rng.integers(0, n, size=k - internal)
            u = np.concatenate([iu, gu])
            v = np.concatenate([iv, gv])
            mask = u != v
            yield u[mask], v[mask]

    def groups(self) -> GroupSet:
        """The planted blocks as a ground-truth group set."""
        size = self.community_size
        groups = GroupSet(name=self.name or "bench")
        for i in range(self.num_communities):
            groups.add(
                Community(
                    name=f"block{i}",
                    members=frozenset(range(i * size, (i + 1) * size)),
                )
            )
        return groups


def benchmark_stream(num_edges: int, *, seed: int = 0, **kwargs) -> BenchmarkStream:
    """Build a :class:`BenchmarkStream` targeting ``num_edges`` draws."""
    return BenchmarkStream(num_edges, seed=seed, **kwargs)


# -- external sort / merge ----------------------------------------------------


class _RunSpiller:
    """Accumulates edge keys and spills them as sorted run files.

    Memory is O(run_keys): one run's buffered keys (plus the chunk that
    crosses the threshold) and the copies that sorting and writing the
    run make.

    Use as a context manager: on exit — normal or exceptional — the
    buffered keys are dropped and every spilled run file is deleted, so
    an aborted freeze never strands multi-gigabyte ``.run`` files.
    """

    def __init__(self, spill_dir: Path, tag: str, run_keys: int) -> None:
        self._dir = spill_dir
        self._tag = tag
        self._run_keys = int(run_keys)
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        self.paths: list[Path] = []

    def __enter__(self) -> "_RunSpiller":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()

    def add(self, keys: np.ndarray) -> None:
        if keys.size == 0:
            return
        self._buffer.append(keys)
        self._buffered += keys.size
        if self._buffered >= self._run_keys:
            self.flush()

    def flush(self) -> None:
        """Sort the buffered keys and write them as one run file."""
        if not self._buffer:
            return
        run = np.concatenate(self._buffer)
        self._buffer = []
        self._buffered = 0
        run.sort()
        path = self._dir / f"{self._tag}-{len(self.paths):05d}.run"
        with open(path, "wb") as handle:
            handle.write(run.tobytes())
        self.paths.append(path)

    def cleanup(self) -> None:
        """Drop buffered keys and delete every spilled run file."""
        self._buffer = []
        self._buffered = 0
        for path in self.paths:
            path.unlink(missing_ok=True)
        self.paths = []


def _merge_runs(
    paths: list[Path], *, block: int
) -> Iterator[np.ndarray]:
    """Yield globally sorted, de-duplicated key blocks from sorted runs.

    Classic external k-way merge, blockwise: load one bounded block per
    run, emit the prefix guaranteed complete (every key ≤ the smallest
    "last loaded key" of any unfinished run), advance each run past what
    was emitted.  Duplicate keys — reciprocal half-edges, re-emitted
    edges — collapse here, within and across blocks.  The run memmaps
    are unmapped on exit — including generator close and mid-merge
    exceptions — so the spill files can be deleted promptly even on
    platforms where open mappings pin them.  Each round holds up to
    ``len(paths) * block`` keys plus their merged, sorted copy, so memory
    grows with the number of runs.
    """
    runs = [np.memmap(path, dtype=np.int64, mode="r") for path in paths]
    try:
        positions = [0] * len(runs)
        last_key: int | None = None
        while True:
            loaded: list[tuple[int, np.ndarray]] = []
            limits: list[int] = []
            for i, run in enumerate(runs):
                if positions[i] >= run.shape[0]:
                    continue
                chunk = np.asarray(run[positions[i] : positions[i] + block])
                loaded.append((i, chunk))
                if positions[i] + block < run.shape[0]:
                    limits.append(int(chunk[-1]))
            if not loaded:
                return
            safe = min(limits) if limits else None
            merged = np.sort(np.concatenate([chunk for _, chunk in loaded]))
            if safe is None:
                emit = merged
                for i, chunk in loaded:
                    positions[i] += chunk.shape[0]
            else:
                emit = merged[
                    : int(np.searchsorted(merged, safe, side="right"))
                ]
                for i, chunk in loaded:
                    positions[i] += int(
                        np.searchsorted(chunk, safe, side="right")
                    )
            if emit.size == 0:  # pragma: no cover - safe key always emits
                continue
            keep = np.empty(emit.size, dtype=bool)
            keep[0] = last_key is None or int(emit[0]) != last_key
            np.not_equal(emit[1:], emit[:-1], out=keep[1:])
            emit = emit[keep]
            if emit.size:
                last_key = int(emit[-1])
                yield emit
    finally:
        for run in runs:
            mapping = getattr(run, "_mmap", None)
            if mapping is not None:
                mapping.close()


def _merge_into(
    writer: CSRDirWriter,
    array_name: str,
    paths: list[Path],
    *,
    n: int,
    block: int,
) -> tuple[np.ndarray, int, int]:
    """Merge runs into ``<array_name>.indices`` + ``.indptr`` on disk.

    Returns ``(row_counts, total_emitted, self_loops)``; row counts stay
    in RAM (O(n)) so the indptr can be cumsum'd once at the end.
    """
    counts = np.zeros(n, dtype=np.int64)
    total = 0
    loops = 0
    for keys in _merge_runs(paths, block=block):
        srcs = keys // n
        dsts = keys % n
        writer.append(f"{array_name}.indices", dsts)
        counts += np.bincount(srcs, minlength=n)
        total += keys.size
        loops += int((srcs == dsts).sum())
    indptr = np.concatenate(([0], np.cumsum(counts)))
    writer.append(f"{array_name}.indptr", indptr)
    return counts, total, loops


def _validated_ids(
    u: np.ndarray, v: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    u = np.ascontiguousarray(u, dtype=np.int64)
    v = np.ascontiguousarray(v, dtype=np.int64)
    if u.shape != v.shape or u.ndim != 1:
        raise GraphError(
            f"edge chunk arrays must be equal-length 1-D, got "
            f"{u.shape} vs {v.shape}"
        )
    if u.size and (
        int(min(u.min(), v.min())) < 0 or int(max(u.max(), v.max())) >= n
    ):
        raise GraphError(
            f"edge chunk contains vertex ids outside [0, {n})"
        )
    return u, v


def freeze_stream(
    stream: EdgeStream,
    directory: str | Path,
    *,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    overwrite: bool = False,
) -> Path:
    """Freeze an :class:`EdgeStream` into an on-disk CSR directory.

    Two passes, both in bounded memory: (1) emitted chunks become sorted
    key runs (``src * n + dst``, plus the mirrored key for undirected
    edges) spilled under a temporary subdirectory; (2) an external k-way
    merge de-duplicates the runs and writes the CSR arrays chunk by
    chunk through :class:`~repro.graph.csr.CSRDirWriter`.  Directed
    streams get all three orientations (out/in/union) from the same
    spill.  Peak memory is O(runs × chunk_edges + n), which is not
    independent of m: the merge loads one ``chunk_edges`` block from
    every spill run at once, and there is one run per 2²³ spilled keys.
    With the default ``chunk_edges`` (half a run) each merge round loads
    about one int64 key per edge and then sorts a merged copy
    (``docs/SCALING.md`` §2).

    The resulting store opens via
    :meth:`repro.engine.AnalysisContext.open` with the same fingerprint
    an in-RAM freeze of the same graph would have.
    """
    n = int(stream.num_vertices)
    if n <= 0:
        raise GraphError("cannot freeze a stream with no vertices")
    block = max(1, int(chunk_edges))
    writer = CSRDirWriter(
        directory,
        n=n,
        directed=stream.directed,
        name=stream.name,
        overwrite=overwrite,
    )
    try:
        with tempfile.TemporaryDirectory(
            prefix=".spill-", dir=str(writer.directory)
        ) as spill_root:
            spill_dir = Path(spill_root)
            if stream.directed:
                with (
                    _RunSpiller(spill_dir, "out", _RUN_KEYS) as out_spill,
                    _RunSpiller(spill_dir, "in", _RUN_KEYS) as in_spill,
                ):
                    for u, v in stream.edge_chunks():
                        u, v = _validated_ids(u, v, n)
                        out_spill.add(pack_edge_keys(u, v, n))
                        in_spill.add(pack_edge_keys(v, u, n))
                    out_spill.flush()
                    in_spill.flush()
                    out_counts, out_total, _ = _merge_into(
                        writer, "out", out_spill.paths, n=n, block=block
                    )
                    in_counts, _, _ = _merge_into(
                        writer, "in", in_spill.paths, n=n, block=block
                    )
                    # The union skeleton is the dedup of both key families.
                    _merge_into(
                        writer,
                        "union",
                        out_spill.paths + in_spill.paths,
                        n=n,
                        block=block,
                    )
                degree = out_counts + in_counts
                m = out_total
            else:
                with _RunSpiller(spill_dir, "union", _RUN_KEYS) as spill:
                    for u, v in stream.edge_chunks():
                        u, v = _validated_ids(u, v, n)
                        # Symmetrize at spill time; the merge collapses
                        # reciprocal duplicates exactly like dict adjacency.
                        spill.add(pack_edge_keys(u, v, n))
                        spill.add(pack_edge_keys(v, u, n))
                    spill.flush()
                    degree, total, loops = _merge_into(
                        writer, "union", spill.paths, n=n, block=block
                    )
                m = (total + loops) // 2
            writer.append("degree", degree)
            return writer.finalize(
                m=m,
                nodes=stream.nodes,
                median_degree=float(np.median(degree)),
            )
    finally:
        writer.close()
