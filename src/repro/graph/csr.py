"""Static compressed-sparse-row snapshot of a graph.

Pure-Python adjacency dicts are convenient for mutation but slow for
whole-graph kernels (BFS sweeps, triangle counting, clustering).
:class:`CSRGraph` freezes a :class:`~repro.graph.Graph` or
:class:`~repro.graph.DiGraph` into numpy ``indptr``/``indices`` arrays with
sorted adjacency, the format the algorithm kernels in
:mod:`repro.algorithms` operate on.

For a directed graph the CSR stores the *undirected skeleton* by default
(every edge usable in both directions), which is what path-length and
clustering measurements on social graphs conventionally use; the directed
out/in structure is available via ``orientation``.

This module also owns the **on-disk CSR directory format** (see
``docs/SCALING.md``): a versioned ``meta.json`` plus one raw little-endian
``int64`` ``.bin`` file per array, written incrementally by
:class:`CSRDirWriter` and opened read-only through :func:`open_csr_dir`
as ``numpy`` memmaps — the substrate that lets 10^7–10^8-edge graphs be
frozen and scored without ever fitting in RAM.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Hashable, Iterable, Sequence
from pathlib import Path
from typing import Literal

import numpy as np

from repro.devtools.contracts import bounded_memory
from repro.exceptions import GraphError, ScaleError
from repro.graph.convert import integer_index
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

Node = Hashable
Orientation = Literal["union", "out", "in"]

__all__ = [
    "CSRGraph",
    "freeze_directed",
    "IdentityNodes",
    "IdentityIndex",
    "is_identity_nodes",
    "pack_edge_keys",
    "MAX_PACKED_VERTICES",
    "CSRDirWriter",
    "CSRStore",
    "open_csr_dir",
    "CSR_DIR_FORMAT",
    "CSR_DIR_VERSION",
]

#: Memory cap (bytes) for the cached dense bitset adjacency.  At one bit
#: per vertex pair this admits graphs up to ~23k vertices — comfortably
#: beyond the paper's ego-network corpora — while refusing to allocate
#: gigabytes on web-scale inputs.
_DENSE_BITS_LIMIT = 64 * 1024 * 1024

#: Sentinel distinguishing "never computed" from "computed: over the cap".
_UNSET = object()


class IdentityNodes(Sequence):
    """Virtual label list for graphs whose labels *are* the vertex ids.

    On-disk contexts and worker-side rebuilds never materialize a label
    list — their vertices are ``0 .. n-1`` by construction.  This stands
    in for ``nodes`` without allocating ``n`` Python ints.
    """

    __slots__ = ("_range",)

    def __init__(self, n: int) -> None:
        self._range = range(int(n))

    def __len__(self) -> int:
        return len(self._range)

    def __getitem__(self, index):  # int -> int, slice -> range
        return self._range[index]

    def __iter__(self):
        return iter(self._range)

    def __contains__(self, value: object) -> bool:
        return value in self._range

    def __repr__(self) -> str:
        return f"IdentityNodes({len(self._range)})"


class IdentityIndex(dict):
    """``index_of`` stand-in when labels are the vertex ids themselves.

    Bounded: only integers in ``[0, n)`` resolve, so out-of-range lookups
    fail with :class:`KeyError` exactly like a real label dictionary.
    """

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        super().__init__()
        self._n = int(n)

    def __missing__(self, key: object) -> int:
        if isinstance(key, (int, np.integer)) and 0 <= int(key) < self._n:
            return int(key)
        raise KeyError(key)

    def __contains__(self, key: object) -> bool:
        return isinstance(key, (int, np.integer)) and 0 <= int(key) < self._n

    def resolve(
        self, labels: Sequence[object]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Answer :meth:`__contains__` and the lookup for every label at once.

        Returns ``(ids, known)``: ``known[i]`` is ``labels[i] in self``
        and ``ids[i]`` is that label's vertex id wherever ``known[i]``.
        One numpy pass replaces a Python call per label.  Returns
        ``None`` when a label is not a Python or numpy integer (bools
        count, as ``isinstance`` says) or does not fit in int64; the
        caller then takes the per-label path, so its verdicts and error
        labels stay those of the dictionary protocol.
        """
        kinds = set(map(type, labels))
        if not all(issubclass(kind, (int, np.integer)) for kind in kinds):
            return None
        try:
            ids = np.fromiter(labels, dtype=np.int64, count=len(labels))
        except OverflowError:
            return None
        return ids, (ids >= 0) & (ids < self._n)


def is_identity_nodes(nodes: Sequence[Node]) -> bool:
    """Whether ``nodes`` is exactly the identity labelling ``0 .. n-1``.

    Identity-labelled contexts hash and export their vertex set as a
    compact marker instead of a materialized label list, so an in-RAM
    freeze of an integer-labelled graph and an on-disk store of the same
    graph agree byte-for-byte on fingerprints.
    """
    if isinstance(nodes, IdentityNodes):
        return True
    if isinstance(nodes, range):
        return nodes.start == 0 and nodes.step == 1
    n = len(nodes)
    if n == 0:
        return False
    first, last = nodes[0], nodes[-1]
    if isinstance(first, bool) or not isinstance(first, (int, np.integer)):
        return False
    if first != 0 or last != n - 1:
        return False
    try:
        array = np.asarray(nodes, dtype=np.int64)
    except (TypeError, ValueError, OverflowError):
        return False
    if array.ndim != 1 or array.shape[0] != n:
        return False
    return bool((array == np.arange(n, dtype=np.int64)).all())


#: Largest vertex count whose packed ``src * n + dst`` keys fit in int64:
#: ``n * n <= np.iinfo(np.int64).max``, i.e. ``isqrt(2**63 - 1)``.
MAX_PACKED_VERTICES = math.isqrt(np.iinfo(np.int64).max)


def pack_edge_keys(u, v, n: int) -> np.ndarray:
    """Pack endpoint ids into sortable int64 keys ``u * n + v``.

    Every edge-key packing in the library routes through here so the
    int64 capacity check lives in exactly one place: for ``n`` beyond
    :data:`MAX_PACKED_VERTICES` (~3.04e9 vertices) the keys would wrap
    silently, so a :class:`~repro.exceptions.ScaleError` is raised
    instead.  ``n`` is promoted to ``np.int64`` before the multiply, so
    the arithmetic is int64 regardless of NumPy's value-based casting
    rules for Python-int operands (lint rule REP601 holds ad-hoc packing
    sites to the same discipline).
    """
    n = int(n)
    if n <= 0:
        raise GraphError(f"edge-key packing requires n >= 1, got {n}")
    if n > MAX_PACKED_VERTICES:
        raise ScaleError(
            f"cannot pack edge keys for n={n} vertices: n * n overflows "
            f"int64 (limit {MAX_PACKED_VERTICES}); shard the graph or "
            f"re-key with a wider representation"
        )
    return u * np.int64(n) + v


def _check_frozen_array(name: str, array: object) -> np.ndarray:
    """Validate one frozen CSR array; adopt it without copying.

    Frozen snapshots demand ``int64``, one-dimensional, C-contiguous
    arrays — silently casting (the old behaviour) would copy a memmap
    into RAM, defeating the out-of-core substrate.  Writable views of
    other buffers are rejected outright: a frozen snapshot aliasing
    memory someone else can mutate breaks the freeze-once contract.
    Read-only views (memmaps, shared-memory attachments) pass through.
    """
    if not isinstance(array, np.ndarray):
        return np.asarray(array, dtype=np.int64)
    if array.dtype != np.int64:
        raise GraphError(
            f"frozen CSR array {name!r} must be int64, got {array.dtype}; "
            f"cast with .astype(np.int64) before freezing"
        )
    if array.ndim != 1:
        raise GraphError(
            f"frozen CSR array {name!r} must be one-dimensional, got "
            f"shape {array.shape}"
        )
    if not array.flags.c_contiguous:
        raise GraphError(
            f"frozen CSR array {name!r} must be C-contiguous; copy it "
            f"into a contiguous buffer before freezing"
        )
    if array.base is not None and array.flags.writeable:
        raise GraphError(
            f"frozen CSR array {name!r} is a writable view of another "
            f"buffer; pass the owning array, or mark the view read-only "
            f"(view.flags.writeable = False) so the frozen snapshot "
            f"cannot alias mutable memory"
        )
    return array


def _edge_arrays(
    nodes: list[Node],
    index_of: dict[Node, int],
    adjacency: dict[Node, frozenset[Node] | set[Node]],
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a label-level adjacency into ``(counts, dsts)`` id arrays.

    ``counts[i]`` is the row length of vertex ``i``; ``dsts`` concatenates
    the (unsorted) neighbour ids row by row.  The label -> id dictionary
    lookups here are the only per-half-edge Python work of a freeze.
    """
    counts = np.fromiter(
        (len(adjacency[node]) for node in nodes),
        dtype=np.int64,
        count=len(nodes),
    )
    dsts = np.fromiter(
        (index_of[other] for node in nodes for other in adjacency[node]),
        dtype=np.int64,
        count=int(counts.sum()),
    )
    return counts, dsts


def _rows_from_counts(
    counts: np.ndarray, dsts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort each row of a flattened adjacency; return ``(indptr, indices)``."""
    srcs = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # srcs is non-decreasing, so one global lexsort sorts within rows.
    order = np.lexsort((dsts, srcs))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, dsts[order]


def _union_rows(
    n: int, srcs: np.ndarray, dsts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the undirected skeleton of directed ``srcs -> dsts`` edges.

    Both directions of every arc are keyed as ``src * n + dst``; a sort
    plus neighbour-difference mask collapses reciprocal pairs and leaves
    rows sorted (faster than ``np.unique``'s hash path at this scale).
    """
    keys = pack_edge_keys(
        np.concatenate([srcs, dsts]), np.concatenate([dsts, srcs]), n
    )
    keys.sort()
    if keys.size:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    counts = np.bincount(keys // n, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, keys % n


class CSRGraph:
    """Immutable integer-indexed adjacency structure.

    Attributes
    ----------
    indptr, indices:
        Standard CSR arrays: the neighbours of vertex ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``, sorted ascending.
    nodes:
        Original node labels; ``nodes[i]`` is the label of vertex ``i``.
    index_of:
        Inverse mapping from label to integer vertex id.
    """

    __slots__ = (
        "indptr",
        "indices",
        "nodes",
        "index_of",
        "orientation",
        "_degree_array",
        "_edge_keys",
        "_adjacency_bits",
    )

    def __init__(
        self,
        graph: "Graph | DiGraph | CSRGraph",
        *,
        orientation: Orientation = "union",
    ) -> None:
        self._degree_array: np.ndarray | None = None
        self._edge_keys: np.ndarray | None = None
        self._adjacency_bits: np.ndarray | None | object = _UNSET
        if isinstance(graph, CSRGraph):
            # Already frozen: adopt the snapshot instead of failing on the
            # missing dict-adjacency interface.  The arrays are immutable
            # by convention, so sharing them is safe.
            if orientation != graph.orientation:
                raise ValueError(
                    f"cannot re-freeze a CSRGraph with orientation "
                    f"{graph.orientation!r} as {orientation!r}; freeze from "
                    "the original graph instead"
                )
            self.orientation = graph.orientation
            self.indptr = graph.indptr
            self.indices = graph.indices
            self.nodes = graph.nodes
            self.index_of = graph.index_of
            return
        if graph.number_of_nodes() == 0:
            raise GraphError(
                "cannot freeze an empty graph into CSR form; add vertices "
                "before constructing a CSRGraph"
            )
        if not graph.is_directed and orientation != "union":
            raise ValueError("orientation only applies to directed graphs")
        self.orientation: Orientation = orientation
        self.index_of, self.nodes = integer_index(graph)
        n = len(self.nodes)
        if not graph.is_directed:
            counts, dsts = _edge_arrays(
                self.nodes, self.index_of, dict(graph.adjacency())
            )
            self.indptr, self.indices = _rows_from_counts(counts, dsts)
        elif orientation == "out":
            counts, dsts = _edge_arrays(
                self.nodes, self.index_of, dict(graph.successors_adjacency())
            )
            self.indptr, self.indices = _rows_from_counts(counts, dsts)
        elif orientation == "in":
            counts, dsts = _edge_arrays(
                self.nodes, self.index_of, dict(graph.predecessors_adjacency())
            )
            self.indptr, self.indices = _rows_from_counts(counts, dsts)
        else:  # union of out- and in-neighbours, each counted once
            counts, dsts = _edge_arrays(
                self.nodes, self.index_of, dict(graph.successors_adjacency())
            )
            srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
            self.indptr, self.indices = _union_rows(n, srcs, dsts)

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        nodes: list[Node],
        index_of: dict[Node, int],
        *,
        orientation: Orientation = "union",
    ) -> "CSRGraph":
        """Assemble a snapshot directly from prebuilt CSR arrays.

        Trusted-input constructor for callers that derive several
        orientations from one edge-array pass (the analysis engine) or
        re-open arrays from disk.  The arrays are adopted, never copied
        — read-only memmaps stay file-backed — and are validated for
        dtype/contiguity; writable views of foreign buffers are rejected
        (see :func:`_check_frozen_array`).  Rows must already be sorted.
        """
        self = object.__new__(cls)
        self._degree_array = None
        self._edge_keys = None
        self._adjacency_bits = _UNSET
        self.indptr = _check_frozen_array("indptr", indptr)
        self.indices = _check_frozen_array("indices", indices)
        self.nodes = nodes
        self.index_of = index_of
        self.orientation = orientation
        return self

    # -- basic accessors -----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.nodes)

    @property
    def num_half_edges(self) -> int:
        """Total adjacency length (2m for an undirected snapshot)."""
        return len(self.indices)

    def neighbors(self, vertex: int) -> np.ndarray:
        """Sorted neighbour ids of integer ``vertex`` (a live array slice)."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        """Degree of integer ``vertex`` in this orientation."""
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def degrees(self) -> np.ndarray:
        """Degree array over all vertices (freshly computed)."""
        return np.diff(self.indptr)

    def degree_array(self) -> np.ndarray:
        """Cached degree array over all vertices.

        The array is computed once and shared; treat it as read-only.
        This is the degree source the analysis engine
        (:class:`repro.engine.AnalysisContext`) builds on.
        """
        if self._degree_array is None:
            self._degree_array = np.diff(self.indptr)
        return self._degree_array

    def edge_keys(self) -> np.ndarray:
        """Cached globally sorted ``src * n + dst`` key per half-edge.

        Because rows appear in vertex order and are sorted internally, the
        key array is sorted as a whole, so ``(u, v)`` adjacency tests
        become one :func:`numpy.searchsorted` probe — the engine's batch
        pair kernel relies on this.  Treat the array as read-only.
        """
        if self._edge_keys is None:
            n = self.num_vertices
            self._edge_keys = pack_edge_keys(
                np.repeat(np.arange(n, dtype=np.int64), self.degree_array()),
                self.indices,
                n,
            )
        return self._edge_keys

    def adjacency_bits(self) -> np.ndarray | None:
        """Cached dense bitset adjacency, or ``None`` above the memory cap.

        Row ``u`` packs one bit per potential neighbour: ``v`` is adjacent
        iff ``bits[u, v >> 3] >> (v & 7) & 1``.  Costs ``n^2/8`` bytes, so
        graphs beyond :data:`_DENSE_BITS_LIMIT` return ``None`` and
        callers fall back to :meth:`edge_keys` probes.  Treat the matrix
        as read-only.
        """
        if self._adjacency_bits is _UNSET:
            n = self.num_vertices
            width = (n + 7) >> 3
            if n * width > _DENSE_BITS_LIMIT:
                self._adjacency_bits = None
            else:
                bits = np.zeros(n * width, dtype=np.uint8)
                if self.indices.size:
                    srcs = np.repeat(
                        np.arange(n, dtype=np.int64), self.degree_array()
                    )
                    flat = srcs * np.int64(width) + (self.indices >> 3)
                    values = (
                        np.uint8(1) << (self.indices & 7).astype(np.uint8)
                    )
                    # flat is non-decreasing (rows in order, sorted rows),
                    # so same-byte runs are contiguous: OR each run once.
                    starts = np.flatnonzero(
                        np.concatenate(([True], flat[1:] != flat[:-1]))
                    )
                    bits[flat[starts]] = np.bitwise_or.reduceat(values, starts)
                self._adjacency_bits = bits.reshape(n, width)
        result = self._adjacency_bits
        assert result is None or isinstance(result, np.ndarray)
        return result

    def vertex_ids(self, labels: Sequence[Node]) -> np.ndarray:
        """Map node labels to integer vertex ids."""
        return np.fromiter(
            (self.index_of[label] for label in labels),
            dtype=np.int64,
            count=len(labels),
        )

    def labels(self, vertex_ids: Sequence[int]) -> list[Node]:
        """Map integer vertex ids back to node labels."""
        return [self.nodes[int(i)] for i in vertex_ids]

    def __repr__(self) -> str:
        return (
            f"<CSRGraph {self.num_vertices} vertices, "
            f"{self.num_half_edges} half-edges, "
            f"orientation={self.orientation!r}>"
        )


def freeze_directed(graph: DiGraph) -> tuple[CSRGraph, CSRGraph, CSRGraph]:
    """Freeze a directed graph into ``(union, out, in)`` CSR snapshots.

    All three orientations derive from a single successor-adjacency pass:
    the ``in`` rows are the transposed edge arrays re-sorted, the union
    rows the key-deduplicated symmetrisation — no second or third walk
    over the Python dicts.  Produces arrays bit-identical to three
    separate ``CSRGraph(graph, orientation=...)`` freezes.
    """
    if graph.number_of_nodes() == 0:
        raise GraphError(
            "cannot freeze an empty graph into CSR form; add vertices "
            "before constructing a CSRGraph"
        )
    index_of, nodes = integer_index(graph)
    n = len(nodes)
    counts, dsts = _edge_arrays(nodes, index_of, dict(graph.successors_adjacency()))
    srcs = np.repeat(np.arange(n, dtype=np.int64), counts)
    out_indptr, out_indices = _rows_from_counts(counts, dsts)
    # Transpose: group by destination, neighbours sorted by source.
    order = np.lexsort((srcs, dsts))
    in_counts = np.bincount(dsts, minlength=n)
    in_indptr = np.concatenate(([0], np.cumsum(in_counts)))
    union_indptr, union_indices = _union_rows(n, srcs, dsts)
    return (
        CSRGraph.from_arrays(
            union_indptr, union_indices, nodes, index_of, orientation="union"
        ),
        CSRGraph.from_arrays(
            out_indptr, out_indices, nodes, index_of, orientation="out"
        ),
        CSRGraph.from_arrays(
            in_indptr, srcs[order], nodes, index_of, orientation="in"
        ),
    )


# -- on-disk CSR directory format ---------------------------------------------

#: Format marker written into every ``meta.json``.
CSR_DIR_FORMAT = "repro-csr-dir"

#: Current on-disk format version.  Bump on any layout change; readers
#: refuse newer versions instead of misinterpreting them.
CSR_DIR_VERSION = 1

#: Elements per write when spooling an array to disk (32 MiB of int64).
_WRITE_CHUNK = 1 << 22


def _array_chunks(array: np.ndarray, chunk: int = _WRITE_CHUNK):
    """Yield bounded contiguous slices of ``array`` (for chunked IO)."""
    for start in range(0, array.size, chunk):
        yield array[start : start + chunk]


@bounded_memory("chunk")
class CSRDirWriter:
    """Incremental writer for one on-disk CSR directory.

    Arrays are appended chunk by chunk as raw little-endian ``int64``
    bytes — the natural sink for the external-merge freeze, which knows
    an array's length only after the last chunk.  :meth:`finalize` then
    records every array's shape in ``meta.json`` (written atomically via
    scratch + ``os.replace``); a directory without ``meta.json`` is
    unreadable, so a crashed write can never be mistaken for a store.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        n: int,
        directed: bool,
        name: str | None = None,
        overwrite: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        meta_path = self.directory / "meta.json"
        if meta_path.exists() and not overwrite:
            raise GraphError(
                f"{self.directory} already holds a CSR store; pass "
                f"overwrite=True (or choose a fresh directory) to replace it"
            )
        meta_path.unlink(missing_ok=True)
        self._n = int(n)
        self._directed = bool(directed)
        self._name = name
        self._counts: dict[str, int] = {}
        self._handles: dict[str, object] = {}
        self._finalized = False

    def append(self, array_name: str, chunk: np.ndarray) -> None:
        """Append one chunk of ``array_name`` (coerced to int64)."""
        if self._finalized:
            raise GraphError("CSRDirWriter already finalized")
        handle = self._handles.get(array_name)
        if handle is None:
            handle = open(self.directory / f"{array_name}.bin", "wb")
            self._handles[array_name] = handle
            self._counts[array_name] = 0
        data = np.ascontiguousarray(chunk, dtype=np.int64)
        for piece in _array_chunks(data):
            handle.write(piece.tobytes())  # type: ignore[union-attr]
        self._counts[array_name] += int(data.size)

    def close(self) -> None:
        """Close open array handles (safe to call repeatedly)."""
        for handle in self._handles.values():
            handle.close()  # type: ignore[union-attr]
        self._handles = {}

    def finalize(
        self,
        *,
        m: int,
        nodes: Sequence[Node] | None = None,
        median_degree: float | None = None,
    ) -> Path:
        """Close the arrays and write ``meta.json``; returns the directory.

        ``nodes`` carries explicit labels (JSON scalars only) for graphs
        whose labelling is not the identity; identity-labelled stores
        omit it and re-open with :class:`IdentityNodes`.
        """
        self.close()
        node_entry: str | None = None
        if nodes is not None:
            labels = list(nodes)
            for label in labels:
                if not isinstance(label, (str, int)) or isinstance(label, bool):
                    raise GraphError(
                        f"on-disk stores require str or int node labels "
                        f"(JSON round-trip); got {type(label).__name__}"
                    )
            node_entry = "nodes.json"
            (self.directory / node_entry).write_text(
                json.dumps(labels), encoding="utf-8"
            )
        meta = {
            "format": CSR_DIR_FORMAT,
            "version": CSR_DIR_VERSION,
            "n": self._n,
            "m": int(m),
            "directed": self._directed,
            "name": self._name,
            "nodes": node_entry,
            "median_degree": median_degree,
            "arrays": {
                array_name: {"file": f"{array_name}.bin", "count": count}
                for array_name, count in sorted(self._counts.items())
            },
        }
        meta_path = self.directory / "meta.json"
        scratch = meta_path.with_name(f".{meta_path.name}.{os.getpid()}.tmp")
        scratch.write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        os.replace(scratch, meta_path)
        self._finalized = True
        return self.directory


class CSRStore:
    """Read-only handle over one on-disk CSR directory.

    Arrays come back as ``mode="r"`` memmaps (never writable — lint rule
    REP405 holds every opener to that), so attaching a 10^8-edge store
    costs page-table entries, not RAM.
    """

    def __init__(self, directory: Path, meta: dict) -> None:
        self.directory = directory
        self.meta = meta

    def __contains__(self, array_name: str) -> bool:
        return array_name in self.meta["arrays"]

    def array_names(self) -> list[str]:
        """Names of the stored arrays, sorted."""
        return sorted(self.meta["arrays"])

    def array(self, array_name: str) -> np.ndarray:
        """Open one stored array as a read-only int64 memmap."""
        try:
            entry = self.meta["arrays"][array_name]
        except KeyError:
            raise GraphError(
                f"store {self.directory} has no array {array_name!r}; "
                f"available: {', '.join(self.array_names())}"
            ) from None
        count = int(entry["count"])
        path = self.directory / entry["file"]
        actual = path.stat().st_size
        if actual != count * 8:
            raise GraphError(
                f"corrupt CSR store: {path} holds {actual} bytes, "
                f"meta.json promises {count * 8}"
            )
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return np.memmap(path, dtype=np.int64, mode="r", shape=(count,))

    def node_index(self) -> tuple[Sequence[Node], dict]:
        """Rebuild ``(nodes, index_of)`` — virtual when labels are ids."""
        n = int(self.meta["n"])
        node_entry = self.meta.get("nodes")
        if node_entry is None:
            return IdentityNodes(n), IdentityIndex(n)
        labels = json.loads(
            (self.directory / node_entry).read_text(encoding="utf-8")
        )
        if len(labels) != n:
            raise GraphError(
                f"corrupt CSR store: {node_entry} lists {len(labels)} "
                f"labels for {n} vertices"
            )
        return labels, {label: i for i, label in enumerate(labels)}


def open_csr_dir(directory: str | Path) -> CSRStore:
    """Open an on-disk CSR directory written by :class:`CSRDirWriter`."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.is_file():
        raise GraphError(
            f"{directory} is not a CSR store (no meta.json); write one "
            f"with AnalysisContext.save or repro freeze"
        )
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    if meta.get("format") != CSR_DIR_FORMAT:
        raise GraphError(
            f"{meta_path} is not a {CSR_DIR_FORMAT} store "
            f"(format={meta.get('format')!r})"
        )
    version = int(meta.get("version", 0))
    if version > CSR_DIR_VERSION:
        raise GraphError(
            f"CSR store {directory} has format version {version}, newer "
            f"than this build supports ({CSR_DIR_VERSION}); upgrade repro"
        )
    return CSRStore(directory, meta)
