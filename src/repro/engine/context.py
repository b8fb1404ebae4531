"""The freeze-once analysis substrate: :class:`AnalysisContext`.

Every batch experiment of the paper (Fig. 5/6, §IV-B) evaluates scoring
functions over hundreds of groups of one graph, and every experiment used
to re-derive the same degree arrays, edge counts, medians and CSR freezes
independently.  An :class:`AnalysisContext` freezes a
:class:`~repro.graph.Graph` or :class:`~repro.graph.DiGraph` exactly once
into integer-indexed CSR form plus the graph-wide caches every downstream
consumer shares:

* the union-orientation :class:`~repro.graph.CSRGraph` (and, for directed
  graphs, the ``out``/``in`` orientations feeding directed group stats);
* the total-degree array and graph-wide median degree (FOMD's reference);
* the vertex/edge counts ``n``/``m`` snapshotted at freeze time.

The contract is **freeze once, read forever**: a context never observes
later mutations of the source graph.  Construct it after the graph is
final, then hand the *context* (not the graph) to
:func:`repro.engine.batch_group_stats_columns`, the samplers and the
experiment drivers.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.exceptions import GraphError, NodeNotFound
from repro.obs import instruments
from repro.graph.csr import (
    CSRDirWriter,
    CSRGraph,
    IdentityIndex,
    _check_frozen_array,
    freeze_directed,
    is_identity_nodes,
    open_csr_dir,
)
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

Node = Hashable

__all__ = ["AnalysisContext", "CSRBuffers"]


def _contiguous(array: np.ndarray) -> np.ndarray:
    # Preserve already-contiguous arrays as-is: np.ascontiguousarray would
    # re-wrap a memmap as a plain ndarray view and lose its file identity,
    # which the shared-memory exporter needs to hand workers a path
    # instead of a copy.
    return array if array.flags.c_contiguous else np.ascontiguousarray(array)


@dataclass(frozen=True)
class CSRBuffers:
    """Raw contiguous CSR arrays of one frozen orientation.

    The single code path through which anything reads a context's bytes
    wholesale: the manifest fingerprint hashes them, the shared-memory
    exporter copies them.  Arrays are C-contiguous and dtype-stable
    (``int64``), so ``tobytes()`` and buffer copies agree across
    processes.
    """

    orientation: str
    indptr: np.ndarray
    indices: np.ndarray

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """Return the named arrays in canonical (hashing/export) order."""
        return [("indptr", self.indptr), ("indices", self.indices)]

    @property
    def nbytes(self) -> int:
        """Total payload size of both arrays in bytes."""
        return int(self.indptr.nbytes + self.indices.nbytes)


class AnalysisContext:
    """One frozen, integer-indexed view of a graph shared by scoring,
    sampling and experiments.

    Attributes
    ----------
    graph:
        The source graph, or ``None`` for a context assembled from
        frozen parts; the engine kernels and samplers never touch it.
    csr:
        Union-orientation CSR snapshot (undirected skeleton).
    csr_out, csr_in:
        Directed out/in orientations; ``None`` for undirected graphs.
    """

    __slots__ = (
        "graph",
        "csr",
        "csr_out",
        "csr_in",
        "num_vertices",
        "num_edges",
        "is_directed",
        "name",
        "mmap_dir",
        "_degree_array",
        "_median_degree",
        "_label_rank",
        "_ids_in_label_order",
        "_fingerprint",
    )

    def __init__(self, graph: "Graph | DiGraph | AnalysisContext") -> None:
        if isinstance(graph, AnalysisContext):
            # Already frozen: adopt the snapshot (freeze-once contract).
            for slot in self.__slots__:
                setattr(self, slot, getattr(graph, slot))
            return
        if graph.number_of_nodes() == 0:
            raise GraphError(
                "cannot freeze an empty graph into an AnalysisContext"
            )
        self.graph = graph
        self.is_directed = bool(graph.is_directed)
        with obs.span("engine.freeze"):
            if self.is_directed:
                # One adjacency pass yields all three orientations.
                self.csr, self.csr_out, self.csr_in = freeze_directed(graph)
            else:
                self.csr = CSRGraph(graph)
                self.csr_out = None
                self.csr_in = None
        instruments.CONTEXTS_FROZEN.inc()
        self.num_vertices = self.csr.num_vertices
        self.num_edges = graph.number_of_edges()
        self.name = getattr(graph, "name", None)
        self.mmap_dir: Path | None = None
        self._degree_array: np.ndarray | None = None
        self._median_degree: float | None = None
        self._label_rank: np.ndarray | None = None
        self._ids_in_label_order: bool | None = None
        self._fingerprint: str | None = None

    @classmethod
    def from_parts(
        cls,
        csr: CSRGraph,
        csr_out: CSRGraph | None,
        csr_in: CSRGraph | None,
        *,
        num_edges: int,
        is_directed: bool,
        degree_array: np.ndarray | None = None,
        median_degree: float | None = None,
        label_rank: np.ndarray | None = None,
        graph: "Graph | DiGraph | None" = None,
        name: str | None = None,
    ) -> "AnalysisContext":
        """Assemble a context directly from already-frozen parts.

        Trusted constructor for callers that rebuild a snapshot from
        exported arrays (the shared-memory workers, :meth:`open`, the
        delta path): no graph traversal, no freeze span, no re-derivation
        of caches the parent already computed.  ``graph`` may be ``None``
        — such a context serves every kernel and sampler; ``name`` then
        identifies it in manifests.
        Provided arrays are validated like every frozen buffer (int64,
        contiguous, no writable aliasing) but never copied.
        """
        self = object.__new__(cls)
        self.graph = graph  # type: ignore[assignment]
        self.csr = csr
        self.csr_out = csr_out
        self.csr_in = csr_in
        self.num_vertices = csr.num_vertices
        self.num_edges = num_edges
        self.is_directed = is_directed
        self.name = name if name is not None else getattr(graph, "name", None)
        self.mmap_dir = None
        if degree_array is not None:
            degree_array = _check_frozen_array("degree_array", degree_array)
        if label_rank is not None:
            label_rank = _check_frozen_array("label_rank", label_rank)
        self._degree_array = degree_array
        self._median_degree = median_degree
        self._label_rank = label_rank
        self._ids_in_label_order = None
        self._fingerprint = None
        return self

    @classmethod
    def ensure(
        cls, source: "Graph | DiGraph | AnalysisContext"
    ) -> "AnalysisContext":
        """Return ``source`` if already a context, else freeze it once.

        A context whose source graph has gained or lost nodes or edges
        since its freeze no longer describes that graph, so it raises
        :class:`GraphError` instead of serving stale scores and samples.
        """
        if isinstance(source, AnalysisContext):
            graph = source.graph
            if graph is not None and (
                graph.number_of_nodes() != source.num_vertices
                or graph.number_of_edges() != source.num_edges
            ):
                raise GraphError(
                    f"graph {source.display_name or '(unnamed)'} was mutated "
                    f"after its freeze: {source.num_vertices} nodes and "
                    f"{source.num_edges} edges then, "
                    f"{graph.number_of_nodes()} and "
                    f"{graph.number_of_edges()} now; freeze the final graph "
                    "into a new AnalysisContext"
                )
            return source
        return cls(source)

    # -- on-disk persistence -------------------------------------------------

    def save(
        self, directory: str | Path, *, overwrite: bool = False
    ) -> Path:
        """Persist this frozen context as an on-disk CSR directory.

        Writes every orientation's buffers plus the degree array chunk
        by chunk (see :class:`repro.graph.csr.CSRDirWriter`), so saving
        a memmap-backed context never loads it into RAM.  Identity
        labellings (``0 .. n-1``) are stored as a marker, not a list.
        Re-opening with :meth:`open` yields a context whose fingerprint,
        scores and cache keys are byte-identical to this one.
        """
        with obs.span("engine.save"):
            writer = CSRDirWriter(
                directory,
                n=self.num_vertices,
                directed=self.is_directed,
                name=self.display_name,
                overwrite=overwrite,
            )
            try:
                for orientation, buffers in self.csr_buffers().items():
                    for array_name, array in buffers.arrays():
                        writer.append(f"{orientation}.{array_name}", array)
                writer.append("degree", self.degree_array)
                nodes = None
                if not is_identity_nodes(self.csr.nodes):
                    nodes = list(self.csr.nodes)
                return writer.finalize(
                    m=self.num_edges,
                    nodes=nodes,
                    median_degree=self.median_degree,
                )
            finally:
                writer.close()

    @classmethod
    def open(cls, directory: str | Path) -> "AnalysisContext":
        """Attach an on-disk CSR store as a read-only frozen context.

        Arrays come back as ``mode="r"`` memmaps: opening a 10^8-edge
        store is O(1) in RAM, and page cache is shared across every
        process that attaches the same store (the parallel executor
        hands workers the file paths instead of shared-memory copies).
        """
        store = open_csr_dir(directory)
        meta = store.meta
        nodes, index_of = store.node_index()
        union = CSRGraph.from_arrays(
            store.array("union.indptr"),
            store.array("union.indices"),
            nodes,  # type: ignore[arg-type]
            index_of,
            orientation="union",
        )
        csr_out = csr_in = None
        if meta["directed"]:
            csr_out = CSRGraph.from_arrays(
                store.array("out.indptr"),
                store.array("out.indices"),
                nodes,  # type: ignore[arg-type]
                index_of,
                orientation="out",
            )
            csr_in = CSRGraph.from_arrays(
                store.array("in.indptr"),
                store.array("in.indices"),
                nodes,  # type: ignore[arg-type]
                index_of,
                orientation="in",
            )
        median = meta.get("median_degree")
        context = cls.from_parts(
            union,
            csr_out,
            csr_in,
            num_edges=int(meta["m"]),
            is_directed=bool(meta["directed"]),
            degree_array=store.array("degree") if "degree" in store else None,
            median_degree=float(median) if median is not None else None,
            name=meta.get("name"),
        )
        context.mmap_dir = store.directory
        instruments.CONTEXTS_OPENED.inc()
        return context

    @property
    def display_name(self) -> str | None:
        """Best human-readable identity: the graph's name, else our own."""
        if self.graph is not None and getattr(self.graph, "name", None):
            return self.graph.name
        return self.name

    # -- label <-> integer boundary ------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        """Node labels; ``nodes[i]`` is the label of vertex ``i``."""
        return self.csr.nodes

    @property
    def index_of(self) -> dict[Node, int]:
        """Inverse mapping from label to integer vertex id."""
        return self.csr.index_of

    def __contains__(self, label: object) -> bool:
        return label in self.csr.index_of

    def vertex_ids(self, labels: Iterable[Node]) -> np.ndarray:
        """Map labels to integer vertex ids; the first unknown label
        raises :class:`~repro.exceptions.NodeNotFound`."""
        labels = list(labels)
        ids, known = self.lookup(labels)
        if not known.all():
            raise NodeNotFound(labels[int(np.argmin(known))])
        return ids

    def lookup(self, labels: Sequence[Node]) -> tuple[np.ndarray, np.ndarray]:
        """Look every label up at once: ``(ids, known)``.

        ``known[i]`` is ``labels[i] in self`` and ``ids[i]`` its vertex
        id wherever ``known[i]`` (``-1`` elsewhere).  Integer labels of
        an identity-labelled context take one numpy pass.
        """
        index_of = self.csr.index_of
        count = len(labels)
        if isinstance(index_of, IdentityIndex):
            resolved = index_of.resolve(labels)
            if resolved is not None:
                return resolved
            contains = index_of.__contains__
            ids = np.fromiter(
                (int(label) if contains(label) else -1 for label in labels),
                dtype=np.int64,
                count=count,
            )
        else:
            get = index_of.get
            ids = np.fromiter(
                (get(label, -1) for label in labels),
                dtype=np.int64,
                count=count,
            )
        return ids, ids >= 0

    def labels(self, vertex_ids: Sequence[int] | np.ndarray) -> list[Node]:
        """Map integer vertex ids back to node labels."""
        return self.csr.labels(vertex_ids)

    # -- raw buffer access ---------------------------------------------------

    def csr_buffers(self) -> dict[str, CSRBuffers]:
        """Raw CSR arrays per frozen orientation, in canonical order.

        Keys are ``"union"`` and, for directed graphs, ``"out"`` and
        ``"in"``.  Both the manifest fingerprint and the shared-memory
        export read through this accessor, so the bytes they see are the
        same by construction.
        """
        buffers = {
            "union": CSRBuffers(
                orientation="union",
                indptr=_contiguous(self.csr.indptr),
                indices=_contiguous(self.csr.indices),
            )
        }
        if self.csr_out is not None:
            buffers["out"] = CSRBuffers(
                orientation="out",
                indptr=_contiguous(self.csr_out.indptr),
                indices=_contiguous(self.csr_out.indices),
            )
        if self.csr_in is not None:
            buffers["in"] = CSRBuffers(
                orientation="in",
                indptr=_contiguous(self.csr_in.indptr),
                indices=_contiguous(self.csr_in.indices),
            )
        return buffers

    # -- cached graph-wide quantities ----------------------------------------

    @property
    def degree_array(self) -> np.ndarray:
        """Total degree of every vertex (``d_in + d_out`` when directed).

        Directed graphs count a reciprocal pair once per direction, the
        paper's ``d(v) = d_in(v) + d_out(v)`` convention — which is why
        this is *not* the union-CSR degree.
        """
        if self._degree_array is None:
            if self.is_directed:
                assert self.csr_out is not None and self.csr_in is not None
                self._degree_array = (
                    self.csr_out.degree_array() + self.csr_in.degree_array()
                )
            else:
                self._degree_array = self.csr.degree_array()
        return self._degree_array

    @property
    def out_degree_array(self) -> np.ndarray:
        """Out-degree of every vertex (equals total degree if undirected)."""
        if self.csr_out is not None:
            return self.csr_out.degree_array()
        return self.csr.degree_array()

    @property
    def in_degree_array(self) -> np.ndarray:
        """In-degree of every vertex (equals total degree if undirected)."""
        if self.csr_in is not None:
            return self.csr_in.degree_array()
        return self.csr.degree_array()

    @property
    def median_degree(self) -> float:
        """Graph-wide median total degree (FOMD's reference), cached."""
        if self._median_degree is None:
            self._median_degree = float(np.median(self.degree_array))
        return self._median_degree

    @property
    def label_rank(self) -> np.ndarray:
        """Rank of every vertex's label in deterministic label order.

        ``label_rank[i]`` is the position label ``nodes[i]`` takes in
        :func:`repro.graph.convert.stable_sorted` order.  The samplers
        order candidate ids by this rank so they replay the legacy
        label-level samplers' random sequences exactly.
        """
        if self._label_rank is None:
            nodes = self.csr.nodes
            if is_identity_nodes(nodes):
                # Identity labels sort as themselves: rank == id.  This
                # keeps 10^7-vertex on-disk contexts from paying an
                # O(n log n) Python sort for an arange.
                self._label_rank = np.arange(len(nodes), dtype=np.int64)
                return self._label_rank
            order = list(range(len(nodes)))
            try:
                order.sort(key=lambda i: nodes[i])
            except TypeError:
                order.sort(key=lambda i: repr(nodes[i]))
            rank = np.empty(len(nodes), dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(
                len(nodes), dtype=np.int64
            )
            self._label_rank = rank
        return self._label_rank

    @property
    def ids_in_label_order(self) -> bool:
        """Whether vertex ids already run in label order (rank == id).

        Decided once per context: an identity labelling answers without
        building :attr:`label_rank`, any other context compares its rank
        with ``arange(n)`` once.  The random-walk sampler sorts its
        candidates by rank only when this is false, and the parallel
        executor ships the rank to its workers only then.
        """
        if self._ids_in_label_order is None:
            if self._label_rank is None and is_identity_nodes(self.csr.nodes):
                self._ids_in_label_order = True
            else:
                rank = self.label_rank
                self._ids_in_label_order = bool(
                    np.array_equal(rank, np.arange(rank.size, dtype=np.int64))
                )
        return self._ids_in_label_order

    def __repr__(self) -> str:
        kind = "directed" if self.is_directed else "undirected"
        return (
            f"<AnalysisContext {kind} n={self.num_vertices} "
            f"m={self.num_edges}>"
        )
