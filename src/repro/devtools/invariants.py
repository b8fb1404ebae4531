"""Runtime structural validation of the graph substrate.

The reproduction's numbers are only as trustworthy as the substrate under
them: a single asymmetric adjacency entry or a drifted edge count skews
conductance and Modularity for every group scored afterwards.
:func:`validate` checks the full set of structural invariants of
:class:`~repro.graph.Graph`, :class:`~repro.graph.DiGraph` and
:class:`~repro.graph.CSRGraph`:

* undirected adjacency is symmetric, directed ``_succ``/``_pred`` mirror
  each other, and both index the same node set;
* no self-loops (the social graph is simple);
* the incremental edge counter agrees with a recount;
* CSR ``indptr`` starts at 0, is monotone, and matches ``indices``;
  every CSR row is sorted, in-range, self-loop-free and duplicate-free;
  label/index mappings are mutually inverse;
* an :class:`~repro.engine.AnalysisContext` holds mutually consistent
  CSR orientations, degree arrays that match their ``indptr`` deltas,
  edge counts that match the adjacency totals, and a median equal to a
  recomputation from the degree array.

Nothing in the library calls the validators; the tests call them on
substrates they corrupt on purpose.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.exceptions import InvariantViolation
from repro.graph.csr import CSRGraph, IdentityIndex, IdentityNodes
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

__all__ = [
    "validate",
    "validate_graph",
    "validate_digraph",
    "validate_csr",
    "validate_context",
    "validate_conversion",
]


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def validate_graph(graph: Graph) -> None:
    """Check every structural invariant of an undirected :class:`Graph`."""
    adj = graph._adj  # noqa: SLF001 - validator inspects internals
    half_edges = 0
    for node, neighbors in adj.items():
        if node in neighbors:
            _fail(f"self-loop on node {node!r}")
        half_edges += len(neighbors)
        for other in neighbors:
            if other not in adj:
                _fail(
                    f"neighbour {other!r} of {node!r} is not a node "
                    "of the graph"
                )
            if node not in adj[other]:
                _fail(
                    f"asymmetric adjacency: {other!r} in adj[{node!r}] "
                    f"but {node!r} not in adj[{other!r}]"
                )
    if half_edges % 2 != 0:
        _fail(f"odd half-edge total {half_edges} in an undirected graph")
    recount = half_edges // 2
    if graph.number_of_edges() != recount:
        _fail(
            f"edge-count drift: counter says {graph.number_of_edges()}, "
            f"adjacency holds {recount}"
        )


def validate_digraph(graph: DiGraph) -> None:
    """Check every structural invariant of a :class:`DiGraph`."""
    succ = graph._succ  # noqa: SLF001 - validator inspects internals
    pred = graph._pred  # noqa: SLF001
    if succ.keys() != pred.keys():
        missing = set(succ.keys()) ^ set(pred.keys())
        _fail(f"node sets of _succ and _pred disagree on {sorted(map(repr, missing))}")
    out_edges = 0
    for node, successors in succ.items():
        if node in successors:
            _fail(f"self-loop on node {node!r}")
        out_edges += len(successors)
        for other in successors:
            if other not in pred:
                _fail(
                    f"successor {other!r} of {node!r} is not a node "
                    "of the graph"
                )
            if node not in pred[other]:
                _fail(
                    f"mirror violation: edge {node!r}->{other!r} in _succ "
                    "has no _pred entry"
                )
    in_edges = sum(len(predecessors) for predecessors in pred.values())
    if in_edges != out_edges:
        _fail(
            f"half-edge accounting: {out_edges} successor entries vs "
            f"{in_edges} predecessor entries"
        )
    if graph.number_of_edges() != out_edges:
        _fail(
            f"edge-count drift: counter says {graph.number_of_edges()}, "
            f"adjacency holds {out_edges}"
        )


def validate_csr(csr: CSRGraph) -> None:
    """Check the structural invariants of a :class:`CSRGraph` snapshot.

    The row checks are whole-array numpy passes, and an identity
    labelling (a store-opened or worker-side CSR) is checked by its type
    and length, not label by label.
    """
    indptr, indices = np.asarray(csr.indptr), np.asarray(csr.indices)
    n = csr.num_vertices
    if len(indptr) != n + 1:
        _fail(f"indptr has {len(indptr)} entries for {n} vertices")
    if n and indptr[0] != 0:
        _fail(f"indptr[0] == {indptr[0]}, expected 0")
    steps = np.diff(indptr)
    falls = np.flatnonzero(steps < 0)
    if falls.size:
        _fail(f"indptr not monotone at position {falls[0]}")
    if len(indptr) and indptr[-1] != len(indices):
        _fail(
            f"indptr[-1] == {indptr[-1]} but indices has {len(indices)} entries"
        )
    if n:
        rows = np.repeat(np.arange(n, dtype=np.int64), steps)
        out_of_range = (indices < 0) | (indices >= n)
        self_loop = indices == rows
        # Each entry against its predecessor in the row; a row's first
        # entry has none.
        unsorted = np.zeros(len(indices), dtype=bool)
        unsorted[1:] = indices[1:] <= indices[:-1]
        unsorted[indptr[:-1][steps > 0]] = False
        bad = np.flatnonzero(out_of_range | self_loop | unsorted)
        if bad.size:
            position = bad[0]
            vertex, neighbor = rows[position], indices[position]
            if out_of_range[position]:
                _fail(f"row {vertex} references out-of-range vertex {neighbor}")
            if self_loop[position]:
                _fail(f"self-loop in CSR row {vertex}")
            _fail(f"row {vertex} is not strictly sorted")
    nodes, index_of = csr.nodes, csr.index_of
    if isinstance(index_of, IdentityIndex):
        # Answers lookups through ``__missing__`` and holds no entries:
        # its type and bound are the whole mapping.
        bound = index_of._n  # noqa: SLF001 - validator inspects internals
        identity = isinstance(nodes, IdentityNodes) and len(nodes) == n
        if not identity or bound != n:
            _fail(
                f"{len(nodes)} labels but an identity index over {bound} ids"
            )
        return
    if len(nodes) != len(index_of):
        _fail(f"{len(nodes)} labels but {len(index_of)} index entries")
    for i, label in enumerate(nodes):
        if index_of.get(label) != i:
            _fail(f"label {label!r} maps to {index_of.get(label)}, not {i}")


def validate_context(context: Any) -> None:
    """Check the consistency invariants of an
    :class:`~repro.engine.AnalysisContext`.

    Beyond per-CSR validity this pins the *cross-structure* contracts the
    engine kernels rely on: all orientations index the same vertex set in
    the same order, cached degree arrays equal their ``indptr`` deltas,
    the snapshotted edge count matches the adjacency totals, and the
    cached median is a recomputation from the degree array.
    """
    csr = context.csr
    validate_csr(csr)
    if csr.orientation != "union":
        _fail(f"context.csr has orientation {csr.orientation!r}, not 'union'")
    if context.num_vertices != csr.num_vertices:
        _fail(
            f"context says {context.num_vertices} vertices, "
            f"CSR holds {csr.num_vertices}"
        )
    if context.is_directed:
        if context.csr_out is None or context.csr_in is None:
            _fail("directed context lacks an out/in CSR orientation")
        for oriented, expected in (
            (context.csr_out, "out"),
            (context.csr_in, "in"),
        ):
            validate_csr(oriented)
            if oriented.orientation != expected:
                _fail(
                    f"context.csr_{expected} has orientation "
                    f"{oriented.orientation!r}"
                )
            if oriented.nodes != csr.nodes:
                _fail(
                    f"vertex ordering of the {expected!r} orientation "
                    "disagrees with the union CSR"
                )
        out_total = context.csr_out.num_half_edges
        in_total = context.csr_in.num_half_edges
        if out_total != in_total:
            _fail(
                f"out adjacency holds {out_total} edges but in adjacency "
                f"holds {in_total}"
            )
        if context.num_edges != out_total:
            _fail(
                f"edge-count drift: context snapshotted {context.num_edges} "
                f"edges, out-CSR holds {out_total}"
            )
        expected_degrees = (
            context.csr_out.degree_array() + context.csr_in.degree_array()
        )
    else:
        if context.csr_out is not None or context.csr_in is not None:
            _fail("undirected context carries directed CSR orientations")
        if csr.num_half_edges != 2 * context.num_edges:
            _fail(
                f"edge-count drift: context snapshotted {context.num_edges} "
                f"edges, union CSR holds {csr.num_half_edges} half-edges"
            )
        expected_degrees = csr.degree_array()
    degrees = context.degree_array
    if not np.array_equal(degrees, expected_degrees):
        _fail("context degree array disagrees with its CSR indptr deltas")
    if not np.array_equal(csr.degree_array(), np.diff(csr.indptr)):
        _fail("cached CSR degree array disagrees with indptr deltas")
    median = float(np.median(degrees))
    if context.median_degree != median:
        _fail(
            f"cached median degree {context.median_degree} != "
            f"recomputed {median}"
        )


def validate_conversion(source: Any, derived: Any) -> None:
    """Check node-set agreement between a graph and a converted form.

    Applies after :func:`repro.graph.convert.to_undirected` /
    :func:`~repro.graph.convert.to_directed` and CSR freezing: every
    conversion in this library preserves the vertex set exactly.
    """
    source_nodes = set(source.nodes)
    derived_nodes = set(derived.nodes)
    if source_nodes != derived_nodes:
        missing = source_nodes - derived_nodes
        extra = derived_nodes - source_nodes
        _fail(
            f"conversion changed the node set: {len(missing)} dropped, "
            f"{len(extra)} invented"
        )


def validate(obj: Any) -> None:
    """Validate any supported substrate object; raise on corruption.

    Accepts :class:`Graph`, :class:`DiGraph`, :class:`CSRGraph` and
    :class:`~repro.engine.AnalysisContext`.
    """
    # Imported here so that validating a graph does not load the engine.
    from repro.engine.context import AnalysisContext

    if isinstance(obj, Graph):
        validate_graph(obj)
    elif isinstance(obj, DiGraph):
        validate_digraph(obj)
    elif isinstance(obj, CSRGraph):
        validate_csr(obj)
    elif isinstance(obj, AnalysisContext):
        validate_context(obj)
    else:
        raise TypeError(f"cannot validate object of type {type(obj).__name__}")
