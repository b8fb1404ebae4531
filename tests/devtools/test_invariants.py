"""Invariant validator tests: deliberately corrupt graphs and assert the
corruption is detected."""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.devtools.invariants import validate, validate_conversion
from repro.engine import AnalysisContext
from repro.exceptions import InvariantViolation, ReproError
from repro.graph.convert import to_directed, to_undirected
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.synth import benchmark_stream, freeze_stream


@pytest.fixture
def graph() -> Graph:
    return Graph([(1, 2), (2, 3), (3, 1), (3, 4)])


@pytest.fixture
def digraph() -> DiGraph:
    return DiGraph([("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")])


def test_healthy_graphs_validate(graph, digraph):
    validate(graph)
    validate(digraph)
    validate(CSRGraph(graph))
    validate(CSRGraph(digraph, orientation="out"))
    validate(CSRGraph(digraph, orientation="in"))
    validate(CSRGraph(digraph))


def test_validate_rejects_unknown_types():
    with pytest.raises(TypeError):
        validate({"not": "a graph"})


def test_invariant_violation_is_a_repro_error():
    assert issubclass(InvariantViolation, ReproError)
    assert issubclass(InvariantViolation, AssertionError)


# -- undirected corruption ----------------------------------------------------


def test_detects_asymmetric_adjacency(graph):
    graph._adj[1].discard(2)
    with pytest.raises(InvariantViolation, match="asymmetric"):
        validate(graph)


def test_detects_self_loop(graph):
    graph._adj[2].add(2)
    with pytest.raises(InvariantViolation, match="self-loop"):
        validate(graph)


def test_detects_edge_count_drift(graph):
    graph._num_edges += 1
    with pytest.raises(InvariantViolation, match="edge-count drift"):
        validate(graph)


def test_detects_phantom_neighbor(graph):
    graph._adj[1].add(99)  # 99 is not a node
    with pytest.raises(InvariantViolation, match="not a node"):
        validate(graph)


# -- directed corruption ------------------------------------------------------


def test_detects_succ_pred_mirror_violation(digraph):
    digraph._pred["b"].discard("a")
    with pytest.raises(InvariantViolation, match="mirror|accounting"):
        validate(digraph)


def test_detects_node_set_disagreement(digraph):
    digraph._pred.pop("d")
    with pytest.raises(InvariantViolation, match="node sets"):
        validate(digraph)


def test_detects_directed_self_loop(digraph):
    digraph._succ["a"].add("a")
    digraph._pred["a"].add("a")
    with pytest.raises(InvariantViolation, match="self-loop"):
        validate(digraph)


def test_detects_directed_edge_count_drift(digraph):
    digraph._num_edges -= 1
    with pytest.raises(InvariantViolation, match="edge-count drift"):
        validate(digraph)


# -- CSR corruption -----------------------------------------------------------


def test_detects_nonmonotone_indptr(graph):
    csr = CSRGraph(graph)
    csr.indptr[1] = csr.indptr[2] + 1
    with pytest.raises(InvariantViolation, match="monotone"):
        validate(csr)


def test_detects_out_of_range_index(graph):
    csr = CSRGraph(graph)
    csr.indices[0] = 99
    with pytest.raises(InvariantViolation, match="out-of-range|sorted"):
        validate(csr)


def test_detects_unsorted_row(graph):
    csr = CSRGraph(graph)
    # Vertex 2 is node 3 (degree 3) — swap its first two neighbours.
    start = int(csr.indptr[2])
    first, second = int(csr.indices[start]), int(csr.indices[start + 1])
    csr.indices[start], csr.indices[start + 1] = second, first
    with pytest.raises(InvariantViolation, match="sorted"):
        validate(csr)


def test_detects_label_index_mismatch(graph):
    csr = CSRGraph(graph)
    csr.index_of[csr.nodes[0]] = 1
    with pytest.raises(InvariantViolation, match="maps to"):
        validate(csr)


# -- stores -------------------------------------------------------------------


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """An identity-labelled store, frozen the way ``repro freeze --scale``
    freezes one."""
    return freeze_stream(
        benchmark_stream(4000, seed=1), tmp_path_factory.mktemp("store") / "s"
    )


def test_opened_store_validates(store):
    validate(AnalysisContext.open(store))


def test_detects_unsorted_row_in_store(store, tmp_path):
    copy = shutil.copytree(store, tmp_path / "copy")
    indptr = np.fromfile(copy / "union.indptr.bin", dtype="<i8")
    row = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
    start = int(indptr[row])
    indices = np.memmap(copy / "union.indices.bin", dtype="<i8", mode="r+")
    indices[[start, start + 1]] = indices[[start + 1, start]]
    indices.flush()
    del indices
    with pytest.raises(InvariantViolation, match=f"row {row} is not strictly"):
        validate(AnalysisContext.open(copy))


# -- conversion agreement -----------------------------------------------------


def test_conversion_preserves_node_sets(digraph):
    validate_conversion(digraph, to_undirected(digraph))
    undirected = to_undirected(digraph)
    validate_conversion(undirected, to_directed(undirected))
    validate_conversion(digraph, CSRGraph(digraph))


def test_conversion_mismatch_detected(digraph):
    collapsed = to_undirected(digraph)
    collapsed.remove_node("d")
    with pytest.raises(InvariantViolation, match="node set"):
        validate_conversion(digraph, collapsed)


class TestContextValidation:
    def _context(self, directed=False):
        from repro.engine import AnalysisContext

        if directed:
            return AnalysisContext(
                DiGraph([("a", "b"), ("b", "a"), ("b", "c")])
            )
        return AnalysisContext(Graph([(1, 2), (2, 3), (3, 1), (3, 4)]))

    def test_healthy_contexts_validate(self):
        validate(self._context(directed=False))
        validate(self._context(directed=True))

    def test_detects_degree_array_drift(self):
        import numpy as np

        context = self._context()
        context._degree_array = np.zeros(context.num_vertices, dtype=np.int64)
        with pytest.raises(InvariantViolation, match="degree array"):
            validate(context)

    def test_detects_median_drift(self):
        context = self._context()
        context._median_degree = -1.0
        with pytest.raises(InvariantViolation, match="median"):
            validate(context)

    def test_detects_edge_count_drift(self):
        context = self._context()
        context.num_edges += 1
        with pytest.raises(InvariantViolation, match="edge-count"):
            validate(context)

    def test_detects_indptr_corruption_through_context(self):
        context = self._context()
        context.csr.indptr[1] = context.csr.indptr[2] + 1
        with pytest.raises(InvariantViolation):
            validate(context)

    def test_detects_directed_orientation_loss(self):
        context = self._context(directed=True)
        context.csr_in = None
        with pytest.raises(InvariantViolation, match="orientation"):
            validate(context)
