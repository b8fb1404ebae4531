"""Engine batch stats vs the legacy per-group oracle.

The engine's acceptance bar is *bit-identical* agreement with the legacy
dict sweep :func:`oracles.stats.compute_group_stats` — same counts, same
arrays, same error types — on arbitrary graphs including the edge cases
(singleton groups, the whole graph as one group, duplicate members), and
on a synthetic Google+ corpus together with the paper's four scores.
The gather kernel is also checked with its chunk cut to three entries,
and its peak memory is checked to stay flat as the members' degrees
grow.
"""

import dataclasses
import random
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.batch as batch_module
from repro.engine import AnalysisContext, batch_group_stats_columns
from repro.exceptions import EmptyGroupError, NodeNotFound
from repro.graph.csr import (
    CSRGraph,
    IdentityIndex,
    IdentityNodes,
    _union_rows,
)
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.columnar import score_matrix
from repro.scoring.registry import make_paper_functions
from repro.synth.paper_datasets import GOOGLE_PLUS_CONFIG, build_google_plus

from oracles.scoring import row, scalar_twin
from oracles.stats import batch_group_stats, compute_group_stats, group_stats

#: Gather chunk sizes the kernel is checked at: its default, and three
#: entries, so rows span chunks and one row can exceed a chunk.
CHUNKS = {"default": batch_module.GATHER_CHUNK, "chunk3": 3}


@contextmanager
def gather_chunk(name):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_module, "GATHER_CHUNK", CHUNKS[name])
        yield


@st.composite
def graph_and_groups(draw, directed):
    """A random graph plus member lists, always including a singleton
    group and the whole vertex set."""
    n = draw(st.integers(min_value=2, max_value=20))
    nodes = [f"v{i:02d}" for i in range(n)]
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    edges = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * n)
    )
    graph = DiGraph() if directed else Graph()
    for node in nodes:
        graph.add_node(node)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    for u, v in edges:
        if directed and rng.random() < 0.5:
            u, v = v, u
        graph.add_edge(u, v)
    groups = draw(
        st.lists(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=n),
            min_size=0,
            max_size=5,
        )
    )
    groups.append([nodes[0]])  # singleton
    groups.append(list(nodes))  # the whole graph
    return graph, groups


def assert_stats_identical(got, want):
    assert got.members == want.members
    assert got.n == want.n
    assert got.m == want.m
    assert got.n_C == want.n_C
    assert got.m_C == want.m_C
    assert got.c_C == want.c_C
    assert got.directed == want.directed
    assert got.graph_median_degree == want.graph_median_degree
    for attribute in (
        "member_degrees",
        "member_internal_degrees",
        "member_in_degrees",
        "member_out_degrees",
    ):
        left, right = getattr(got, attribute), getattr(want, attribute)
        assert left.dtype == right.dtype, attribute
        assert np.array_equal(left, right), attribute
    assert len(got.member_internal_neighbors) == len(
        want.member_internal_neighbors
    )
    for left, right in zip(
        got.member_internal_neighbors, want.member_internal_neighbors
    ):
        assert np.array_equal(left, right)


@pytest.mark.parametrize(
    "strategy,chunk",
    [
        pytest.param("pairs", "default", id="pairs"),
        pytest.param("gather", "default", id="gather"),
        pytest.param("gather", "chunk3", id="gather-chunk3"),
    ],
)
@pytest.mark.parametrize("directed", [False, True])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_engine_matches_legacy_oracle(directed, strategy, chunk, data):
    graph, groups = data.draw(graph_and_groups(directed))
    context = AnalysisContext(graph)
    median = context.median_degree
    with gather_chunk(chunk):
        batch = batch_group_stats(
            context,
            groups,
            graph_median_degree=median,
            include_internal_adjacency=True,
            strategy=strategy,
        )
    assert len(batch) == len(groups)
    for members, got in zip(groups, batch):
        want = compute_group_stats(graph, members, graph_median_degree=median)
        assert_stats_identical(got, want)


def test_google_plus_corpus_matches_legacy_oracle():
    """Every circle of an 8-ego synthetic Google+ corpus: the production
    pass's stats and paper-function scores equal the dict sweep's."""
    config = dataclasses.replace(GOOGLE_PLUS_CONFIG, num_egos=8)
    dataset = build_google_plus(config=config)
    member_lists = [
        list(group.members)
        for group in dataset.groups.filter_by_size(minimum=2)
    ]
    assert len(member_lists) >= 20
    batch = batch_group_stats_columns(
        AnalysisContext(dataset.graph),
        member_lists,
        include_internal_adjacency=True,
    )
    want = [
        compute_group_stats(dataset.graph, members)
        for members in member_lists
    ]
    assert len(batch) == len(want)
    for i, oracle in enumerate(want):
        assert_stats_identical(row(batch, i), oracle)
    functions = make_paper_functions()
    scores = score_matrix(functions, batch)
    for j, function in enumerate(functions):
        twin = scalar_twin(function)
        oracle_scores = np.array(
            [twin(stats) for stats in want], dtype=np.float64
        )
        assert scores[:, j].tobytes() == oracle_scores.tobytes(), function.name


class TestBatchSemantics:
    def test_duplicates_deduplicated(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        stats = group_stats(context, [1, 1, 2, 2])
        assert stats.n_C == 2
        assert stats.members == (1, 2)

    def test_empty_group_raises(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        with pytest.raises(EmptyGroupError):
            batch_group_stats(context, [[]])

    def test_missing_member_raises(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        with pytest.raises(NodeNotFound):
            batch_group_stats(context, [[1, 999]])

    def test_mask_reset_after_error(self, triangle_graph):
        # A failed group must not leak membership into later batches.
        context = AnalysisContext(triangle_graph)
        with pytest.raises(NodeNotFound):
            batch_group_stats(context, [[1, 2], [999]])
        stats = group_stats(context, [3, 4])
        want = compute_group_stats(triangle_graph, [3, 4])
        assert stats.m_C == want.m_C
        assert stats.c_C == want.c_C

    def test_internal_adjacency_opt_in(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        assert group_stats(context, [1, 2]).member_internal_neighbors is None
        rows = group_stats(
            context, [1, 2], include_internal_adjacency=True
        ).member_internal_neighbors
        assert rows is not None
        assert [row.tolist() for row in rows] == [[1], [0]]

    def test_median_threaded_through(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        stats = group_stats(context, [1, 2], graph_median_degree=2.5)
        assert stats.graph_median_degree == 2.5

    def test_directed_counts_each_arc_once(self, small_digraph):
        context = AnalysisContext(small_digraph)
        stats = group_stats(context, ["a", "b"])
        assert stats.m_C == 2  # the reciprocal pair is two directed arcs
        assert stats.c_C == 1  # b -> c


class TestGatherKernelEdgeCases:
    """Deterministic gather cases the hypothesis oracle rarely reaches."""

    @pytest.fixture(params=list(CHUNKS))
    def chunk(self, request):
        with gather_chunk(request.param):
            yield

    @staticmethod
    def check(graph, groups):
        context = AnalysisContext(graph)
        batch = batch_group_stats(
            context, groups, include_internal_adjacency=True, strategy="gather"
        )
        assert len(batch) == len(groups)
        for members, got in zip(groups, batch):
            assert_stats_identical(got, compute_group_stats(graph, members))

    def test_vertex_in_several_groups(self, chunk):
        # Vertex 0 is in every group and a neighbour of most members; 2
        # and 6 are in two groups each.  Vertex 0's row (degree 7) is
        # longer than a 3-entry chunk.
        graph = Graph(
            [(0, v) for v in range(1, 8)]
            + [(1, 2), (2, 3), (3, 4), (4, 6), (5, 6), (6, 7), (8, 9), (1, 9)]
        )
        self.check(
            graph,
            [[0, 1, 2, 3], [2, 0, 4, 6], [0, 5, 6, 7], [1, 8, 9, 0], [9, 8]],
        )

    def test_zero_degree_members_first_middle_and_last(self, chunk):
        graph = Graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        for label in ("z0", "z1", "z2", "z3"):
            graph.add_node(label)
        self.check(
            graph,
            [
                ["z0", "a", "b", "z1", "c", "z2"],  # within one group
                ["z3"],  # a whole group of zero-degree members
                ["a", "d", "z0", "z1", "z2", "z3"],  # trailing run
                ["z1", "z2"],  # the batch ends on zero-degree rows
            ],
        )
        self.check(graph, [["z0", "z1"], ["z2"]])  # nothing to gather

    def test_directed_with_internal_adjacency(self, chunk):
        arcs = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "b")]
        arcs += [("e", "a"), ("a", "e"), ("d", "e"), ("c", "a")]
        graph = DiGraph(arcs)
        graph.add_node("z")
        self.check(
            graph,
            [["a", "b", "c"], ["b", "d", "e", "z"], ["e", "a", "c", "d"]],
        )


def _random_context(n, mean_degree, seed):
    """An undirected random graph on ``0 .. n-1``, frozen from arrays."""
    rng = np.random.default_rng(seed)
    arcs = n * mean_degree // 2
    indptr, indices = _union_rows(
        n, rng.integers(0, n, size=arcs), rng.integers(0, n, size=arcs)
    )
    csr = CSRGraph.from_arrays(
        indptr, indices, IdentityNodes(n), IdentityIndex(n)
    )
    return AnalysisContext.from_parts(
        csr, None, None, num_edges=len(indices) // 2, is_directed=False
    )


def _gather_peak_bytes(context, groups):
    """Traced peak allocation of one gather pass over ``groups``."""
    # A first pass fills the context's lazy degree cache.
    batch_group_stats_columns(context, groups, strategy="gather")
    tracemalloc.start()
    try:
        batch_group_stats_columns(context, groups, strategy="gather")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gather_memory_is_bounded_by_the_chunk():
    """Quadrupling the gathered entries leaves the peak allocation flat.

    numpy reports its buffers to ``tracemalloc``.  A kernel whose
    temporaries scale with the gathered entries, not with the chunk,
    peaks about 3.5x higher at mean degree 32 than at mean degree 8.
    """
    n = 20_000
    rng = np.random.default_rng(7)
    groups = [
        rng.choice(n, size=50, replace=False).tolist() for _ in range(400)
    ]
    peaks = {
        degree: _gather_peak_bytes(
            _random_context(n, degree, seed=degree), groups
        )
        for degree in (8, 32)
    }
    assert peaks[32] <= 1.25 * peaks[8], peaks
