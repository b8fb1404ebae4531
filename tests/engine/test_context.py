"""AnalysisContext freeze-once contract and cached graph-wide quantities."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.groups import GroupSet, VertexGroup
from repro.engine import AnalysisContext
from repro.exceptions import GraphError, NodeNotFound
from repro.graph.csr import IdentityIndex
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring import registry


class TestFreezing:
    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            AnalysisContext(Graph())

    def test_context_adopts_existing_context(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        again = AnalysisContext(context)
        assert again.csr is context.csr
        assert again.graph is context.graph

    def test_ensure_is_identity_on_contexts(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        assert AnalysisContext.ensure(context) is context

    def test_ensure_freezes_raw_graph(self, triangle_graph):
        context = AnalysisContext.ensure(triangle_graph)
        assert isinstance(context, AnalysisContext)
        assert context.num_vertices == triangle_graph.number_of_nodes()

    def test_freeze_once_ignores_later_mutation(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        n, m = context.num_vertices, context.num_edges
        triangle_graph.add_edge(1, 99)
        assert context.num_vertices == n
        assert context.num_edges == m
        assert 99 not in context

    def test_directed_has_three_orientations(self, small_digraph):
        context = AnalysisContext(small_digraph)
        assert context.is_directed
        assert context.csr.orientation == "union"
        assert context.csr_out.orientation == "out"
        assert context.csr_in.orientation == "in"

    def test_undirected_has_union_only(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        assert not context.is_directed
        assert context.csr_out is None
        assert context.csr_in is None


class TestLabelBoundary:
    def test_contains(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        assert 1 in context
        assert 99 not in context

    def test_vertex_ids_round_trip(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        labels = list(triangle_graph.nodes)
        ids = context.vertex_ids(labels)
        assert context.labels(ids) == labels

    def test_unknown_label_raises(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        with pytest.raises(NodeNotFound):
            context.vertex_ids([1, "nope"])


class TestCachedQuantities:
    def test_undirected_degree_array(self, triangle_graph):
        context = AnalysisContext(triangle_graph)
        degrees = dict(zip(context.nodes, context.degree_array))
        assert degrees == {
            node: triangle_graph.degree[node] for node in triangle_graph
        }

    def test_directed_degree_convention(self, small_digraph):
        # Paper's d(v) = d_in + d_out: a reciprocal pair contributes 2,
        # so this is NOT the union-skeleton degree.
        context = AnalysisContext(small_digraph)
        degrees = dict(zip(context.nodes, context.degree_array))
        assert degrees == {"a": 2, "b": 3, "c": 2, "d": 1}
        union = dict(zip(context.nodes, context.csr.degree_array()))
        assert union["a"] == 1  # a<->b collapses in the skeleton

    def test_out_in_degree_arrays(self, small_digraph):
        context = AnalysisContext(small_digraph)
        out = dict(zip(context.nodes, context.out_degree_array))
        inn = dict(zip(context.nodes, context.in_degree_array))
        assert out == {"a": 1, "b": 2, "c": 1, "d": 0}
        assert inn == {"a": 1, "b": 1, "c": 1, "d": 1}

    def test_median_degree_cached(self, two_cliques_graph):
        context = AnalysisContext(two_cliques_graph)
        assert context.median_degree == float(
            np.median(
                [two_cliques_graph.degree[v] for v in two_cliques_graph]
            )
        )
        assert context.median_degree is not None  # second read hits cache

    def test_label_rank_is_stable_sorted_order(self):
        graph = Graph()
        for label in ("zeta", "alpha", "mid"):
            graph.add_node(label)
        graph.add_edge("zeta", "alpha")
        graph.add_edge("alpha", "mid")
        context = AnalysisContext(graph)
        rank = dict(zip(context.nodes, context.label_rank))
        assert rank == {"alpha": 0, "mid": 1, "zeta": 2}

    def test_label_rank_mixed_types_falls_back_to_repr(self):
        graph = Graph()
        graph.add_node(1)
        graph.add_node("a")
        graph.add_edge(1, "a")
        context = AnalysisContext(graph)
        by_rank = sorted(context.nodes, key=lambda v: context.label_rank[
            context.index_of[v]
        ])
        assert by_rank == sorted(context.nodes, key=repr)

    def test_ids_in_label_order(self):
        # Identity labels decide without building the rank.
        identity = AnalysisContext(Graph([(0, 1), (1, 2)]))
        assert identity.ids_in_label_order
        assert identity._label_rank is None
        # Other labellings compare their rank with the ids once.
        in_order = AnalysisContext(Graph([("a", "b"), ("b", "c")]))
        assert in_order.ids_in_label_order
        scrambled = AnalysisContext(Graph([("b", "a"), ("a", "c")]))
        assert not scrambled.ids_in_label_order
        # A worker rebuild: labels are ids, but the parent shipped a rank.
        worker = AnalysisContext.from_parts(
            identity.csr,
            None,
            None,
            num_edges=2,
            is_directed=False,
            label_rank=np.asarray(scrambled.label_rank),
        )
        assert not worker.ids_in_label_order


# -- bulk identity-label mapping ---------------------------------------------

#: Vertices of the identity-labelled test graph (labels 0 .. N-1).
N = 12

_NEAR_RANGE = st.integers(min_value=-3, max_value=N + 3)
#: Labels of integer type: the bulk pass answers these unless a value
#: does not fit in int64.
_INTEGER_LABELS = st.one_of(
    _NEAR_RANGE,
    _NEAR_RANGE.map(np.int32),
    _NEAR_RANGE.map(np.int64),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=0, max_value=2**64 - 1).map(np.uint64),
)
#: Labels that send a whole batch down the per-label path.
_OTHER_LABELS = st.one_of(
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) - 1),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.just(np.True_),
)
_LABEL_LISTS = st.one_of(
    st.lists(_INTEGER_LABELS, max_size=24),
    st.lists(st.one_of(_INTEGER_LABELS, _OTHER_LABELS), max_size=24),
)


def _fits_int64(label: object) -> bool:
    return isinstance(label, (int, np.integer)) and (
        -(2**63) <= int(label) < 2**63
    )


@pytest.fixture(scope="module", params=["store", "in-ram"])
def integer_context(request, tmp_path_factory) -> AnalysisContext:
    """Labels ``0 .. N-1`` behind an ``IdentityIndex`` (an on-disk store)
    or behind the real label dict of an in-RAM freeze."""
    graph = Graph()
    for v in range(N):
        graph.add_node(v)
    for v in range(N):
        graph.add_edge(v, (v + 1) % N)
        graph.add_edge(v, (v + 5) % N)
    context = AnalysisContext(graph)
    if request.param == "in-ram":
        assert not isinstance(context.index_of, IdentityIndex)
        return context
    opened = AnalysisContext.open(
        context.save(tmp_path_factory.mktemp("identity") / "store")
    )
    assert isinstance(opened.index_of, IdentityIndex)
    return opened


class TestBulkIdentityLabels:
    @given(labels=_LABEL_LISTS)
    @settings(max_examples=200, deadline=None)
    def test_resolve_matches_per_label_index(self, labels):
        index = IdentityIndex(N)
        resolved = index.resolve(labels)
        assert (resolved is not None) == all(map(_fits_int64, labels))
        if resolved is None:
            return
        ids, known = resolved
        assert known.tolist() == [label in index for label in labels]
        assert ids[known].tolist() == [
            index[label] for label in labels if label in index
        ]

    @given(labels=_LABEL_LISTS)
    @settings(max_examples=200, deadline=None)
    def test_vertex_ids_match_per_label_path(self, integer_context, labels):
        index_of = integer_context.index_of
        missing = [label for label in labels if label not in index_of]
        if missing:
            with pytest.raises(NodeNotFound) as excinfo:
                integer_context.vertex_ids(labels)
            assert excinfo.value.node is missing[0]
            return
        ids = integer_context.vertex_ids(labels)
        assert ids.dtype == np.int64
        assert ids.tolist() == [index_of[label] for label in labels]

    @given(lists=st.lists(_LABEL_LISTS, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_restrict_matches_per_label_path(self, integer_context, lists):
        index_of = integer_context.index_of
        restricted = integer_context.restrict(lists)
        expected = [[l for l in labels if l in index_of] for labels in lists]
        assert restricted == expected
        for got, want in zip(restricted, expected):
            assert all(a is b for a, b in zip(got, want))

    @given(lists=st.lists(_LABEL_LISTS.filter(bool), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_score_groups_restriction_keeps_members_in_order(
        self, integer_context, lists
    ):
        groups = GroupSet(
            groups=[
                VertexGroup(name=f"g{i}", members=frozenset(labels))
                for i, labels in enumerate(lists)
            ]
        )
        index_of = integer_context.index_of
        expected = [
            (group.name, [l for l in group.members if l in index_of])
            for group in groups
        ]
        expected = [(name, kept) for name, kept in expected if kept]
        with mock.patch.object(
            registry,
            "score_stats_columns",
            wraps=registry.score_stats_columns,
        ) as spy:
            table = registry.score_groups(integer_context, groups, cache=False)
        assert table.group_names == [name for name, _ in expected]
        member_lists = spy.call_args.args[1]
        assert member_lists == [kept for _, kept in expected]
