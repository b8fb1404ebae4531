"""Incremental freeze — `ContextDelta` against the full-refreeze oracle.

The oracle is the legacy path: mutate a copy of the dict graph and
freeze it from scratch. A patched context must be indistinguishable
from that — same fingerprint, degrees, median and edge count — and
`rescore_groups_columns` must return stats byte-identical to a full
batch pass while invoking the kernel only for dirty groups.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.data import Community, GroupSet, VertexGroup
from repro.engine import (
    AnalysisContext,
    ContextDelta,
    batch_group_stats_columns,
)
from repro.engine.delta import rescore_groups_columns
from repro.scoring.columnar import GroupStatsBatch, score_matrix
from repro.scoring.internal import TriangleParticipationRatio
from repro.scoring.registry import make_all_functions
from repro.exceptions import GraphError, NodeNotFound
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.obs.instruments import GROUPS_SCORED
from repro.obs.manifest import fingerprint_context


@st.composite
def graph_and_delta(draw, directed):
    """A random graph plus disjoint add/remove edge batches."""
    n = draw(st.integers(min_value=3, max_value=16))
    nodes = [f"v{i:02d}" for i in range(n)]
    if directed:
        pairs = [(u, v) for u in nodes for v in nodes if u != v]
    else:
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    cut = draw(st.integers(min_value=1, max_value=max(1, len(shuffled) // 2)))
    present, absent = shuffled[:cut], shuffled[cut:]
    graph = DiGraph() if directed else Graph()
    for node in nodes:
        graph.add_node(node)
    graph.add_edges_from(present)
    removes = draw(
        st.lists(st.sampled_from(present), max_size=4, unique=True)
    )
    adds = (
        draw(st.lists(st.sampled_from(absent), max_size=4, unique=True))
        if absent
        else []
    )
    return graph, tuple(adds), tuple(removes)


def assert_contexts_identical(patched, oracle):
    assert patched.num_vertices == oracle.num_vertices
    assert patched.num_edges == oracle.num_edges
    assert patched.median_degree == oracle.median_degree
    assert np.array_equal(patched.degree_array, oracle.degree_array)
    assert fingerprint_context(patched) == fingerprint_context(oracle)


@pytest.mark.parametrize("directed", [False, True])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_delta_matches_full_refreeze_oracle(directed, data):
    graph, adds, removes = data.draw(graph_and_delta(directed))
    context = AnalysisContext(graph)
    delta = ContextDelta(add_edges=adds, remove_edges=removes)

    mutated = graph.copy()
    for u, v in removes:
        mutated.remove_edge(u, v)
    for u, v in adds:
        mutated.add_edge(u, v)

    patched = delta.apply(context)
    assert_contexts_identical(patched, AnalysisContext(mutated))
    # The input context is untouched.
    assert context.num_edges == AnalysisContext(graph).num_edges


@pytest.fixture
def community_fixture(small_community_dataset):
    context = AnalysisContext(small_community_dataset.graph)
    groups = list(small_community_dataset.groups)
    return context, groups


class TestRescoreGroups:
    def delta_for(self, context, groups):
        """Remove one edge incident to the first group's lowest member."""
        members = sorted(groups[0].members)
        u = members[0]
        row = context.csr.neighbors(context.index_of[u])
        v = context.csr.nodes[int(row[0])]
        return ContextDelta(remove_edges=((u, v),))

    def test_identical_to_full_pass_and_kernel_skips_clean_groups(
        self, community_fixture
    ):
        context, groups = community_fixture
        delta = self.delta_for(context, groups)
        member_lists = [list(group.members) for group in groups]
        baseline = batch_group_stats_columns(
            context, member_lists, graph_median_degree=context.median_degree
        )

        patched = delta.apply(context)
        dirty = delta.dirty_names(groups)
        assert dirty  # the removed edge touches at least one group
        assert len(dirty) < len(groups)  # and leaves others clean

        got = self.rescore_counting(
            patched,
            groups,
            baseline,
            [group.name for group in groups],
            dirty,
            expect_scored=len(dirty),
        )
        want = batch_group_stats_columns(
            patched, member_lists, graph_median_degree=patched.median_degree
        )
        assert_batches_bitwise_identical(got, want)

    def test_missing_previous_entries_are_treated_as_dirty(
        self, community_fixture
    ):
        context, groups = community_fixture
        member_lists = [list(group.members) for group in groups]
        half = len(groups) // 2
        previous = batch_group_stats_columns(
            context,
            member_lists[:half],
            graph_median_degree=context.median_degree,
        )
        got = self.rescore_counting(
            context,
            groups,
            previous,
            [group.name for group in groups[:half]],
            frozenset(),
            expect_scored=len(groups) - half,
        )
        want = batch_group_stats_columns(
            context, member_lists, graph_median_degree=context.median_degree
        )
        assert_batches_bitwise_identical(got, want)

    @staticmethod
    def rescore_counting(
        context, groups, previous, previous_names, dirty, *, expect_scored
    ):
        """Rescore, asserting how many groups reached the batch kernel."""
        obs.enable(name="delta-kernel")
        try:
            before = GROUPS_SCORED.value()
            got = rescore_groups_columns(
                context,
                groups,
                previous,
                previous_names,
                dirty,
                graph_median_degree=context.median_degree,
            )
            scored = GROUPS_SCORED.value() - before
        finally:
            obs.disable()
        assert scored == expect_scored
        return got


def assert_batches_bitwise_identical(got, want):
    assert got.n == want.n
    assert got.m == want.m
    assert got.directed == want.directed
    assert got.graph_median_degree == want.graph_median_degree
    assert got.members == want.members
    for column in (
        "n_C",
        "m_C",
        "c_C",
        "group_offsets",
        "member_degrees",
        "member_internal_degrees",
        "member_in_degrees",
        "member_out_degrees",
    ):
        assert (
            getattr(got, column).tobytes() == getattr(want, column).tobytes()
        ), column
    if want.member_internal_neighbors is None:
        assert got.member_internal_neighbors is None
    else:
        assert got.member_internal_neighbors is not None
        assert len(got.member_internal_neighbors) == len(
            want.member_internal_neighbors
        )
        for got_row, want_row in zip(
            got.member_internal_neighbors, want.member_internal_neighbors
        ):
            assert got_row.tobytes() == want_row.tobytes()


class TestRescoreGroupsColumns:
    @pytest.mark.parametrize("include_adjacency", [False, True])
    def test_bitwise_identical_to_full_columnar_pass(
        self, community_fixture, include_adjacency
    ):
        context, groups = community_fixture
        delta = TestRescoreGroups().delta_for(context, groups)
        member_lists = [list(group.members) for group in groups]
        baseline = batch_group_stats_columns(
            context,
            member_lists,
            graph_median_degree=context.median_degree,
            include_internal_adjacency=include_adjacency,
        )
        baseline_names = [group.name for group in groups]

        patched = delta.apply(context)
        dirty = delta.dirty_names(groups)
        assert dirty and len(dirty) < len(groups)

        got = rescore_groups_columns(
            patched,
            groups,
            baseline,
            baseline_names,
            dirty,
            graph_median_degree=patched.median_degree,
            include_internal_adjacency=include_adjacency,
        )
        want = batch_group_stats_columns(
            patched,
            member_lists,
            graph_median_degree=patched.median_degree,
            include_internal_adjacency=include_adjacency,
        )
        assert_batches_bitwise_identical(got, want)

        # The spliced batch also scores bitwise-identically.
        functions = make_all_functions()
        if not include_adjacency:
            functions = [
                f
                for f in functions
                if not isinstance(f, TriangleParticipationRatio)
            ]
        assert (
            score_matrix(functions, got).tobytes()
            == score_matrix(functions, want).tobytes()
        )

    def test_missing_previous_names_are_recomputed(self, community_fixture):
        context, groups = community_fixture
        empty = GroupStatsBatch.empty(
            n=context.num_vertices,
            m=context.num_edges,
            directed=context.is_directed,
            graph_median_degree=context.median_degree,
        )
        got = rescore_groups_columns(
            context,
            groups,
            empty,
            previous_names=[],
            dirty=frozenset(),
            graph_median_degree=context.median_degree,
        )
        want = batch_group_stats_columns(
            context,
            [list(group.members) for group in groups],
            graph_median_degree=context.median_degree,
        )
        assert_batches_bitwise_identical(got, want)

    def test_previous_without_neighbors_forces_full_recompute(
        self, community_fixture
    ):
        context, groups = community_fixture
        member_lists = [list(group.members) for group in groups]
        baseline = batch_group_stats_columns(
            context, member_lists, graph_median_degree=context.median_degree
        )
        assert baseline.member_internal_neighbors is None
        got = rescore_groups_columns(
            context,
            groups,
            baseline,
            [group.name for group in groups],
            dirty=frozenset(),  # clean, but the adjacency rows are absent
            graph_median_degree=context.median_degree,
            include_internal_adjacency=True,
        )
        want = batch_group_stats_columns(
            context,
            member_lists,
            graph_median_degree=context.median_degree,
            include_internal_adjacency=True,
        )
        assert_batches_bitwise_identical(got, want)


class TestStrictness:
    def test_adding_present_edge_raises(self, two_cliques_graph):
        context = AnalysisContext(two_cliques_graph)
        with pytest.raises(GraphError):
            ContextDelta(add_edges=((0, 1),)).apply(context)

    def test_removing_absent_edge_raises(self, two_cliques_graph):
        context = AnalysisContext(two_cliques_graph)
        with pytest.raises(GraphError):
            ContextDelta(remove_edges=((0, 7),)).apply(context)

    def test_self_loop_rejected_at_construction(self):
        with pytest.raises(GraphError):
            ContextDelta(add_edges=((3, 3),))

    def test_unknown_label_raises_node_not_found(self, two_cliques_graph):
        context = AnalysisContext(two_cliques_graph)
        with pytest.raises(NodeNotFound):
            ContextDelta(add_edges=((0, 99),)).apply(context)

    def test_add_and_remove_same_edge_conflicts(self, two_cliques_graph):
        context = AnalysisContext(two_cliques_graph)
        with pytest.raises(GraphError):
            ContextDelta(
                add_edges=((0, 1),), remove_edges=((1, 0),)
            ).apply(context)

    def test_duplicate_pair_rejected(self, two_cliques_graph):
        context = AnalysisContext(two_cliques_graph)
        with pytest.raises(GraphError):
            ContextDelta(remove_edges=((0, 1), (1, 0))).apply(context)


class TestMembershipEdits:
    def group_set(self):
        return GroupSet(
            name="gs",
            groups=[
                Community(name="a", members=frozenset({0, 1, 2})),
                Community(name="b", members=frozenset({4, 5, 6})),
            ],
        )

    def test_apply_groups_edits_membership(self):
        delta = ContextDelta(
            add_members=(("a", 3),), remove_members=(("b", 6),)
        )
        edited = delta.apply_groups(self.group_set())
        by_name = {group.name: set(group.members) for group in edited}
        assert by_name["a"] == {0, 1, 2, 3}
        assert by_name["b"] == {4, 5}

    def test_apply_groups_preserves_kind(self):
        delta = ContextDelta(add_members=(("a", 3),))
        edited = delta.apply_groups(self.group_set())
        assert all(isinstance(group, Community) for group in edited)

    def test_adding_present_member_raises(self):
        with pytest.raises(GraphError):
            ContextDelta(add_members=(("a", 1),)).apply_groups(
                self.group_set()
            )

    def test_removing_absent_member_raises(self):
        with pytest.raises(GraphError):
            ContextDelta(remove_members=(("a", 9),)).apply_groups(
                self.group_set()
            )

    def test_unknown_group_raises(self):
        with pytest.raises(GraphError):
            ContextDelta(add_members=(("zzz", 1),)).apply_groups(
                self.group_set()
            )

    def test_emptying_a_group_raises(self):
        delta = ContextDelta(
            remove_members=(("a", 0), ("a", 1), ("a", 2))
        )
        with pytest.raises(GraphError):
            delta.apply_groups(self.group_set())


class TestDirtyNames:
    def groups(self):
        return [
            VertexGroup(name="left", members=frozenset({0, 1, 2, 3})),
            VertexGroup(name="right", members=frozenset({4, 5, 6, 7})),
        ]

    def test_edge_endpoint_dirties_containing_group_only(self):
        delta = ContextDelta(remove_edges=((0, 1),))
        assert delta.dirty_names(self.groups()) == {"left"}

    def test_membership_edit_dirties_its_group(self):
        delta = ContextDelta(remove_members=(("right", 7),))
        assert delta.dirty_names(self.groups()) == {"right"}

    def test_bridge_edge_dirties_both_sides(self):
        delta = ContextDelta(remove_edges=((3, 4),))
        assert delta.dirty_names(self.groups()) == {"left", "right"}

    def test_empty_delta_dirties_nothing(self):
        assert ContextDelta().dirty_names(self.groups()) == frozenset()
