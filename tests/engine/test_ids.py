"""Canonical id groups: ascending, unique ids per group, built once."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AnalysisContext, GroupIds
from repro.exceptions import EmptyGroupError, NodeNotFound
from repro.graph.ugraph import Graph

N = 9

_ID_ARRAYS = st.lists(
    st.lists(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=12),
    max_size=6,
)


def _canonical_lists(arrays):
    return [sorted(set(ids)) for ids in arrays]


@given(arrays=_ID_ARRAYS)
@settings(max_examples=200, deadline=None)
def test_from_arrays_sorts_and_deduplicates_each_group(arrays):
    names = [f"g{i}" for i in range(len(arrays))]
    groups = GroupIds.from_arrays(
        [np.asarray(ids, dtype=np.int64) for ids in arrays], n=N, names=names
    )
    assert groups.ids.dtype == np.int64 and groups.offsets.dtype == np.int64
    assert [g.tolist() for g in groups.slices()] == _canonical_lists(arrays)
    assert groups.names == tuple(names)
    assert groups.sizes.tolist() == [len(set(ids)) for ids in arrays]


@given(arrays=_ID_ARRAYS, data=st.data())
@settings(max_examples=100, deadline=None)
def test_shard_select_and_concat_keep_the_groups(arrays, data):
    names = [f"g{i}" for i in range(len(arrays))]
    groups = GroupIds.from_arrays(arrays, n=N, names=names)
    expected = _canonical_lists(arrays)
    cut = data.draw(st.integers(min_value=0, max_value=len(arrays)))
    left, right = groups.shard(0, cut), groups.shard(cut, len(arrays))
    assert left.names is None
    joined = GroupIds.concat([left, right])
    assert [g.tolist() for g in joined.slices()] == expected
    keep = data.draw(st.lists(st.booleans(), min_size=len(arrays),
                              max_size=len(arrays)))
    kept = groups.select(np.asarray(keep, dtype=bool))
    assert kept.names == tuple(n for n, k in zip(names, keep) if k)
    assert [g.tolist() for g in kept.slices()] == [
        ids for ids, k in zip(expected, keep) if k
    ]


def test_from_arrays_rejects_empty_groups_and_foreign_ids():
    with pytest.raises(EmptyGroupError):
        GroupIds.from_arrays([np.array([1]), np.array([], dtype=np.int64)], n=N)
    with pytest.raises(NodeNotFound) as excinfo:
        GroupIds.from_arrays([np.array([1, N + 2, -1])], n=N)
    assert excinfo.value.node == N + 2


@pytest.fixture
def labelled_context():
    graph = Graph()
    for label in "hgfedcba":  # ids run against label order
        graph.add_node(label)
    graph.add_edge("a", "b")
    return AnalysisContext(graph)


def test_from_labels_error_precedence(labelled_context):
    # An empty group anywhere wins over an unknown label earlier on.
    with pytest.raises(EmptyGroupError):
        GroupIds.from_labels(labelled_context, [["a", "zz"], []])
    with pytest.raises(NodeNotFound) as excinfo:
        GroupIds.from_labels(labelled_context, [["a", "zz"], ["yy"]])
    assert excinfo.value.node == "zz"


def test_from_labels_restrict_drops_labels_then_groups(labelled_context):
    groups = GroupIds.from_labels(
        labelled_context,
        [["a", "zz", "b", "a"], ["yy"], [], ["h"]],
        names=["ab", "ghost", "empty", "h"],
        restrict=True,
    )
    index_of = labelled_context.index_of
    assert groups.names == ("ab", "h")
    assert [g.tolist() for g in groups.slices()] == [
        sorted([index_of["a"], index_of["b"]]),
        [index_of["h"]],
    ]
