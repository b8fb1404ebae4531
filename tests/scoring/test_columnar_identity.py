"""Bitwise identity of the columnar scoring kernels vs the scalar oracle.

Production has one implementation per scoring function, its
``score_batch`` over a :class:`~repro.scoring.columnar.GroupStatsBatch`.
The contract is not "close": it must produce the same float64 bytes as
the function's scalar twin in ``tests/oracles/scoring.py`` applied row
by row.  Hypothesis drives random graphs (directed and undirected) and
group sets that always include the degenerate shapes — a singleton
group, an isolated (edge-free) vertex, the whole graph (zero boundary),
and a random subset — because those exercise every ``np.where`` guard
lane in the kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AnalysisContext, batch_group_stats_columns
from repro.scoring.columnar import GroupStatsBatch, score_matrix
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.modularity import Modularity, NullModelEnsemble
from repro.scoring.registry import make_all_functions

from oracles.scoring import scalar_scores


@st.composite
def graph_and_groups(draw, directed):
    """A random graph plus groups covering every degenerate shape.

    Node ``n - 1`` is kept edge-free so a zero-degree singleton is
    always present; the group list always contains a singleton, the
    whole vertex set (zero boundary) and a random subset.
    """
    n = draw(st.integers(min_value=3, max_value=14))
    nodes = list(range(n))
    connectable = nodes[:-1]  # the last node stays isolated
    if directed:
        pairs = [(u, v) for u in connectable for v in connectable if u != v]
    else:
        pairs = [
            (u, v)
            for i, u in enumerate(connectable)
            for v in connectable[i + 1 :]
        ]
    edges = draw(
        st.lists(st.sampled_from(pairs), max_size=3 * n, unique=True)
    )
    graph = DiGraph() if directed else Graph()
    for node in nodes:
        graph.add_node(node)
    graph.add_edges_from(edges)

    random_group = draw(
        st.lists(
            st.sampled_from(nodes), min_size=1, max_size=n, unique=True
        )
    )
    member_lists = [
        [nodes[0]],  # singleton
        [nodes[-1]],  # isolated vertex: zero internal, zero boundary
        list(nodes),  # whole graph: zero boundary
        random_group,
    ]
    return graph, member_lists


@pytest.mark.parametrize("directed", [False, True])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_score_batch_bitwise_identical_to_scalar_oracle(directed, data):
    """Every registry function, plus Modularity over a sampled null
    ensemble of the same graph."""
    graph, member_lists = data.draw(graph_and_groups(directed))
    context = AnalysisContext(graph)
    batch = batch_group_stats_columns(
        context,
        member_lists,
        graph_median_degree=context.median_degree,
        include_internal_adjacency=True,  # TPR needs neighbour rows
    )
    ensemble = NullModelEnsemble(
        graph, samples=2, seed=data.draw(st.integers(0, 2**16))
    )
    functions = make_all_functions() + [
        Modularity(expectation="sampled", ensemble=ensemble)
    ]
    for function in functions:
        column = function.score_batch(batch)
        assert column.dtype == np.float64
        assert (
            column.tobytes() == scalar_scores(function, batch).tobytes()
        ), (function.name, vars(function))


@pytest.mark.parametrize("directed", [False, True])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_score_matrix_columns_match_per_function_scores(directed, data):
    graph, member_lists = data.draw(graph_and_groups(directed))
    context = AnalysisContext(graph)
    functions = make_all_functions()
    batch = batch_group_stats_columns(
        context,
        member_lists,
        graph_median_degree=context.median_degree,
        include_internal_adjacency=True,
    )
    matrix = score_matrix(functions, batch)
    assert matrix.shape == (len(batch), len(functions))
    for j, function in enumerate(functions):
        expected = function.score_batch(batch)
        assert (
            np.ascontiguousarray(matrix[:, j]).tobytes()
            == expected.tobytes()
        ), function.name


def test_empty_batch_scores_to_zero_by_f_matrix():
    batch = GroupStatsBatch.empty(
        n=0, m=0, directed=False, graph_median_degree=0.0, with_neighbors=True
    )
    functions = make_all_functions()
    matrix = score_matrix(functions, batch)
    assert matrix.shape == (0, len(functions))
    assert matrix.dtype == np.float64


@pytest.mark.parametrize(
    "entry", ["score_groups", "score_ids", "parallel_shard"]
)
def test_production_scoring_goes_through_score_matrix(entry, monkeypatch):
    """Each scoring entry point dispatches every function's batch kernel
    exactly once.

    ``parallel_shard`` runs the ``--jobs`` worker task in-process, with
    metrics on, against the worker's context slot: real workers run with
    metrics off, so their counters never reach the parent.
    """
    from repro import obs
    from repro.data.groups import GroupSet, VertexGroup
    from repro.engine import GroupIds, parallel
    from repro.obs import instruments
    from repro.scoring.registry import make_paper_functions, score_groups
    from repro.service.batching import score_ids

    graph = Graph()
    for u in range(30):
        graph.add_edge(u, (u + 1) % 30)
        graph.add_edge(u, (u * 7 + 3) % 30)
    context = AnalysisContext(graph)
    member_lists = [list(range(start, start + 6)) for start in range(0, 25, 5)]
    functions = make_paper_functions()

    obs.REGISTRY.reset()
    obs.enable_metrics()
    try:
        if entry == "score_groups":
            groups = GroupSet(
                groups=[
                    VertexGroup(name=f"g{i}", members=frozenset(members))
                    for i, members in enumerate(member_lists)
                ]
            )
            score_groups(context, groups, functions, jobs=1, cache=False)
        elif entry == "score_ids":
            ids = GroupIds.from_labels(context, member_lists)
            score_ids(context, ids, functions)
        else:
            monkeypatch.setitem(parallel._WORKER, "context", context)
            ids = GroupIds.from_labels(context, member_lists)
            parallel._score_shard(ids, functions)
        vectorized = {
            function.name: instruments.SCORING_VECTORIZED.value(function.name)
            for function in functions
        }
    finally:
        obs.disable()
        obs.REGISTRY.reset()
    assert vectorized == {function.name: 1 for function in functions}
