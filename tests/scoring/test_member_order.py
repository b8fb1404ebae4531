"""A score depends on the group alone.

Members are scored in ascending vertex-id order whatever order they
arrive in, so permuting them, rebuilding their frozenset or repeating a
member leaves every registry function's bytes unchanged — through
``score_groups`` and through ``batch_group_stats_columns`` plus
``score_matrix``, on directed and undirected graphs.  Average-ODF's
pairwise float mean is the function that would see a change.  Since the
result cache keys on sorted ids, a cached answer is then the answer.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.groups import GroupSet, VertexGroup
from repro.engine import AnalysisContext, ResultCache, batch_group_stats_columns
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.columnar import score_matrix
from repro.scoring.registry import make_all_functions, score_groups

FUNCTIONS = make_all_functions()


@st.composite
def group_built_many_ways(draw, directed: bool):
    """A graph (string labels, shuffled insertion order) and one group
    given as several member sequences of the same set."""
    n = draw(st.integers(min_value=10, max_value=40))
    labels = [f"v{i:02d}" for i in range(n)]
    graph = DiGraph() if directed else Graph()
    for i in draw(st.permutations(range(n))):
        graph.add_node(labels[i])
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    for u, v in draw(st.lists(pairs, min_size=3 * n, max_size=8 * n)):
        if u != v:
            graph.add_edge(labels[u], labels[v])
    members = draw(
        st.lists(st.sampled_from(labels), min_size=8, max_size=n, unique=True)
    )
    permuted = draw(st.permutations(members))
    repeats = draw(st.lists(st.sampled_from(members), min_size=1, max_size=5))
    return graph, [
        members,
        list(permuted),
        list(frozenset(permuted)),
        list(permuted) + repeats,
    ]


@pytest.mark.parametrize("directed", [False, True])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_scores_depend_on_the_group_alone(directed, data):
    graph, variants = data.draw(group_built_many_ways(directed))
    context = AnalysisContext(graph)
    tables = [
        score_groups(
            context,
            GroupSet(groups=[VertexGroup(name="g", members=frozenset(members))]),
            FUNCTIONS,
            cache=False,
        )
        for members in variants
    ]
    for function in FUNCTIONS:
        assert len({t.scores(function.name).tobytes() for t in tables}) == 1
    matrices = {
        score_matrix(
            FUNCTIONS,
            batch_group_stats_columns(
                context,
                [members],
                graph_median_degree=context.median_degree,
                include_internal_adjacency=True,
            ),
        ).tobytes()
        for members in variants
    }
    assert len(matrices) == 1


def test_group_built_two_ways_hits_the_cache_and_matches_uncached(tmp_path):
    """Sets built in two orders iterate differently; both ask the same
    question, so the cached table must be the uncached one, bitwise."""
    rng = random.Random(5)
    labels = rng.sample(range(100_000), 400)
    graph = Graph()
    graph.add_nodes_from(labels)
    while graph.number_of_edges() < 3000:
        u, v = rng.sample(labels, 2)
        graph.add_edge(u, v)
    draws = [rng.sample(labels, 60) for _ in range(100)]
    drawn = GroupSet(
        groups=[
            VertexGroup(name=f"g{i}", members=frozenset(members))
            for i, members in enumerate(draws)
        ]
    )
    resorted = GroupSet(
        groups=[
            VertexGroup(name=f"g{i}", members=frozenset(sorted(members)))
            for i, members in enumerate(draws)
        ]
    )
    context = AnalysisContext(graph)
    cache = ResultCache(tmp_path)
    score_groups(context, drawn, FUNCTIONS, cache=cache)
    cached = score_groups(context, resorted, FUNCTIONS, cache=cache)
    assert len(list(tmp_path.iterdir())) == 1
    uncached = score_groups(context, resorted, FUNCTIONS, cache=False)
    for function in FUNCTIONS:
        assert (
            cached.scores(function.name).tobytes()
            == uncached.scores(function.name).tobytes()
        ), function.name
