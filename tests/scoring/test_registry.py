"""Registry and batch-driver tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.groups import Community, GroupSet, VertexGroup
from repro.engine import AnalysisContext
from repro.graph.digraph import DiGraph
from repro.scoring.registry import (
    PAPER_FUNCTION_NAMES,
    finite_median,
    make_all_functions,
    make_function,
    make_paper_functions,
    ScoreTable,
    score_group,
    score_groups,
)


class TestFactories:
    def test_paper_functions_in_order(self):
        functions = make_paper_functions()
        assert tuple(f.name for f in functions) == PAPER_FUNCTION_NAMES

    def test_make_function_by_name(self):
        assert make_function("conductance").name == "conductance"

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="conductance"):
            make_function("nope")

    def test_all_functions_have_unique_names(self):
        functions = make_all_functions()
        names = [f.name for f in functions]
        assert len(names) == len(set(names))
        assert len(names) >= 14


class TestScoreGroup:
    def test_returns_all_function_values(self, two_cliques_graph):
        scores = score_group(
            two_cliques_graph, [0, 1, 2, 3], make_paper_functions()
        )
        assert set(scores) == set(PAPER_FUNCTION_NAMES)
        assert scores["average_degree"] == pytest.approx(3.0)
        assert scores["conductance"] == pytest.approx(1 / 13)

    @pytest.mark.parametrize("directed", [False, True])
    def test_graph_and_its_context_score_alike(
        self, two_cliques_graph, directed
    ):
        graph = two_cliques_graph
        if directed:  # one arc per edge, so the orientation matters
            graph = DiGraph(list(two_cliques_graph.edges))
        functions = make_all_functions()
        members = [0, 1, 2, 4]
        from_graph = score_group(graph, members, functions)
        from_context = score_group(AnalysisContext(graph), members, functions)
        assert list(from_graph) == [function.name for function in functions]
        assert list(from_context) == list(from_graph)
        assert (
            np.array(list(from_graph.values())).tobytes()
            == np.array(list(from_context.values())).tobytes()
        )


class TestScoreGroups:
    def test_table_alignment(self, two_cliques_graph):
        groups = GroupSet(
            groups=[
                Community(name="left", members=frozenset({0, 1, 2, 3})),
                Community(name="right", members=frozenset({4, 5, 6, 7})),
            ]
        )
        table = score_groups(two_cliques_graph, groups)
        assert table.group_names == ["left", "right"]
        assert table.group_sizes == [4, 4]
        assert len(table.scores("conductance")) == 2
        np.testing.assert_allclose(
            table.scores("conductance"), [1 / 13, 1 / 13]
        )

    def test_members_outside_graph_dropped(self, two_cliques_graph):
        groups = GroupSet(
            groups=[
                Community(name="mixed", members=frozenset({0, 1, 999})),
                Community(name="gone", members=frozenset({777})),
            ]
        )
        table = score_groups(two_cliques_graph, groups)
        assert table.group_names == ["mixed"]
        assert table.group_sizes == [2]

    def test_restriction_disabled_raises_on_missing(self, two_cliques_graph):
        groups = GroupSet(
            groups=[Community(name="bad", members=frozenset({0, 999}))]
        )
        with pytest.raises(KeyError):
            score_groups(
                two_cliques_graph, groups, restrict_to_graph=False
            )

    def test_default_functions_are_papers(self, two_cliques_graph):
        groups = GroupSet(
            groups=[Community(name="left", members=frozenset({0, 1, 2, 3}))]
        )
        table = score_groups(two_cliques_graph, groups)
        assert table.function_names() == list(PAPER_FUNCTION_NAMES)

    def test_fomd_gets_graph_median(self, two_cliques_graph):
        groups = GroupSet(
            groups=[Community(name="left", members=frozenset({0, 1, 2, 3}))]
        )
        table = score_groups(
            two_cliques_graph, groups, [make_function("fomd")]
        )
        # median degree of the two-clique graph is 3; internal degrees are 3
        assert table.scores("fomd")[0] == 0.0

    def test_accepts_plain_sequence_of_groups(self, two_cliques_graph):
        groups = [VertexGroup(name="g", members=frozenset({0, 1}))]
        table = score_groups(two_cliques_graph, groups)
        assert len(table) == 1

    def test_summary_statistics(self, two_cliques_graph):
        groups = GroupSet(
            groups=[
                Community(name="left", members=frozenset({0, 1, 2, 3})),
                Community(name="right", members=frozenset({4, 5, 6, 7})),
            ]
        )
        table = score_groups(two_cliques_graph, groups)
        summary = table.summary()
        assert summary["average_degree"]["mean"] == pytest.approx(3.0)
        assert summary["conductance"]["min"] == summary["conductance"]["max"]

    def test_summary_ignores_infinities(self, two_cliques_graph):
        groups = GroupSet(
            groups=[Community(name="all", members=frozenset(range(8)))]
        )
        table = score_groups(
            two_cliques_graph, groups, [make_function("separability")]
        )
        assert np.isinf(table.scores("separability")[0])
        assert table.summary()["separability"]["mean"] == 0.0


class TestFiniteMedian:
    """``ScoreTable.summary`` medians are bit-identical to ``np.median``."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 17, 18, 4999, 5000])
    def test_odd_and_even_sizes(self, size):
        rng = np.random.default_rng(size)
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
        assert finite_median(values).tobytes() == np.median(values).tobytes()

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 1.0]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_finite_sample(self, values):
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(over="ignore"):
            want = np.median(values)
            assert finite_median(values).tobytes() == want.tobytes()

    def test_summary_uses_it(self):
        table = ScoreTable(
            group_names=["a", "b", "c", "d"],
            group_sizes=[1, 1, 1, 1],
            columns={"f": np.array([3.0, np.inf, 1.0, 2.5])},
        )
        assert table.summary()["f"]["median"] == 2.5
