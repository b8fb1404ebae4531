"""Modularity tests: analytic expectation, sampled null ensemble, and
agreement with networkx's partition modularity.

Each score goes through the production path: the columnar stats pass,
then ``Modularity.score_batch``."""

import networkx as nx
import numpy as np
import pytest

from repro.engine import AnalysisContext, batch_group_stats_columns
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.modularity import Modularity, NullModelEnsemble


def modularity(graph, member_lists, function=None):
    """Per-group Modularity of ``member_lists`` within ``graph``."""
    batch = batch_group_stats_columns(AnalysisContext(graph), member_lists)
    return (function or Modularity()).score_batch(batch).tolist()


class TestAnalyticExpectation:
    def test_undirected_closed_form(self, two_cliques_graph):
        # Members 0-3 have degrees 3, 3, 3, 4 in a 13-edge graph, with the
        # clique's 6 edges inside.
        m = 13
        expected = (13**2 - (3 * 3**2 + 4**2)) / (4 * m)
        (value,) = modularity(two_cliques_graph, [[0, 1, 2, 3]])
        assert value == pytest.approx((6 - expected) / (2 * m))

    def test_directed_closed_form(self, small_digraph):
        # a: out 1, in 1; b: out 2, in 1; a->b and b->a lie inside.
        m = small_digraph.number_of_edges()
        outs = np.array([1.0, 2.0])
        ins = np.array([1.0, 1.0])
        expected = (outs.sum() * ins.sum() - (outs * ins).sum()) / m
        (value,) = modularity(small_digraph, [["a", "b"]])
        assert value == pytest.approx((2 - expected) / (2 * m))

    def test_empty_graph_zero(self):
        graph = Graph()
        graph.add_nodes_from([1, 2])
        assert modularity(graph, [[1, 2]]) == [0.0]

    def test_partition_sum_relates_to_newman_modularity(self, two_cliques_graph):
        """Partition sum of paper scores = (Newman Q + self-pair term) / 2.

        The analytic expectation excludes self-pairs (a simple graph has no
        self-loops), while Newman's quadratic form includes them; the exact
        correction is ``sum_v d(v)^2 / (4 m^2)``.
        """
        oracle = nx.Graph()
        oracle.add_nodes_from(two_cliques_graph.nodes)
        oracle.add_edges_from(two_cliques_graph.edges)
        partition = [{0, 1, 2, 3}, {4, 5, 6, 7}]
        newman = nx.community.modularity(oracle, partition)
        m = two_cliques_graph.number_of_edges()
        self_pairs = sum(
            two_cliques_graph.degree[v] ** 2 for v in two_cliques_graph
        ) / (4.0 * m * m)
        total = sum(modularity(two_cliques_graph, partition))
        assert 2 * total == pytest.approx(newman + self_pairs, abs=1e-9)


class TestModularityFunction:
    def test_clique_positive(self, two_cliques_graph):
        (value,) = modularity(two_cliques_graph, [[0, 1, 2, 3]])
        assert value > 0

    def test_anti_community_negative(self, two_cliques_graph):
        # A spread-out set with no internal edges scores negative.
        (value,) = modularity(two_cliques_graph, [[0, 4]])
        assert value < 0

    def test_empty_graph_zero(self):
        graph = Graph()
        graph.add_nodes_from([1])
        assert modularity(graph, [[1]]) == [0.0]

    def test_invalid_expectation_rejected(self):
        with pytest.raises(ValueError):
            Modularity(expectation="bogus")

    def test_sampled_requires_ensemble(self):
        with pytest.raises(ValueError):
            Modularity(expectation="sampled")


class TestNullModelEnsemble:
    def test_preserves_degree_sequence_undirected(self, two_cliques_graph):
        ensemble = NullModelEnsemble(two_cliques_graph, samples=2, seed=0)
        original = sorted(two_cliques_graph.degree.values())
        for null in ensemble._null_graphs:
            assert sorted(null.degree.values()) == original

    def test_preserves_in_out_sequences_directed(self, small_digraph):
        ensemble = NullModelEnsemble(small_digraph, samples=2, seed=0)
        original_in = sorted(small_digraph.in_degree.values())
        original_out = sorted(small_digraph.out_degree.values())
        for null in ensemble._null_graphs:
            assert sorted(null.in_degree.values()) == original_in
            assert sorted(null.out_degree.values()) == original_out

    def test_sampled_expectation_tracks_analytic(self, two_cliques_graph):
        ensemble = NullModelEnsemble(two_cliques_graph, samples=20, seed=1)
        sampled = ensemble.expected_internal_edges([0, 1, 2, 3])
        # The closed form for degrees 3, 3, 3, 4 in a 13-edge graph.
        analytic = (13**2 - (3 * 3**2 + 4**2)) / (4 * 13)
        # Connected null graphs are slightly constrained; agree within ~50%.
        assert sampled == pytest.approx(analytic, rel=0.5)

    def test_sampled_modularity_runs(self, two_cliques_graph):
        ensemble = NullModelEnsemble(two_cliques_graph, samples=3, seed=2)
        function = Modularity(expectation="sampled", ensemble=ensemble)
        (value,) = modularity(two_cliques_graph, [[0, 1, 2, 3]], function)
        assert value > 0

    def test_zero_samples_rejected(self, two_cliques_graph):
        with pytest.raises(ValueError):
            NullModelEnsemble(two_cliques_graph, samples=0)

    def test_directed_restricted_to_configuration(self, small_digraph):
        with pytest.raises(ValueError):
            NullModelEnsemble(small_digraph, method="viger_latapy")

    def test_unknown_method_rejected(self, two_cliques_graph):
        with pytest.raises(ValueError):
            NullModelEnsemble(two_cliques_graph, method="bogus")

    def test_len_reports_samples(self, two_cliques_graph):
        assert len(NullModelEnsemble(two_cliques_graph, samples=4, seed=0)) == 4
