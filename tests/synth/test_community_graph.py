"""Planted-community graph generator tests."""

import dataclasses

import numpy as np
import pytest

from repro.engine import AnalysisContext, batch_group_stats_columns
from repro.scoring import Conductance
from repro.synth.community_graph import (
    CommunityGraphConfig,
    generate_community_graph,
)
from tests.conftest import SMALL_COMMUNITY_CONFIG

from oracles.stats import compute_group_stats


class TestConfigValidation:
    def test_default_valid(self):
        CommunityGraphConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_communities", 0),
            ("community_size_min", 2),
            ("background_degree", -1.0),
            ("membership_bias", -0.5),
        ],
    )
    def test_invalid_values(self, field, value):
        config = dataclasses.replace(SMALL_COMMUNITY_CONFIG, **{field: value})
        with pytest.raises(ValueError):
            config.validate()

    def test_nodes_must_cover_largest_community(self):
        config = dataclasses.replace(
            SMALL_COMMUNITY_CONFIG, num_nodes=10, community_size_max=50
        )
        with pytest.raises(ValueError):
            config.validate()


class TestGeneration:
    def test_counts(self):
        graph, groups = generate_community_graph(SMALL_COMMUNITY_CONFIG, seed=0)
        assert graph.number_of_nodes() == SMALL_COMMUNITY_CONFIG.num_nodes
        assert len(groups) == SMALL_COMMUNITY_CONFIG.num_communities

    def test_deterministic(self):
        a_graph, a_groups = generate_community_graph(SMALL_COMMUNITY_CONFIG, seed=4)
        b_graph, b_groups = generate_community_graph(SMALL_COMMUNITY_CONFIG, seed=4)
        assert a_graph.number_of_edges() == b_graph.number_of_edges()
        assert [g.members for g in a_groups] == [g.members for g in b_groups]

    def test_sizes_within_bounds(self):
        __, groups = generate_community_graph(SMALL_COMMUNITY_CONFIG, seed=1)
        for group in groups:
            assert (
                SMALL_COMMUNITY_CONFIG.community_size_min
                <= len(group)
                <= SMALL_COMMUNITY_CONFIG.community_size_max
            )

    def test_members_are_graph_nodes(self):
        graph, groups = generate_community_graph(SMALL_COMMUNITY_CONFIG, seed=2)
        for group in groups:
            assert all(member in graph for member in group)

    def test_undirected_simple(self):
        graph, __ = generate_community_graph(SMALL_COMMUNITY_CONFIG, seed=3)
        assert not graph.is_directed
        assert all(u != v for u, v in graph.edges)

    def test_communities_denser_than_ambient(self):
        graph, groups = generate_community_graph(SMALL_COMMUNITY_CONFIG, seed=5)
        n = graph.number_of_nodes()
        m = graph.number_of_edges()
        ambient_density = 2 * m / (n * (n - 1))
        internal = []
        for group in groups:
            stats = compute_group_stats(graph, group.members)
            possible = stats.possible_internal_edges
            if possible:
                internal.append(stats.m_C / possible)
        assert np.median(internal) > 5 * ambient_density

    def test_conductance_distribution_is_broad(self):
        graph, groups = generate_community_graph(SMALL_COMMUNITY_CONFIG, seed=6)
        batch = batch_group_stats_columns(
            AnalysisContext(graph), [group.members for group in groups]
        )
        values = Conductance().score_batch(batch)
        assert values.max() - values.min() > 0.3  # LJ's near-uniform spread

    def test_zero_background_allowed(self):
        config = dataclasses.replace(SMALL_COMMUNITY_CONFIG, background_degree=0.0)
        graph, groups = generate_community_graph(config, seed=7)
        assert graph.number_of_edges() > 0  # community edges remain
