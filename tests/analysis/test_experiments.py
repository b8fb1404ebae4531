"""Experiment-pipeline tests on the small session datasets: the Fig. 5
circles-vs-random run, the Fig. 6 comparison, overlap, characterization and
the section IV-B robustness check."""

import pytest

from repro.analysis.characterization import characterize, table2_comparison
from repro.analysis.comparison import compare_datasets
from repro.analysis.experiment import circles_vs_random
from repro.analysis.overlap import analyze_overlap
from repro.analysis.robustness import directed_vs_undirected
from repro.scoring import make_function, make_paper_functions


class TestCirclesVsRandom:
    @pytest.fixture(scope="class")
    def result(self, small_circles_dataset):
        return circles_vs_random(small_circles_dataset, seed=0)

    def test_function_names(self, result):
        assert result.function_names() == [
            "average_degree",
            "ratio_cut",
            "conductance",
            "modularity",
        ]

    def test_random_sets_match_circle_sizes(self, result):
        assert result.random_scores.group_sizes == result.circle_scores.group_sizes

    def test_cdf_pair_labels(self, result):
        circles, randoms = result.cdf_pair("conductance")
        assert circles.label == "circles"
        assert randoms.label == "random"
        assert len(circles) == len(result.circle_scores)

    def test_separation_summary_keys(self, result):
        summary = result.separation_summary()
        for row in summary.values():
            assert set(row) == {
                "circle_mean",
                "random_mean",
                "circle_median",
                "random_median",
                "circles_below_random_median",
            }

    def test_circles_denser_than_random(self, result):
        summary = result.separation_summary()
        assert (
            summary["average_degree"]["circle_median"]
            > summary["average_degree"]["random_median"]
        )

    def test_alternative_sampler(self, small_circles_dataset):
        result = circles_vs_random(
            small_circles_dataset, sampler="uniform", seed=0
        )
        assert result.sampler == "uniform"
        assert len(result.random_scores) == len(result.circle_scores)

    def test_tuple_input(self, small_circles_dataset):
        result = circles_vs_random(
            (small_circles_dataset.graph, small_circles_dataset.groups), seed=1
        )
        assert len(result.circle_scores) > 0


class TestCompareDatasets:
    @pytest.fixture(scope="class")
    def result(self, small_circles_dataset, small_community_dataset):
        return compare_datasets(
            [small_circles_dataset, small_community_dataset],
            functions=make_paper_functions() + [make_function("scaled_ratio_cut")],
        )

    def test_dataset_names(self, result):
        assert result.dataset_names() == ["small-circles", "small-communities"]

    def test_cdfs_per_dataset(self, result):
        cdfs = result.cdfs("conductance")
        assert set(cdfs) == {"small-circles", "small-communities"}
        assert all(len(cdf) > 0 for cdf in cdfs.values())

    def test_signature_summary_structure(self, result):
        summary = result.signature_summary()
        assert summary["small-circles"]["structure"] == "circles"
        assert summary["small-communities"]["structure"] == "communities"
        assert "conductance_above_0.9" in summary["small-circles"]

    def test_circles_less_confined_than_communities(self, result):
        """The paper's headline: circles have higher conductance."""
        summary = result.signature_summary()
        assert (
            summary["small-circles"]["conductance_median"]
            > summary["small-communities"]["conductance_median"]
        )

    def test_top_k_restriction(self, small_circles_dataset):
        result = compare_datasets([small_circles_dataset], top_k=3)
        assert len(result.tables["small-circles"]) <= 3


class TestOverlap:
    def test_report_consistency(self, small_ego_collection):
        report = analyze_overlap(small_ego_collection)
        assert report.num_ego_networks == len(small_ego_collection)
        assert 0.0 <= report.overlap_fraction <= 1.0
        assert sum(report.membership_histogram.values()) == report.num_vertices
        assert report.largest_component_fraction <= 1.0
        assert report.max_membership == max(report.membership_histogram)

    def test_rows_match_histogram(self, small_ego_collection):
        report = analyze_overlap(small_ego_collection)
        rows = report.as_rows()
        assert {row["memberships"]: row["vertices"] for row in rows} == (
            report.membership_histogram
        )

    def test_summary_keys(self, small_ego_collection):
        summary = analyze_overlap(small_ego_collection).summary()
        assert {"ego_networks", "vertices", "edges", "overlap_fraction"} <= set(
            summary
        )


class TestCharacterization:
    @pytest.fixture(scope="class")
    def characterization(self, small_circles_dataset):
        return characterize(
            small_circles_dataset,
            asp_sample_sources=50,
            clustering_sample=300,
            seed=0,
        )

    def test_counts(self, characterization, small_circles_dataset):
        assert characterization.vertices == (
            small_circles_dataset.graph.number_of_nodes()
        )
        assert characterization.edges == (
            small_circles_dataset.graph.number_of_edges()
        )
        assert characterization.directed

    def test_small_world_measures(self, characterization):
        assert characterization.diameter >= 1
        assert 1.0 <= characterization.average_shortest_path <= characterization.diameter
        assert 0.0 <= characterization.mean_clustering <= 1.0

    def test_sampled_estimators_at_full_precision(self, characterization):
        """Each sampled estimator draws from its own seed.  The ledger
        prints the path length to two decimals, so only the exact bits
        show one generator shared across the three estimators."""
        assert characterization.diameter == 4
        assert characterization.average_shortest_path.hex() == (
            "0x1.2a8ce795f9066p+1"
        )
        assert characterization.mean_clustering.hex() == "0x1.978dbed622c98p-2"

    def test_degree_fit_present(self, characterization):
        assert characterization.degree_distribution in {
            "power_law",
            "log_normal",
            "exponential",
        }

    def test_as_row_directed_fields(self, characterization):
        row = characterization.as_row()
        assert "average_in_degree" in row
        assert "average_out_degree" in row

    def test_fit_can_be_skipped(self, small_community_dataset):
        result = characterize(
            small_community_dataset,
            asp_sample_sources=30,
            clustering_sample=200,
            fit_degrees=False,
            seed=0,
        )
        assert result.degree_fit is None
        assert result.degree_distribution == "unknown"
        assert "average_in_degree" not in result.as_row()

    def test_table2_comparison_structure(
        self, characterization, small_community_dataset
    ):
        other = characterize(
            small_community_dataset,
            asp_sample_sources=30,
            clustering_sample=200,
            fit_degrees=False,
            seed=0,
        )
        table = table2_comparison(characterization, other)
        assert set(table) == {
            "bfs_crawl (Magno-style)",
            "ego_joined (McAuley-style)",
            "contrast",
        }
        assert table["contrast"]["density_ratio"] > 0


class TestRobustness:
    @pytest.fixture(scope="class")
    def result(self, small_circles_dataset):
        return directed_vs_undirected(small_circles_dataset)

    def test_requires_directed(self, small_community_dataset):
        with pytest.raises(ValueError):
            directed_vs_undirected(small_community_dataset)

    def test_summary_structure(self, result):
        summary = result.summary()
        assert "overall_relative_deviation" in summary
        assert "conductance/relative_deviation" in summary
        assert "conductance/rank_correlation" in summary
        assert "conductance/cdf_distance" in summary

    def test_conductance_barely_moves(self, result):
        """Ratio metrics are nearly direction-invariant (the 2.38% claim)."""
        assert result.relative_deviation("conductance") < 0.05

    def test_rankings_preserved(self, result):
        for name in result.directed_scores.function_names():
            assert result.rank_correlation(name) > 0.8

    def test_same_groups_scored(self, result):
        assert result.directed_scores.group_names == (
            result.undirected_scores.group_names
        )
