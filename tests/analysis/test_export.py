"""Figure-export tests."""

import csv

import pytest

from repro.analysis.export import export_figures


class TestExportFigures:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory, small_circles_dataset, small_community_dataset):
        output = tmp_path_factory.mktemp("figures")
        written = export_figures(
            small_circles_dataset,
            [small_community_dataset],
            output,
            seed=0,
            clustering_sample=200,
        )
        return output, written

    def test_expected_files(self, exported):
        output, written = exported
        names = {path.name for path in written}
        assert "fig2_membership.csv" in names
        assert "fig3_degree_hist.csv" in names
        assert "fig4_clustering_cdf.csv" in names
        assert "fig5_conductance.csv" in names
        assert "fig6_conductance.csv" in names
        assert all(path.exists() for path in written)

    def test_fig2_rows_match_histogram(self, exported, small_circles_dataset):
        output, __ = exported
        with open(output / "fig2_membership.csv") as handle:
            rows = list(csv.DictReader(handle))
        histogram = small_circles_dataset.ego_collection.membership_histogram()
        assert {int(r["memberships"]): int(r["vertices"]) for r in rows} == histogram

    def test_fig4_cdf_monotone(self, exported):
        output, __ = exported
        with open(output / "fig4_clustering_cdf.csv") as handle:
            rows = list(csv.DictReader(handle))
        cdf_values = [float(r["cdf"]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(cdf_values, cdf_values[1:]))
        assert cdf_values[-1] == pytest.approx(1.0)

    def test_fig5_has_both_series(self, exported):
        output, __ = exported
        with open(output / "fig5_average_degree.csv") as handle:
            reader = csv.DictReader(handle)
            assert set(reader.fieldnames) == {"value", "circles_cdf", "random_cdf"}
            rows = list(reader)
        assert len(rows) > 50

    def test_fig6_one_column_per_dataset(self, exported, small_circles_dataset, small_community_dataset):
        output, __ = exported
        with open(output / "fig6_ratio_cut.csv") as handle:
            reader = csv.DictReader(handle)
            assert f"{small_circles_dataset.name}_cdf" in reader.fieldnames
            assert f"{small_community_dataset.name}_cdf" in reader.fieldnames

    def test_creates_output_directory(self, tmp_path, small_circles_dataset, small_community_dataset):
        target = tmp_path / "nested" / "figures"
        written = export_figures(
            small_circles_dataset,
            [small_community_dataset],
            target,
            clustering_sample=100,
        )
        assert target.is_dir()
        assert written


def test_export_freezes_each_dataset_once(
    tmp_path, small_circles_dataset, small_community_dataset
):
    """The Fig. 5 and Fig. 6 drivers share the circles graph's context, so
    a whole export freezes one context per dataset."""
    from repro import obs
    from repro.obs import instruments

    datasets = [small_circles_dataset, small_community_dataset]
    obs.REGISTRY.reset()
    obs.enable_metrics()
    try:
        export_figures(
            datasets[0], datasets[1:], tmp_path, seed=0, clustering_sample=100
        )
        frozen = instruments.CONTEXTS_FROZEN.total()
    finally:
        obs.disable()
        obs.REGISTRY.reset()
    assert frozen == len(datasets)
