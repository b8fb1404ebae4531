"""Experiment orchestration: characterization, overlap, circles-vs-random,
cross-dataset comparison, robustness, ego-centred view, circle
classification, two-sample statistics, and report rendering."""

from repro._lazy import lazy_exports

#: Each export and the module that defines it, imported on first access.
_EXPORTS = {
    "EmpiricalCDF": "repro.analysis.cdf",
    "Characterization": "repro.analysis.characterization",
    "characterize": "repro.analysis.characterization",
    "table2_comparison": "repro.analysis.characterization",
    "OverlapReport": "repro.analysis.overlap",
    "analyze_overlap": "repro.analysis.overlap",
    "CirclesVsRandomResult": "repro.analysis.experiment",
    "circles_vs_random": "repro.analysis.experiment",
    "CrossDatasetResult": "repro.analysis.comparison",
    "compare_datasets": "repro.analysis.comparison",
    "RobustnessResult": "repro.analysis.robustness",
    "directed_vs_undirected": "repro.analysis.robustness",
    "EgoViewResult": "repro.analysis.ego_view",
    "ego_centered_scores": "repro.analysis.ego_view",
    "CircleFeatures": "repro.analysis.circle_types",
    "CircleClassification": "repro.analysis.circle_types",
    "circle_features": "repro.analysis.circle_types",
    "classify_circles": "repro.analysis.circle_types",
    "TwoSampleResult": "repro.analysis.stats",
    "ks_two_sample": "repro.analysis.stats",
    "mann_whitney_u": "repro.analysis.stats",
    "separation_report": "repro.analysis.stats",
    "export_figures": "repro.analysis.export",
    "render_table": "repro.analysis.report",
    "render_kv": "repro.analysis.report",
    "render_cdf_panel": "repro.analysis.report",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = list(_EXPORTS)
