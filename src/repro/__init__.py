"""repro — Are Circles Communities? (ICDCS 2014) reproduction library.

A from-scratch Python implementation of the comparative structural
analysis of Google+ circles vs. classical communities by Brauer & Schmidt:
graph substrate, community scoring functions, null models, samplers,
heavy-tail degree fitting, synthetic stand-ins for the paper's corpora,
and the full experiment pipeline behind its tables and figures.

Quickstart::

    from repro import build_google_plus, circles_vs_random

    dataset = build_google_plus(seed=7)
    result = circles_vs_random(dataset, seed=0)
    for name, row in result.separation_summary().items():
        print(name, row)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Each export and the module that defines it, imported on first access,
#: so ``import repro`` loads no submodule and each command loads only
#: the modules its path runs.
_EXPORTS = {
    # graph substrate
    "Graph": "repro.graph.ugraph",
    "DiGraph": "repro.graph.digraph",
    "CSRGraph": "repro.graph.csr",
    "to_directed": "repro.graph.convert",
    "to_undirected": "repro.graph.convert",
    # data model
    "VertexGroup": "repro.data.groups",
    "Circle": "repro.data.groups",
    "Community": "repro.data.groups",
    "GroupSet": "repro.data.groups",
    "EgoNetwork": "repro.data.ego",
    "EgoNetworkCollection": "repro.data.ego",
    "Dataset": "repro.data.datasets",
    "DatasetSpec": "repro.data.datasets",
    "PAPER_DATASETS": "repro.data.datasets",
    "MAGNO_REFERENCE": "repro.data.datasets",
    # scoring
    "Modularity": "repro.scoring.modularity",
    "NullModelEnsemble": "repro.scoring.modularity",
    "make_function": "repro.scoring.registry",
    "make_paper_functions": "repro.scoring.registry",
    "make_all_functions": "repro.scoring.registry",
    "score_group": "repro.scoring.registry",
    "score_groups": "repro.scoring.registry",
    # sampling / fitting (repro.powerlaw imports scipy, about a second that
    # only degree fitting needs: score, delta and serve must never load it)
    "random_walk_set": "repro.engine.samplers",
    "best_fit": "repro.powerlaw.comparison",
    "fit_tail": "repro.powerlaw.fitting",
    # synthetic corpora
    "EgoCollectionConfig": "repro.synth.ego_generator",
    "CommunityGraphConfig": "repro.synth.community_graph",
    "generate_ego_collection": "repro.synth.ego_generator",
    "generate_community_graph": "repro.synth.community_graph",
    "build_google_plus": "repro.synth.paper_datasets",
    "build_twitter": "repro.synth.paper_datasets",
    "build_livejournal": "repro.synth.paper_datasets",
    "build_orkut": "repro.synth.paper_datasets",
    "build_magno_reference": "repro.synth.paper_datasets",
    "load_all_paper_datasets": "repro.synth.paper_datasets",
    "erdos_renyi_graph": "repro.synth.random_graphs",
    "barabasi_albert_graph": "repro.synth.random_graphs",
    "watts_strogatz_graph": "repro.synth.random_graphs",
    # detection (extension)
    "louvain_communities": "repro.detection.louvain",
    "partition_modularity": "repro.detection.louvain",
    "label_propagation_communities": "repro.detection.label_propagation",
    "best_match_jaccard": "repro.detection.overlap_metrics",
    "mean_best_jaccard": "repro.detection.overlap_metrics",
    "coverage_fraction": "repro.detection.overlap_metrics",
    # analysis
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
    "render_table": "repro.analysis.report",
    "render_kv": "repro.analysis.report",
    "render_cdf_panel": "repro.analysis.report",
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
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = ["__version__", *_EXPORTS]
