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

from repro.analysis import (
    Characterization,
    CircleClassification,
    CircleFeatures,
    CirclesVsRandomResult,
    CrossDatasetResult,
    EgoViewResult,
    EmpiricalCDF,
    OverlapReport,
    RobustnessResult,
    TwoSampleResult,
    analyze_overlap,
    characterize,
    circle_features,
    circles_vs_random,
    classify_circles,
    compare_datasets,
    directed_vs_undirected,
    ego_centered_scores,
    export_figures,
    ks_two_sample,
    mann_whitney_u,
    render_cdf_panel,
    render_kv,
    render_table,
    separation_report,
    table2_comparison,
)
from repro.detection import (
    best_match_jaccard,
    coverage_fraction,
    label_propagation_communities,
    louvain_communities,
    mean_best_jaccard,
    partition_modularity,
)
from repro.data import (
    MAGNO_REFERENCE,
    PAPER_DATASETS,
    Circle,
    Community,
    Dataset,
    DatasetSpec,
    EgoNetwork,
    EgoNetworkCollection,
    GroupSet,
    VertexGroup,
)
from repro.engine import random_walk_set
from repro.graph import CSRGraph, DiGraph, Graph, to_directed, to_undirected
from repro.scoring import (
    GroupStats,
    Modularity,
    NullModelEnsemble,
    make_all_functions,
    make_function,
    make_paper_functions,
    score_group,
    score_groups,
)
from repro.synth import (
    CommunityGraphConfig,
    EgoCollectionConfig,
    barabasi_albert_graph,
    build_google_plus,
    build_livejournal,
    build_magno_reference,
    build_orkut,
    build_twitter,
    erdos_renyi_graph,
    generate_community_graph,
    generate_ego_collection,
    load_all_paper_datasets,
    watts_strogatz_graph,
)

__version__ = "1.0.0"

#: Exports of ``repro.powerlaw``, resolved on first access (PEP 562): it
#: imports scipy, about a second per process that only degree fitting
#: needs, so ``score``, ``delta`` and ``serve`` must never load it.
_POWERLAW_EXPORTS = ("best_fit", "fit_tail")


def __getattr__(name: str):
    if name not in _POWERLAW_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module("repro.powerlaw"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_POWERLAW_EXPORTS))


# Opt-in runtime invariant checking: REPRO_CHECK_INVARIANTS=1 wraps every
# mutating substrate method with a post-condition validation pass.  The
# import is deferred so the devtools layer costs nothing when disabled.
import os as _os

if _os.environ.get("REPRO_CHECK_INVARIANTS", "").strip().lower() not in (
    "",
    "0",
    "false",
    "no",
    "off",
):
    from repro.devtools.invariants import install_invariant_checks as _install

    _install()

__all__ = [
    "__version__",
    # graph substrate
    "Graph",
    "DiGraph",
    "CSRGraph",
    "to_directed",
    "to_undirected",
    # data model
    "VertexGroup",
    "Circle",
    "Community",
    "GroupSet",
    "EgoNetwork",
    "EgoNetworkCollection",
    "Dataset",
    "DatasetSpec",
    "PAPER_DATASETS",
    "MAGNO_REFERENCE",
    # scoring
    "GroupStats",
    "Modularity",
    "NullModelEnsemble",
    "make_function",
    "make_paper_functions",
    "make_all_functions",
    "score_group",
    "score_groups",
    # sampling / fitting
    "random_walk_set",
    "best_fit",
    "fit_tail",
    # synthetic corpora
    "EgoCollectionConfig",
    "CommunityGraphConfig",
    "generate_ego_collection",
    "generate_community_graph",
    "build_google_plus",
    "build_twitter",
    "build_livejournal",
    "build_orkut",
    "build_magno_reference",
    "load_all_paper_datasets",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    # detection (extension)
    "louvain_communities",
    "partition_modularity",
    "label_propagation_communities",
    "best_match_jaccard",
    "mean_best_jaccard",
    "coverage_fraction",
    # analysis
    "EmpiricalCDF",
    "Characterization",
    "characterize",
    "table2_comparison",
    "OverlapReport",
    "analyze_overlap",
    "CirclesVsRandomResult",
    "circles_vs_random",
    "CrossDatasetResult",
    "compare_datasets",
    "RobustnessResult",
    "directed_vs_undirected",
    "render_table",
    "render_kv",
    "render_cdf_panel",
    "EgoViewResult",
    "ego_centered_scores",
    "CircleFeatures",
    "CircleClassification",
    "circle_features",
    "classify_circles",
    "TwoSampleResult",
    "ks_two_sample",
    "mann_whitney_u",
    "separation_report",
    "export_figures",
]
