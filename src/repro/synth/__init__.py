"""Synthetic data generation: ego collections, planted communities, and
the paper's four scaled-down corpora."""

from repro._lazy import lazy_exports

#: Each export and the module that defines it, imported on first access.
_EXPORTS = {
    "EgoCollectionConfig": "repro.synth.ego_generator",
    "generate_ego_collection": "repro.synth.ego_generator",
    "CommunityGraphConfig": "repro.synth.community_graph",
    "generate_community_graph": "repro.synth.community_graph",
    "lognormal_sizes": "repro.synth.heavy_tail",
    "zipf_weights": "repro.synth.heavy_tail",
    "bounded_zipf_sample": "repro.synth.heavy_tail",
    "erdos_renyi_graph": "repro.synth.random_graphs",
    "barabasi_albert_graph": "repro.synth.random_graphs",
    "watts_strogatz_graph": "repro.synth.random_graphs",
    "build_google_plus": "repro.synth.paper_datasets",
    "build_twitter": "repro.synth.paper_datasets",
    "build_livejournal": "repro.synth.paper_datasets",
    "build_orkut": "repro.synth.paper_datasets",
    "build_magno_reference": "repro.synth.paper_datasets",
    "load_all_paper_datasets": "repro.synth.paper_datasets",
    "EdgeStream": "repro.synth.stream",
    "GraphEdgeStream": "repro.synth.stream",
    "BenchmarkStream": "repro.synth.stream",
    "benchmark_stream": "repro.synth.stream",
    "freeze_stream": "repro.synth.stream",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = list(_EXPORTS)
