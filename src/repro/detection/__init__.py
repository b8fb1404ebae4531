"""Community detection (extension): Louvain, label propagation, and
partition-vs-groups agreement metrics for the detected-vs-declared
comparison."""

from repro._lazy import lazy_exports

#: Each export and the module that defines it, imported on first access.
_EXPORTS = {
    "louvain_communities": "repro.detection.louvain",
    "partition_modularity": "repro.detection.louvain",
    "label_propagation_communities": "repro.detection.label_propagation",
    "best_match_jaccard": "repro.detection.overlap_metrics",
    "mean_best_jaccard": "repro.detection.overlap_metrics",
    "coverage_fraction": "repro.detection.overlap_metrics",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = list(_EXPORTS)
