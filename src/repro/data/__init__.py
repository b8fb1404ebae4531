"""Data model: vertex groups, ego networks and dataset bundles."""

from repro._lazy import lazy_exports

#: Each export and the module that defines it, imported on first access.
_EXPORTS = {
    "VertexGroup": "repro.data.groups",
    "Circle": "repro.data.groups",
    "Community": "repro.data.groups",
    "GroupSet": "repro.data.groups",
    "save_groups": "repro.data.groups",
    "load_groups": "repro.data.groups",
    "EgoNetwork": "repro.data.ego",
    "EgoNetworkCollection": "repro.data.ego",
    "Dataset": "repro.data.datasets",
    "DatasetSpec": "repro.data.datasets",
    "PAPER_DATASETS": "repro.data.datasets",
    "MAGNO_REFERENCE": "repro.data.datasets",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = list(_EXPORTS)
