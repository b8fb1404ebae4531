"""Null models: graphicality tests, configuration models, the
Viger–Latapy connected random graph, and degree-preserving rewiring."""

from repro._lazy import lazy_exports

#: Each export and the module that defines it, imported on first access.
_EXPORTS = {
    "is_graphical": "repro.nullmodel.degree_sequence",
    "is_digraphical": "repro.nullmodel.degree_sequence",
    "havel_hakimi_graph": "repro.nullmodel.degree_sequence",
    "kleitman_wang_graph": "repro.nullmodel.degree_sequence",
    "configuration_model": "repro.nullmodel.configuration",
    "directed_configuration_model": "repro.nullmodel.configuration",
    "double_edge_swap": "repro.nullmodel.rewiring",
    "directed_edge_swap": "repro.nullmodel.rewiring",
    "viger_latapy_graph": "repro.nullmodel.viger_latapy",
    "connect_components": "repro.nullmodel.viger_latapy",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = list(_EXPORTS)
