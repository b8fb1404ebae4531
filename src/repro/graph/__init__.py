"""Graph substrate: directed/undirected simple graphs, views, conversions,
CSR snapshots and on-disk formats.

This subpackage is self-contained — the rest of the library builds on these
types and never on third-party graph libraries.
"""

from repro._lazy import lazy_exports

#: Each export and the module that defines it, imported on first access.
_EXPORTS = {
    "Graph": "repro.graph.ugraph",
    "DiGraph": "repro.graph.digraph",
    "CSRGraph": "repro.graph.csr",
    "to_undirected": "repro.graph.convert",
    "to_directed": "repro.graph.convert",
    "relabel_nodes": "repro.graph.convert",
    "integer_index": "repro.graph.convert",
    "from_edges": "repro.graph.convert",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = list(_EXPORTS)
