"""Graph algorithms: traversal, shortest paths, triangles/clustering,
degree statistics and core decomposition."""

from repro._lazy import lazy_exports

#: Each export and the module that defines it, imported on first access.
_EXPORTS = {
    "bfs_order": "repro.algorithms.traversal",
    "bfs_layers": "repro.algorithms.traversal",
    "dfs_order": "repro.algorithms.traversal",
    "connected_components": "repro.algorithms.traversal",
    "largest_connected_component": "repro.algorithms.traversal",
    "is_connected": "repro.algorithms.traversal",
    "csr_bfs_distances": "repro.algorithms.traversal",
    "csr_connected_components": "repro.algorithms.traversal",
    "eccentricity": "repro.algorithms.shortest_paths",
    "double_sweep_lower_bound": "repro.algorithms.shortest_paths",
    "diameter": "repro.algorithms.shortest_paths",
    "average_shortest_path": "repro.algorithms.shortest_paths",
    "distance_distribution": "repro.algorithms.shortest_paths",
    "triangles_per_vertex": "repro.algorithms.triangles",
    "local_clustering": "repro.algorithms.triangles",
    "clustering_values": "repro.algorithms.triangles",
    "average_clustering": "repro.algorithms.triangles",
    "transitivity": "repro.algorithms.triangles",
    "degree_sequence": "repro.algorithms.degrees",
    "in_degree_sequence": "repro.algorithms.degrees",
    "out_degree_sequence": "repro.algorithms.degrees",
    "degree_histogram": "repro.algorithms.degrees",
    "average_degree": "repro.algorithms.degrees",
    "average_in_degree": "repro.algorithms.degrees",
    "average_out_degree": "repro.algorithms.degrees",
    "reciprocity": "repro.algorithms.degrees",
    "degree_assortativity": "repro.algorithms.degrees",
    "core_numbers": "repro.algorithms.cores",
    "k_core": "repro.algorithms.cores",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = list(_EXPORTS)
