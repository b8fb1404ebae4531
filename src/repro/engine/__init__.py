"""Analysis engine: one frozen substrate for scoring, sampling, experiments.

The engine layer sits between the mutable dict-adjacency substrate
(:mod:`repro.graph`) and the batch consumers (:mod:`repro.scoring`,
:mod:`repro.analysis`, the CLI).  Its contract is **freeze once**: an
:class:`AnalysisContext` snapshots a graph into CSR form plus cached
degree arrays, edge count and median degree, and every downstream pass —
:func:`batch_group_stats_columns`, the samplers, the Fig. 5/6/§IV-B
experiment drivers — reads that one snapshot instead of re-deriving its
own view per group.

Each stage has one production implementation here: the columnar stats
pass and the CSR samplers.  The label-level implementations they
replaced live in ``tests/oracles/``, where the identity tests compare
against them.
"""

from repro._lazy import lazy_exports

#: Each export and the module that defines it, imported on first access.
_EXPORTS = {
    "AnalysisContext": "repro.engine.context",
    "CSRBuffers": "repro.engine.context",
    "ContextDelta": "repro.engine.delta",
    "GroupIds": "repro.engine.ids",
    "rescore_groups_columns": "repro.engine.delta",
    "ParallelExecutor": "repro.engine.parallel",
    "ResultCache": "repro.engine.cache",
    "function_tokens": "repro.engine.cache",
    "query_key": "repro.engine.cache",
    "batch_group_stats_columns": "repro.engine.batch",
    "random_walk_set": "repro.engine.samplers",
    "bfs_ball_set": "repro.engine.samplers",
    "forest_fire_set": "repro.engine.samplers",
    "uniform_vertex_set": "repro.engine.samplers",
    "ENGINE_SAMPLERS": "repro.engine.samplers",
    "sample_matched_ids": "repro.engine.samplers",
    "sample_matched_sets": "repro.engine.samplers",
    "resolve_jobs": "repro.engine.parallel",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = list(_EXPORTS)
