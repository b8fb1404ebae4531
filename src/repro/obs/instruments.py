"""Central declaration of every runtime metric the library emits.

Instrumented call sites import their instrument from here instead of
registering ad hoc, which buys two guarantees:

* one ``import repro.obs.instruments`` registers the *complete* metric
  surface, so ``tests/obs/test_doc_sync.py`` can diff
  :data:`repro.obs.metrics.REGISTRY` against the catalogue table in
  ``docs/OBSERVABILITY.md`` — a metric missing from the docs fails CI;
* metric names live in exactly one place, so a rename cannot leave a
  stale name incrementing in some far-away module.

Every instrument here must have one row in the ``docs/OBSERVABILITY.md``
catalogue (name, kind, unit, incrementing site).
"""

from __future__ import annotations

from repro.obs.metrics import REGISTRY

__all__ = [
    "CONTEXTS_FROZEN",
    "CONTEXTS_OPENED",
    "DELTAS_APPLIED",
    "KERNEL_SELECTED",
    "GROUPS_SCORED",
    "GROUP_SIZE",
    "SETS_SAMPLED",
    "WALK_STEPS",
    "WALK_RESTARTS",
    "NULLMODEL_GRAPHS",
    "NULLMODEL_SWAPS",
    "NULLMODEL_ROLLBACKS",
    "NULLMODEL_MERGES",
    "PARALLEL_SHARDS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "CACHE_EVICTIONS",
    "SCORE_GROUPS_CALLS",
    "SCORES_COMPUTED",
    "SCORING_VECTORIZED",
    "SCORING_SCALAR",
    "SCORING_BATCH_GROUPS",
    "EXPERIMENT_RUNS",
    "MANIFESTS_RECORDED",
    "LINT_FILES",
    "LINT_VIOLATIONS",
    "SERVICE_REQUESTS",
    "SERVICE_RESPONSES",
    "SERVICE_BATCHES",
    "SERVICE_BATCH_SIZE",
    "SERVICE_EVICTIONS",
    "SERVICE_RESIDENT",
    "SERVICE_MEMORY_HITS",
]

CONTEXTS_FROZEN = REGISTRY.counter(
    "engine.contexts_frozen",
    "graphs frozen into an AnalysisContext",
    unit="freezes",
)

CONTEXTS_OPENED = REGISTRY.counter(
    "engine.contexts_opened",
    "on-disk CSR stores attached via AnalysisContext.open",
    unit="opens",
)

DELTAS_APPLIED = REGISTRY.counter(
    "engine.deltas_applied",
    "ContextDelta applications (incremental re-freezes)",
    unit="deltas",
)

KERNEL_SELECTED = REGISTRY.counter(
    "engine.kernel_selected",
    "batch membership kernel chosen per batch_group_stats call "
    "(label: pairs | gather)",
    unit="batches",
)

GROUPS_SCORED = REGISTRY.counter(
    "engine.groups_scored",
    "vertex groups processed by batch_group_stats",
    unit="groups",
)

GROUP_SIZE = REGISTRY.histogram(
    "engine.group_size",
    "distribution of deduplicated group sizes entering the batch kernels",
    unit="members",
    edges=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
)

SETS_SAMPLED = REGISTRY.counter(
    "sampler.sets_sampled",
    "matched random vertex sets drawn (label: sampler name)",
    unit="sets",
)

WALK_STEPS = REGISTRY.counter(
    "sampler.walk_steps",
    "random-walk transitions taken across all engine random walks",
    unit="steps",
)

WALK_RESTARTS = REGISTRY.counter(
    "sampler.walk_restarts",
    "uniform restarts taken when a walk found no uncollected neighbour",
    unit="restarts",
)

NULLMODEL_GRAPHS = REGISTRY.counter(
    "nullmodel.graphs_generated",
    "connected Viger-Latapy null graphs generated",
    unit="graphs",
)

NULLMODEL_SWAPS = REGISTRY.counter(
    "nullmodel.swaps_performed",
    "double edge swaps applied and kept in the shuffle phase",
    unit="swaps",
)

NULLMODEL_ROLLBACKS = REGISTRY.counter(
    "nullmodel.windows_rolled_back",
    "shuffle windows undone because they broke connectivity",
    unit="windows",
)

NULLMODEL_MERGES = REGISTRY.counter(
    "nullmodel.components_merged",
    "degree-preserving component-merging swaps in connect_components",
    unit="merges",
)

PARALLEL_SHARDS = REGISTRY.counter(
    "engine.parallel_shards",
    "work shards dispatched to parallel workers (label: score | sample)",
    unit="shards",
)

CACHE_HITS = REGISTRY.counter(
    "cache.hits",
    "result-cache lookups answered from disk (label: entry kind)",
    unit="lookups",
)

CACHE_MISSES = REGISTRY.counter(
    "cache.misses",
    "result-cache lookups that fell through to computation "
    "(label: entry kind)",
    unit="lookups",
)

CACHE_EVICTIONS = REGISTRY.counter(
    "cache.evictions",
    "corrupt or unreadable cache entries removed on access "
    "(label: entry kind)",
    unit="entries",
)

SCORE_GROUPS_CALLS = REGISTRY.counter(
    "scoring.score_groups_calls",
    "score_groups invocations",
    unit="calls",
)

SCORES_COMPUTED = REGISTRY.counter(
    "scoring.scores_computed",
    "individual (group, function) score evaluations",
    unit="scores",
)

SCORING_VECTORIZED = REGISTRY.counter(
    "scoring.vectorized_calls",
    "score_batch kernel dispatches over a columnar batch "
    "(label: function name)",
    unit="calls",
)

SCORING_SCALAR = REGISTRY.counter(
    "scoring.scalar_calls",
    "per-group scalar __call__ evaluations taken by the columnar "
    "fallback path (label: function name)",
    unit="groups",
)

SCORING_BATCH_GROUPS = REGISTRY.histogram(
    "scoring.batch_groups",
    "groups per columnar score_matrix batch",
    unit="groups",
    edges=(1, 4, 16, 64, 256, 1024, 4096, 16384, 65536),
)

EXPERIMENT_RUNS = REGISTRY.counter(
    "experiment.runs",
    "experiment-driver invocations (label: driver name)",
    unit="runs",
)

MANIFESTS_RECORDED = REGISTRY.counter(
    "obs.manifests_recorded",
    "RunManifests captured onto the active tracer",
    unit="manifests",
)

LINT_FILES = REGISTRY.counter(
    "lint.files_analyzed",
    "Python files analyzed by lint_paths",
    unit="files",
)

LINT_VIOLATIONS = REGISTRY.counter(
    "lint.violations_found",
    "unsuppressed lint violations found by lint_paths",
    unit="violations",
)

SERVICE_REQUESTS = REGISTRY.counter(
    "service.requests",
    "HTTP requests dispatched by the circle-analytics service "
    "(label: route id)",
    unit="requests",
)

SERVICE_RESPONSES = REGISTRY.counter(
    "service.responses",
    "HTTP responses written by the service (label: status code)",
    unit="responses",
)

SERVICE_BATCHES = REGISTRY.counter(
    "service.batches_flushed",
    "micro-batches flushed into one engine scoring invocation",
    unit="batches",
)

SERVICE_BATCH_SIZE = REGISTRY.histogram(
    "service.batch_size",
    "coalesced requests per flushed micro-batch",
    unit="requests",
    edges=(1, 2, 4, 8, 16, 32, 64, 128),
)

SERVICE_EVICTIONS = REGISTRY.counter(
    "service.datasets_evicted",
    "resident datasets evicted from the registry (LRU)",
    unit="datasets",
)

SERVICE_RESIDENT = REGISTRY.gauge(
    "service.datasets_resident",
    "datasets currently held resident by the registry",
    unit="datasets",
)

SERVICE_MEMORY_HITS = REGISTRY.counter(
    "service.memory_hits",
    "responses served from the in-memory rendered-response cache",
    unit="responses",
)
