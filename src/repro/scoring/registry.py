"""Scoring-function registry and batch evaluation.

The paper evaluates four scoring functions (one per family of the
Yang–Leskovec taxonomy); :data:`PAPER_FUNCTIONS` builds exactly those.
:func:`score_groups` evaluates any set of functions over many groups from
one frozen :class:`~repro.engine.AnalysisContext` — the graph is frozen
exactly once per run (or not at all if the caller passes a context), and
all group statistics come from the engine's vectorized batch pass.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.data.groups import GroupSet, VertexGroup
from repro.engine.cache import ResultCache, function_tokens
from repro.engine.context import AnalysisContext
from repro.engine.ids import GroupIds
from repro.engine.parallel import ParallelExecutor, resolve_jobs
from repro.obs import capture_manifest, instruments
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.base import ScoringFunction
from repro.scoring.columnar import score_stats_columns
from repro.scoring.combined import (
    AverageOutDegreeFraction,
    Conductance,
    FlakeOutDegreeFraction,
    MaxOutDegreeFraction,
    NormalizedCut,
    Separability,
)
from repro.scoring.external import Expansion, RatioCut, ScaledRatioCut
from repro.scoring.internal import (
    AverageDegree,
    EdgesInside,
    FractionOverMedianDegree,
    InternalDensity,
    TriangleParticipationRatio,
)
from repro.scoring.modularity import Modularity, NullModelEnsemble

Node = Hashable

__all__ = [
    "PAPER_FUNCTION_NAMES",
    "make_paper_functions",
    "make_all_functions",
    "make_function",
    "ScoreTable",
    "score_group",
    "score_groups",
    "scored_table",
    "scoring_options",
]

#: The four functions of the paper's evaluation (section V), in paper order.
PAPER_FUNCTION_NAMES = ("average_degree", "ratio_cut", "conductance", "modularity")

_FACTORIES = {
    "average_degree": AverageDegree,
    "internal_density": InternalDensity,
    "edges_inside": EdgesInside,
    "fomd": FractionOverMedianDegree,
    "tpr": TriangleParticipationRatio,
    "ratio_cut": RatioCut,
    "scaled_ratio_cut": ScaledRatioCut,
    "expansion": Expansion,
    "conductance": Conductance,
    "normalized_cut": NormalizedCut,
    "max_odf": MaxOutDegreeFraction,
    "avg_odf": AverageOutDegreeFraction,
    "flake_odf": FlakeOutDegreeFraction,
    "separability": Separability,
    "modularity": Modularity,
}


def make_function(name: str, **kwargs) -> ScoringFunction:
    """Instantiate a scoring function by registry name.

    ``modularity`` accepts ``expectation=`` and ``ensemble=`` keyword
    arguments (see :class:`~repro.scoring.modularity.Modularity`).
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise KeyError(f"unknown scoring function {name!r}; known: {known}") from None
    return factory(**kwargs)


def make_paper_functions(
    *,
    modularity_expectation: str = "analytic",
    ensemble: NullModelEnsemble | None = None,
) -> list[ScoringFunction]:
    """Build the paper's four scoring functions in paper order."""
    functions: list[ScoringFunction] = [
        AverageDegree(),
        RatioCut(),
        Conductance(),
    ]
    functions.append(
        Modularity(expectation=modularity_expectation, ensemble=ensemble)
    )
    return functions


def make_all_functions() -> list[ScoringFunction]:
    """Build every registered scoring function (analytic modularity)."""
    return [make_function(name) for name in _FACTORIES]


@dataclass
class ScoreTable:
    """Scores of many groups under many functions.

    ``columns[f]`` is a float array aligned with :attr:`group_names`.
    """

    group_names: list[str]
    group_sizes: list[int]
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.group_names)

    def function_names(self) -> list[str]:
        """Names of the scored functions, in evaluation order."""
        return list(self.columns)

    def scores(self, function_name: str) -> np.ndarray:
        """Score array of one function (aligned with ``group_names``)."""
        return self.columns[function_name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-function summary statistics (mean/median/min/max)."""
        result: dict[str, dict[str, float]] = {}
        for name, values in self.columns.items():
            finite = values[np.isfinite(values)]
            if finite.size == 0:
                result[name] = {"mean": 0.0, "median": 0.0, "min": 0.0, "max": 0.0}
                continue
            result[name] = {
                "mean": float(finite.mean()),
                "median": float(finite_median(finite)),
                "min": float(finite.min()),
                "max": float(finite.max()),
            }
        return result


def finite_median(values: np.ndarray) -> np.float64:
    """Median of a non-empty finite 1-D array, bit-identical to ``np.median``.

    Takes the mean of the middle one or two sorted values, as
    ``np.median`` does after partitioning, without its NaN check, which
    imports ``numpy.ma`` (about 15 ms per process).
    """
    ordered = np.sort(values)
    middle = len(ordered) // 2
    return ordered[middle - 1 + len(ordered) % 2 : middle + 1].mean()


def _needs(functions: Sequence[ScoringFunction], kind: type) -> bool:
    return any(isinstance(function, kind) for function in functions)


def score_group(
    graph: Graph | DiGraph | AnalysisContext,
    members: Iterable[Node],
    functions: Sequence[ScoringFunction],
    *,
    graph_median_degree: float | None = None,
) -> dict[str, float]:
    """Score one vertex set under ``functions`` (a one-group batch).

    ``graph`` may be a raw graph (frozen here) or a frozen
    :class:`~repro.engine.AnalysisContext`; both score the same way.
    """
    context = AnalysisContext.ensure(graph)
    if graph_median_degree is None and _needs(
        functions, FractionOverMedianDegree
    ):
        graph_median_degree = context.median_degree
    _, matrix = score_stats_columns(
        context,
        [members],
        functions,
        graph_median_degree=graph_median_degree,
        include_internal_adjacency=_needs(
            functions, TriangleParticipationRatio
        ),
    )
    return {
        function.name: float(matrix[0, j])
        for j, function in enumerate(functions)
    }


def scoring_options(
    context: AnalysisContext, functions: Sequence[ScoringFunction]
) -> dict[str, object]:
    """Return the stats-pass options ``functions`` need, as keywords.

    FOMD needs the graph's median degree and TPR the internal adjacency
    rows; every batch scoring path (serial, shards, sampling chunks)
    passes these to :func:`~repro.scoring.columnar.score_stats_columns`.
    """
    return {
        "graph_median_degree": (
            context.median_degree
            if _needs(functions, FractionOverMedianDegree)
            else None
        ),
        "include_internal_adjacency": _needs(
            functions, TriangleParticipationRatio
        ),
    }


def score_groups(
    graph: Graph | DiGraph | AnalysisContext,
    groups: GroupIds | GroupSet | Sequence[VertexGroup],
    functions: Sequence[ScoringFunction] | None = None,
    *,
    restrict_to_graph: bool = True,
    jobs: int | None = None,
    cache: "ResultCache | str | bool | None" = None,
    executor: ParallelExecutor | None = None,
) -> ScoreTable:
    """Score every group of ``groups`` under ``functions``.

    ``functions`` defaults to the paper's four (analytic Modularity).
    ``groups`` is a named canonical :class:`~repro.engine.ids.GroupIds`
    or label groups, which are mapped to one once, here.  With
    ``restrict_to_graph`` (default) label members absent from the graph
    are dropped first — matching how the experiments treat sampled
    corpora — and groups emptied by the restriction are skipped.

    ``graph`` may be a raw :class:`Graph`/:class:`DiGraph` (frozen into an
    :class:`~repro.engine.AnalysisContext` once, here) or an existing
    context (no freeze at all); either way every group's statistics come
    from one engine batch pass over the shared CSR substrate.

    ``jobs > 1`` (or a live ``executor``) shards the batch across a
    shared-memory worker pool; shards merge in canonical group order, so
    the table is byte-identical to the serial one.  ``cache`` may serve
    the whole batch from disk, keyed on the context fingerprint, the
    functions' configuration and the groups' vertex ids.  Functions
    carrying non-scalar state (a sampled-Modularity ensemble) are scored
    serially and never cached.
    """
    if functions is None:
        functions = make_paper_functions()
    context = AnalysisContext.ensure(graph)
    with obs.span("scoring.score_groups"):
        options = scoring_options(context, functions)
        if isinstance(groups, GroupIds):
            batch = groups
        else:
            group_list = list(groups)
            batch = GroupIds.from_labels(
                context,
                [group.members for group in group_list],
                names=[group.name for group in group_list],
                restrict=restrict_to_graph,
            )
        tokens = function_tokens(functions)

        def compute() -> tuple[list[int], np.ndarray]:
            runner, own_executor = executor, False
            if runner is None and tokens is not None:
                effective = resolve_jobs(jobs)
                if effective > 1:
                    runner = ParallelExecutor(context, effective)
                    own_executor = True
            try:
                if (
                    runner is not None
                    and runner.active
                    and tokens is not None
                    and len(batch)
                ):
                    return runner.score_groups(batch, functions, **options)
                return score_stats_columns(
                    context, batch, functions, **options
                )
            finally:
                if own_executor and runner is not None:
                    runner.close()

        return _score_table(context, batch, functions, tokens, cache, compute)


def scored_table(
    context: AnalysisContext,
    groups: GroupIds,
    functions: Sequence[ScoringFunction],
    matrix: np.ndarray,
    *,
    cache: "ResultCache | str | bool | None" = None,
) -> ScoreTable:
    """Return the table of named ``groups`` already scored as ``matrix``.

    For sets scored where they were drawn (the Fig. 5 random sets,
    :class:`~repro.engine.samplers.MatchedDraw`): keyed, cached, counted
    and recorded as :func:`score_groups` would, which serves the cache's
    copy when it holds one.
    """
    with obs.span("scoring.score_groups"):
        return _score_table(
            context,
            groups,
            functions,
            function_tokens(functions),
            cache,
            lambda: (groups.sizes.tolist(), matrix),
        )


def _score_table(
    context: AnalysisContext,
    groups: GroupIds,
    functions: Sequence[ScoringFunction],
    tokens: list[dict[str, object]] | None,
    cache: "ResultCache | str | bool | None",
    compute: Callable[[], tuple[list[int], np.ndarray]],
) -> ScoreTable:
    """Serve ``groups``' table from ``cache``, else ``compute()`` it.

    ``compute`` returns per-group sizes and the ``(G, F)`` matrix; a
    computed table is stored under the batch's key.
    """
    if groups.names is None:
        raise ValueError("score_groups needs named groups")
    names = list(groups.names)
    store = ResultCache.resolve(cache)
    key: str | None = None
    if store is not None and tokens is not None:
        key = store.score_groups_key(
            context,
            tokens=tokens,
            group_names=names,
            id_lists=groups.slices(),
            include_internal_adjacency=_needs(
                functions, TriangleParticipationRatio
            ),
        )
        hit = store.load_score_table(key)
        if hit is not None:
            names, sizes, columns = hit
            _record_score_manifest(context, functions)
            return ScoreTable(group_names=names, group_sizes=sizes, columns=columns)

    sizes, matrix = compute()
    columns = {
        function.name: np.ascontiguousarray(matrix[:, j])
        for j, function in enumerate(functions)
    }
    if key is not None and store is not None:
        store.store_score_table(key, names, sizes, columns)
    if obs.enabled():
        instruments.SCORES_COMPUTED.inc(len(names) * len(functions))
        _record_score_manifest(context, functions)
    return ScoreTable(group_names=names, group_sizes=sizes, columns=columns)


def _record_score_manifest(
    context: AnalysisContext, functions: Sequence[ScoringFunction]
) -> None:
    if not obs.enabled():
        return
    instruments.SCORE_GROUPS_CALLS.inc()
    dataset_name = context.display_name or "graph"
    obs.record_manifest(
        capture_manifest(
            "score_groups",
            contexts={dataset_name: context},
            functions=[function.name for function in functions],
        )
    )
