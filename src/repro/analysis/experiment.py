"""The circles-vs-random experiment (paper section V-A, Figure 5).

For every circle, a size-matched random vertex set is sampled (random walk
by default); both populations are scored under the four paper functions and
the resulting per-function CDF pairs are returned.  The paper's conclusion
— circles are pronounced structures — corresponds to the circle and random
CDFs separating clearly on every function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.analysis.cdf import EmpiricalCDF
from repro.data.datasets import Dataset
from repro.data.groups import GroupSet, VertexGroup
from repro.engine import (
    AnalysisContext,
    ParallelExecutor,
    ResultCache,
    resolve_jobs,
    sample_matched_sets,
)
from repro.obs import capture_manifest, instruments
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.base import ScoringFunction
from repro.scoring.registry import ScoreTable, make_paper_functions, score_groups

__all__ = ["CirclesVsRandomResult", "circles_vs_random"]


@dataclass
class CirclesVsRandomResult:
    """Per-function score CDFs for circles and matched random sets."""

    dataset: str
    sampler: str
    circle_scores: ScoreTable = field(repr=False)
    random_scores: ScoreTable = field(repr=False)

    def function_names(self) -> list[str]:
        """Scored function names, in evaluation order."""
        return self.circle_scores.function_names()

    def cdf_pair(self, function_name: str) -> tuple[EmpiricalCDF, EmpiricalCDF]:
        """Return ``(circles_cdf, random_cdf)`` for one function (Fig. 5
        panel)."""
        return (
            EmpiricalCDF(self.circle_scores.scores(function_name), label="circles"),
            EmpiricalCDF(self.random_scores.scores(function_name), label="random"),
        )

    def separation_summary(self) -> dict[str, dict[str, float]]:
        """Paper-claim-oriented summary per function.

        Reports means/medians of both populations plus the fraction of
        circles below the random median — the quantity behind "the score
        for more than 70% of the circles is lower than for the random
        sets" (Ratio Cut) and "more than 50% of the circles show a
        significant deviation" (Modularity).
        """
        summary: dict[str, dict[str, float]] = {}
        for name in self.function_names():
            circles, randoms = self.cdf_pair(name)
            random_median = randoms.median
            summary[name] = {
                "circle_mean": circles.mean,
                "random_mean": randoms.mean,
                "circle_median": circles.median,
                "random_median": random_median,
                "circles_below_random_median": circles(random_median),
            }
        return summary


def circles_vs_random(
    source: Dataset | tuple[Graph | DiGraph, GroupSet],
    *,
    functions: list[ScoringFunction] | None = None,
    sampler: str = "random_walk",
    seed: int | None = 0,
    min_group_size: int = 2,
    context: AnalysisContext | None = None,
    jobs: int | None = None,
    cache: "ResultCache | str | bool | None" = None,
) -> CirclesVsRandomResult:
    """Run the Fig. 5 experiment: score circles against matched random sets.

    ``sampler`` selects the baseline generator (``random_walk`` is the
    paper's choice; see :mod:`repro.engine.samplers` for the CSR-native
    implementations and :mod:`repro.sampling.random_sets` for the ablation
    alternatives).  Groups smaller than ``min_group_size`` (after
    restriction to the graph) are skipped — a single vertex scores
    degenerately under every function.

    The graph is frozen into an :class:`~repro.engine.AnalysisContext`
    exactly once; scoring of both populations and the matched sampling all
    share that one substrate.  Pass ``context`` to reuse an existing
    freeze of the same graph.

    ``jobs > 1`` runs circle scoring, matched sampling and random-set
    scoring on one shared worker pool over the frozen context (results
    stay byte-identical to serial); ``cache`` serves repeated runs from
    disk (see :class:`~repro.engine.ResultCache`).
    """
    if isinstance(source, Dataset):
        graph, groups = source.graph, source.groups
        dataset_name = source.name
    else:
        graph, groups = source
        dataset_name = graph.name or "graph"
    functions = functions or make_paper_functions()
    context = AnalysisContext.ensure(context if context is not None else graph)

    with obs.span("experiment.circles_vs_random"):
        group_list = list(groups)
        restricted = context.restrict(
            [list(group.members) for group in group_list]
        )
        usable = [
            group
            for group, members in zip(group_list, restricted)
            if len(members) >= min_group_size
        ]
        usable_set = GroupSet(groups=usable, name=dataset_name)

        # One executor spans all three phases, so pool startup and the
        # shared-memory CSR export are paid once per run, not per batch.
        effective_jobs = resolve_jobs(jobs)
        executor = (
            ParallelExecutor(context, effective_jobs)
            if effective_jobs > 1
            else None
        )
        try:
            circle_scores = score_groups(
                context, usable_set, functions, cache=cache, executor=executor
            )
            sizes = circle_scores.group_sizes
            random_sets = sample_matched_sets(
                context, sizes, sampler, seed=seed, cache=cache,
                executor=executor,
            )
            random_groups = GroupSet(
                groups=[
                    VertexGroup(name=f"random-{i}", members=frozenset(members))
                    for i, members in enumerate(random_sets)
                ],
                name=f"{dataset_name}-random",
            )
            random_scores = score_groups(
                context,
                random_groups,
                functions,
                restrict_to_graph=False,
                cache=cache,
                executor=executor,
            )
        finally:
            if executor is not None:
                executor.close()
        if obs.enabled():
            instruments.EXPERIMENT_RUNS.inc(label="circles_vs_random")
            obs.record_manifest(
                capture_manifest(
                    "circles_vs_random",
                    contexts={dataset_name: context},
                    seeds={"sampler": seed},
                    functions=[function.name for function in functions],
                    extra={"sampler": sampler},
                )
            )
    return CirclesVsRandomResult(
        dataset=dataset_name,
        sampler=sampler,
        circle_scores=circle_scores,
        random_scores=random_scores,
    )
