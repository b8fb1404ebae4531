"""Ego-centred circle analysis — the paper's future-work direction (§VI).

The paper evaluates circles inside the *joined* corpus ("a global view")
and closes by proposing to "extend our research on group structures from a
global to an ego-centred view".  This module implements that extension:
every circle is scored twice —

* **globally**, within the joined social graph (the paper's setting), and
* **locally**, within its owner's ego network only,

and the per-circle score pairs quantify how much of a circle's apparent
diffusion (conductance ≈ 1) is contributed by the *rest of the corpus*
versus by the owner's own contact neighbourhood.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.cdf import EmpiricalCDF
from repro.data.ego import EgoNetworkCollection
from repro.engine import AnalysisContext
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.scoring.base import ScoringFunction
from repro.scoring.columnar import score_stats_columns
from repro.scoring.registry import make_paper_functions

__all__ = ["EgoViewResult", "ego_centered_scores"]


@dataclass
class EgoViewResult:
    """Per-circle local-vs-global scores.

    ``local[f]`` and ``global_[f]`` are aligned arrays over
    :attr:`circle_names`; ``owners`` maps each circle to its ego.
    """

    circle_names: list[str]
    owners: list[object]
    local: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    global_: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.circle_names)

    def function_names(self) -> list[str]:
        """Scored function names."""
        return list(self.local)

    def cdf_pair(self, function_name: str) -> tuple[EmpiricalCDF, EmpiricalCDF]:
        """``(local_cdf, global_cdf)`` of one function."""
        return (
            EmpiricalCDF(self.local[function_name], label="ego-local"),
            EmpiricalCDF(self.global_[function_name], label="global"),
        )

    def confinement_gain(self) -> dict[str, float]:
        """Median per-circle drop in conductance when viewed ego-locally.

        A large positive value means circles *are* confined within their
        owner's world and only look diffuse against the whole corpus —
        the ego-centred refinement of the paper's conclusion.
        """
        gains: dict[str, float] = {}
        if "conductance" in self.local:
            difference = self.global_["conductance"] - self.local["conductance"]
            gains["conductance_drop_median"] = float(np.median(difference))
            gains["circles_more_confined_locally"] = float(
                (difference > 0).mean()
            )
        return gains

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-function local/global medians."""
        rows: dict[str, dict[str, float]] = {}
        for name in self.function_names():
            local_cdf, global_cdf = self.cdf_pair(name)
            rows[name] = {
                "local_median": local_cdf.median,
                "global_median": global_cdf.median,
            }
        return rows


def ego_centered_scores(
    collection: EgoNetworkCollection,
    *,
    functions: list[ScoringFunction] | None = None,
    joined: Graph | DiGraph | AnalysisContext | None = None,
    min_group_size: int = 2,
) -> EgoViewResult:
    """Score every circle in its ego network and in the joined corpus.

    ``joined`` may be passed to reuse an existing join — either the raw
    joined graph or an already-frozen
    :class:`~repro.engine.AnalysisContext` of it.  The joined corpus is
    frozen exactly once; each ego network is materialized and frozen into
    its own local context (the ego itself is part of the local graph, as
    it would be in a private ego-centred crawl).  Each ego network's
    circles are scored in one batch on its context, and all circles in
    one batch on the joined context.
    """
    functions = functions or make_paper_functions()
    joined_context = AnalysisContext.ensure(
        joined if joined is not None else collection.join()
    )

    circle_names: list[str] = []
    owners: list[object] = []
    local_parts = [np.empty((0, len(functions)))]
    global_members: list[list] = []
    for network in collection:
        local_context = AnalysisContext(network.graph())
        local_members: list[list] = []
        for circle in network.circles:
            members = [
                node for node in circle.members if node in local_context
            ]
            if len(members) < min_group_size:
                continue
            joined_members = [
                node for node in circle.members if node in joined_context
            ]
            if len(joined_members) < min_group_size:
                continue
            circle_names.append(f"{network.ego}/{circle.name}")
            owners.append(network.ego)
            local_members.append(members)
            global_members.append(joined_members)
        _, matrix = score_stats_columns(local_context, local_members, functions)
        local_parts.append(matrix)
    local = np.concatenate(local_parts)
    _, global_ = score_stats_columns(joined_context, global_members, functions)

    result = EgoViewResult(circle_names=circle_names, owners=owners)
    for j, function in enumerate(functions):
        result.local[function.name] = np.ascontiguousarray(local[:, j])
        result.global_[function.name] = np.ascontiguousarray(global_[:, j])
    return result
