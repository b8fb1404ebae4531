"""Scoring functions based on internal connectivity.

These characterize a community by how densely its members connect to each
other, ignoring the surrounding graph.  The paper's representative of this
family (section V-a) is the **Average Degree**; the remaining functions are
the internal-connectivity members of the Yang–Leskovec catalogue, included
as extensions.
"""

from __future__ import annotations

import numpy as np

from repro.scoring.columnar import GroupStatsBatch

__all__ = [
    "AverageDegree",
    "InternalDensity",
    "EdgesInside",
    "FractionOverMedianDegree",
    "TriangleParticipationRatio",
]


class AverageDegree:
    """Average internal degree: :math:`f(C) = 2 m_C / n_C` (paper eq. 1).

    The mean number of within-group link contacts per member.  Values scale
    with the density of the underlying graph, which is why the paper pairs
    it with density-corrected measures.
    """

    name = "average_degree"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        return 2.0 * batch.m_C / batch.n_C


class InternalDensity:
    """Internal edge density: fraction of possible internal edges present.

    :math:`f(C) = m_C / \\binom{n_C}{2}` (undirected) or
    :math:`m_C / (n_C (n_C - 1))` (directed).  Single-vertex groups score 0.
    """

    name = "internal_density"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        possible = batch.possible_internal_edges
        # np.maximum only rewrites the lanes np.where masks to 0.0, so
        # every surviving quotient divides by the group's own count.
        return np.where(possible == 0, 0.0, batch.m_C / np.maximum(possible, 1))


class EdgesInside:
    """Raw internal edge count: :math:`f(C) = m_C`."""

    name = "edges_inside"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        return batch.m_C.astype(np.float64)


class FractionOverMedianDegree:
    """FOMD: fraction of members whose *internal* degree exceeds the median
    total degree of the whole graph.

    Requires ``batch.graph_median_degree``: the graph-wide median is not a
    group statistic, and a batch deliberately carries no graph reference.
    The batch drivers (:func:`repro.scoring.registry.score_groups` and the
    engine) fill it in once per graph from
    :attr:`repro.engine.AnalysisContext.median_degree`.
    """

    name = "fomd"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        median = batch.graph_median_degree
        if median is None:
            raise ValueError(
                "FOMD needs batch.graph_median_degree; pass "
                "graph_median_degree= when computing the stats (e.g. "
                "AnalysisContext.median_degree) or score through "
                "score_groups()"
            )
        over = batch.group_sum(
            (batch.member_internal_degrees > median).astype(np.int64)
        )
        return over / batch.n_C


class TriangleParticipationRatio:
    """TPR: fraction of members that close at least one triangle inside C.

    Triangles are evaluated on the undirected skeleton of the induced
    subgraph, the Yang–Leskovec convention.
    """

    name = "tpr"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        """Score a columnar batch, one group at a time.

        The triangle sweep is per-group set algebra over the group's
        slice of ``batch.member_internal_neighbors`` (rows of member
        positions within the group).
        """
        rows = batch.member_internal_neighbors
        if rows is None:
            raise ValueError(
                "TPR needs batch.member_internal_neighbors; compute the "
                "stats with include_internal_adjacency=True (opt-in for "
                "batch_group_stats_columns) or score through score_groups()"
            )
        offsets = batch.group_offsets.tolist()
        scores = np.empty(len(batch), dtype=np.float64)
        for g in range(len(batch)):
            lo, hi = offsets[g], offsets[g + 1]
            # Position-indexed neighbour sets over the induced skeleton.
            inside = [set(row.tolist()) for row in rows[lo:hi]]
            in_triangle = 0
            for i, neighbors in enumerate(inside):
                others = neighbors - {i}
                for u in neighbors:
                    if inside[u] & others:
                        in_triangle += 1
                        break
            scores[g] = in_triangle / (hi - lo)
        return scores
