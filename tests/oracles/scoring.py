"""The scalar scoring formulas, one group at a time.

Every scoring function was once written twice: as a callable
``f(stats: GroupStats) -> float`` over one group and as the columnar
``score_batch`` production runs.  The classes here keep the scalar
bodies unchanged, named after the :mod:`repro.scoring` classes whose
``score_batch`` they check: ``tests/scoring/test_columnar_identity.py``,
``tests/engine/test_batch_stats.py`` and
``benchmarks/bench_columnar_scoring.py`` compare production against
:func:`scalar_scores` byte for byte.  :class:`GroupStats` is the
one-group row the formulas read, and :func:`row` cuts one out of a
production :class:`~repro.scoring.columnar.GroupStatsBatch`.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from repro.scoring.base import ScoringFunction
from repro.scoring.columnar import GroupStatsBatch

Node = Hashable

__all__ = ["GroupStats", "row", "scalar_scores", "scalar_twin"]


@dataclass(frozen=True)
class GroupStats:
    """One-pass structural statistics of a vertex group within its graph.

    Attributes follow the paper's nomenclature (Table I); the per-member
    arrays are aligned with :attr:`members`.
    """

    members: tuple[Node, ...] = field(repr=False)
    n: int
    m: int
    n_C: int
    m_C: int
    c_C: int
    directed: bool
    #: total degree d(v) of each member in the full graph
    member_degrees: np.ndarray = field(repr=False)
    #: degree restricted to edges with both endpoints in C
    member_internal_degrees: np.ndarray = field(repr=False)
    #: in-degree of each member (directed only; zeros otherwise)
    member_in_degrees: np.ndarray = field(repr=False)
    #: out-degree of each member (directed only; zeros otherwise)
    member_out_degrees: np.ndarray = field(repr=False)
    #: median total degree of the whole graph, if precomputed (for FOMD)
    graph_median_degree: float | None = None
    #: per-member sorted arrays of internal-neighbour member *positions*
    #: (undirected skeleton of the induced subgraph; needed only by TPR)
    member_internal_neighbors: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False
    )

    @property
    def member_boundary_degrees(self) -> np.ndarray:
        """Per-member count of edge endpoints leaving the group."""
        return self.member_degrees - self.member_internal_degrees

    @property
    def degree_sum(self) -> int:
        """:math:`\\sum_{v \\in C} d(v)` — total degree volume of the group."""
        return int(self.member_degrees.sum())

    @property
    def internal_degree_sum(self) -> int:
        """Sum of internal degrees; equals ``2 * m_C`` (any orientation)."""
        return int(self.member_internal_degrees.sum())

    @property
    def possible_internal_edges(self) -> int:
        """Maximum possible ``m_C`` given ``n_C`` (orientation-aware)."""
        pairs = self.n_C * (self.n_C - 1)
        return pairs if self.directed else pairs // 2


def row(batch: GroupStatsBatch, i: int) -> GroupStats:
    """Group ``i`` of ``batch`` as a :class:`GroupStats`.

    The per-member arrays are slices of the batch's flat arrays (no
    copy).
    """
    lo = int(batch.group_offsets[i])
    hi = int(batch.group_offsets[i + 1])
    neighbors: tuple[np.ndarray, ...] | None = None
    if batch.member_internal_neighbors is not None:
        neighbors = tuple(batch.member_internal_neighbors[lo:hi])
    return GroupStats(
        members=batch.members[i],
        n=batch.n,
        m=batch.m,
        n_C=hi - lo,
        m_C=int(batch.m_C[i]),
        c_C=int(batch.c_C[i]),
        directed=batch.directed,
        member_degrees=batch.member_degrees[lo:hi],
        member_internal_degrees=batch.member_internal_degrees[lo:hi],
        member_in_degrees=batch.member_in_degrees[lo:hi],
        member_out_degrees=batch.member_out_degrees[lo:hi],
        graph_median_degree=batch.graph_median_degree,
        member_internal_neighbors=neighbors,
    )


# -- the scalar twins: one class per registry function -----------------------


class AverageDegree:
    name = "average_degree"

    def __call__(self, stats: GroupStats) -> float:
        return 2.0 * stats.m_C / stats.n_C


class InternalDensity:
    name = "internal_density"

    def __call__(self, stats: GroupStats) -> float:
        possible = stats.possible_internal_edges
        if possible == 0:
            return 0.0
        return stats.m_C / possible


class EdgesInside:
    name = "edges_inside"

    def __call__(self, stats: GroupStats) -> float:
        return float(stats.m_C)


class FractionOverMedianDegree:
    name = "fomd"

    def __call__(self, stats: GroupStats) -> float:
        median = stats.graph_median_degree
        if median is None:
            raise ValueError(
                "FOMD needs stats.graph_median_degree; pass "
                "graph_median_degree= when computing the stats (e.g. "
                "AnalysisContext.median_degree) or score through "
                "score_groups()"
            )
        over = int((stats.member_internal_degrees > median).sum())
        return over / stats.n_C


class TriangleParticipationRatio:
    name = "tpr"

    def __call__(self, stats: GroupStats) -> float:
        rows = stats.member_internal_neighbors
        if rows is None:
            raise ValueError(
                "TPR needs stats.member_internal_neighbors; compute the "
                "stats with include_internal_adjacency=True (opt-in for "
                "batch_group_stats_columns) or score through score_groups()"
            )
        # Position-indexed neighbour sets over the induced skeleton.
        inside = [set(row.tolist()) for row in rows]
        in_triangle = 0
        for i, neighbors in enumerate(inside):
            others = neighbors - {i}
            for u in neighbors:
                if inside[u] & others:
                    in_triangle += 1
                    break
        return in_triangle / stats.n_C


class RatioCut:
    name = "ratio_cut"

    def __call__(self, stats: GroupStats) -> float:
        complement = stats.n - stats.n_C
        if complement == 0:
            return 0.0
        return stats.c_C / (stats.n_C * complement)


class ScaledRatioCut:
    name = "scaled_ratio_cut"

    def __call__(self, stats: GroupStats) -> float:
        complement = stats.n - stats.n_C
        if complement == 0:
            return 0.0
        return stats.n * stats.c_C / (stats.n_C * complement)


class Expansion:
    name = "expansion"

    def __call__(self, stats: GroupStats) -> float:
        return stats.c_C / stats.n_C


class Conductance:
    name = "conductance"

    def __call__(self, stats: GroupStats) -> float:
        volume = 2 * stats.m_C + stats.c_C
        if volume == 0:
            return 0.0
        return stats.c_C / volume


class NormalizedCut:
    name = "normalized_cut"

    def __call__(self, stats: GroupStats) -> float:
        first_volume = 2 * stats.m_C + stats.c_C
        second_volume = 2 * (stats.m - stats.m_C) + stats.c_C
        first = stats.c_C / first_volume if first_volume else 0.0
        second = stats.c_C / second_volume if second_volume else 0.0
        return first + second


class MaxOutDegreeFraction:
    name = "max_odf"

    def __call__(self, stats: GroupStats) -> float:
        degrees = stats.member_degrees
        outside = stats.member_boundary_degrees
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(degrees > 0, outside / np.maximum(degrees, 1), 0.0)
        return float(fractions.max()) if fractions.size else 0.0


class AverageOutDegreeFraction:
    name = "avg_odf"

    def __call__(self, stats: GroupStats) -> float:
        degrees = stats.member_degrees
        outside = stats.member_boundary_degrees
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(degrees > 0, outside / np.maximum(degrees, 1), 0.0)
        return float(fractions.mean()) if fractions.size else 0.0


class FlakeOutDegreeFraction:
    name = "flake_odf"

    def __call__(self, stats: GroupStats) -> float:
        internal = stats.member_internal_degrees
        flake = int((internal < stats.member_degrees / 2.0).sum())
        return flake / stats.n_C


class Separability:
    name = "separability"

    def __call__(self, stats: GroupStats) -> float:
        if stats.c_C == 0:
            return float("inf") if stats.m_C else 0.0
        return stats.m_C / stats.c_C


def analytic_expected_internal_edges(stats: GroupStats) -> float:
    """Closed-form configuration-model expectation of :math:`m_C`.

    Undirected: each unordered pair ``{u, v}`` inside C is an edge with
    probability ``d_u d_v / 2m``.  Directed: each ordered pair ``(u, v)``
    is an edge with probability ``d_out(u) d_in(v) / m``.
    """
    if stats.m == 0:
        return 0.0
    if stats.directed:
        out_sum = float(stats.member_out_degrees.sum())
        in_sum = float(stats.member_in_degrees.sum())
        self_pairs = float(
            (stats.member_out_degrees * stats.member_in_degrees).sum()
        )
        return (out_sum * in_sum - self_pairs) / stats.m
    degrees = stats.member_degrees.astype(np.float64)
    degree_sum = float(degrees.sum())
    square_sum = float((degrees * degrees).sum())
    return (degree_sum * degree_sum - square_sum) / (4.0 * stats.m)


class Modularity:
    name = "modularity"

    def __init__(self, expectation: str = "analytic", ensemble=None) -> None:
        self.expectation = expectation
        self.ensemble = ensemble

    def __call__(self, stats: GroupStats) -> float:
        if stats.m == 0:
            return 0.0
        if self.expectation == "analytic":
            expected = analytic_expected_internal_edges(stats)
        else:
            assert self.ensemble is not None
            expected = self.ensemble.expected_internal_edges(stats.members)
        return (stats.m_C - expected) / (2.0 * stats.m)


_TWINS = {
    twin.name: twin
    for twin in (
        AverageDegree,
        InternalDensity,
        EdgesInside,
        FractionOverMedianDegree,
        TriangleParticipationRatio,
        RatioCut,
        ScaledRatioCut,
        Expansion,
        Conductance,
        NormalizedCut,
        MaxOutDegreeFraction,
        AverageOutDegreeFraction,
        FlakeOutDegreeFraction,
        Separability,
        Modularity,
    )
}


def scalar_twin(function: ScoringFunction):
    """The scalar formula of a production function, with its settings.

    Only Modularity carries settings (``expectation`` and ``ensemble``);
    they pass through as constructor keywords.
    """
    return _TWINS[function.name](**vars(function))


def scalar_scores(function: ScoringFunction, batch: GroupStatsBatch) -> np.ndarray:
    """Score ``batch`` row by row through ``function``'s scalar twin."""
    twin = scalar_twin(function)
    return np.array(
        [float(twin(row(batch, i))) for i in range(len(batch))],
        dtype=np.float64,
    )
