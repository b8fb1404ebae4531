"""Scoring functions combining internal and external connectivity.

The paper's representative (section V-c) is **Conductance**, which it
highlights as capturing "the common intuition of a community" and as the
metric with the most striking circles-vs-communities difference (Fig. 6c).
The remaining functions are the combined-family members of the
Yang–Leskovec catalogue.
"""

from __future__ import annotations

import numpy as np

from repro.scoring.columnar import GroupStatsBatch

__all__ = [
    "Conductance",
    "NormalizedCut",
    "MaxOutDegreeFraction",
    "AverageOutDegreeFraction",
    "FlakeOutDegreeFraction",
    "Separability",
]


def _member_outside_fractions(batch: GroupStatsBatch) -> np.ndarray:
    """Per-member outside-edge fractions, flat across the whole batch.

    The expression is elementwise, so computing it over the concatenated
    member arrays yields the same float64 values each group's own slice
    would.
    """
    degrees = batch.member_degrees
    outside = batch.member_boundary_degrees
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(degrees > 0, outside / np.maximum(degrees, 1), 0.0)


class Conductance:
    """Conductance: :math:`f(C) = c_C / (2 m_C + c_C)` (paper eq. 3).

    Fraction of the group's total edge volume that points outside.  A well
    pronounced community scores near 0; a group as densely wired to the
    outside as inside scores near 1.  Evaluating a ratio of edge counts,
    it self-corrects for the density of the underlying graph.
    Isolated groups (no edges at all) score 0 by convention.
    """

    name = "conductance"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        volume = 2 * batch.m_C + batch.c_C
        return np.where(volume == 0, 0.0, batch.c_C / np.maximum(volume, 1))


class NormalizedCut:
    """Normalized Cut (Shi & Malik): conductance plus the complement term
    :math:`c_C / (2 (m - m_C) + c_C)`."""

    name = "normalized_cut"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        first_volume = 2 * batch.m_C + batch.c_C
        second_volume = 2 * (batch.m - batch.m_C) + batch.c_C
        first = np.where(
            first_volume == 0, 0.0, batch.c_C / np.maximum(first_volume, 1)
        )
        second = np.where(
            second_volume == 0, 0.0, batch.c_C / np.maximum(second_volume, 1)
        )
        return first + second


class MaxOutDegreeFraction:
    """Max-ODF: the worst member's fraction of edges leaving the group.

    :math:`\\max_{v \\in C} \\frac{|\\{(v,u): u \\notin C\\}|}{d(v)}`.
    """

    name = "max_odf"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        """Score a columnar batch.

        The per-member fractions are elementwise, and a float maximum is
        exact in any order, so the segment ``reduceat`` matches a
        per-group ``.max()`` byte for byte.
        """
        fractions = _member_outside_fractions(batch)
        return batch.group_max(fractions)


class AverageOutDegreeFraction:
    """Average-ODF: mean fraction of member edges leaving the group."""

    name = "avg_odf"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        """Score a columnar batch.

        Float means are order-sensitive (numpy sums pairwise), so each
        group's mean runs on its own contiguous slice — same length,
        same values, same summation tree as a per-group mean — instead
        of through a sequential ``reduceat``.
        """
        fractions = _member_outside_fractions(batch)
        offsets = batch.group_offsets.tolist()
        scores = np.empty(len(batch), dtype=np.float64)
        for g in range(len(batch)):
            scores[g] = fractions[offsets[g] : offsets[g + 1]].mean()
        return scores


class FlakeOutDegreeFraction:
    """Flake-ODF: fraction of members with fewer internal than external
    edge endpoints (i.e. internal degree < d(v)/2)."""

    name = "flake_odf"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        flake = batch.group_sum(
            (
                batch.member_internal_degrees < batch.member_degrees / 2.0
            ).astype(np.int64)
        )
        return flake / batch.n_C


class Separability:
    """Separability: ratio of internal to boundary edges, :math:`m_C / c_C`.

    Higher is more separated.  Groups with no boundary edges score
    ``inf`` when they have internal edges and 0 when fully isolated.
    """

    name = "separability"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        isolated = np.where(batch.m_C != 0, np.inf, 0.0)
        return np.where(
            batch.c_C == 0, isolated, batch.m_C / np.maximum(batch.c_C, 1)
        )
