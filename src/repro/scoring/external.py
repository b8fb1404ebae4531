"""Scoring functions based on external connectivity.

These characterize a community by its separation from the remaining graph —
the fewer boundary edges, the more community-like.  The paper's
representative (section V-b) is the **Ratio Cut**; Expansion and the
size-rescaled Ratio Cut variant are included for the magnitude discussion
in DESIGN.md (the paper quotes Ratio Cut means of 6 and 34, which only the
rescaled form can attain).
"""

from __future__ import annotations

import numpy as np

from repro.scoring.columnar import GroupStatsBatch

__all__ = ["RatioCut", "ScaledRatioCut", "Expansion"]


class RatioCut:
    """Ratio Cut: :math:`f(C) = c_C / (n_C (n - n_C))` (paper eq. 2).

    Boundary edges normalized by the balancing product of group size and
    complement size.  Lower is more community-like.  A group spanning the
    whole graph has no complement; the function returns 0 there (no
    boundary can exist).
    """

    name = "ratio_cut"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        complement = batch.n - batch.n_C
        denominator = batch.n_C * np.maximum(complement, 1)
        return np.where(complement == 0, 0.0, batch.c_C / denominator)


class ScaledRatioCut:
    """Size-rescaled Ratio Cut: :math:`n \\cdot c_C / (n_C (n - n_C))`.

    For ``n_C << n`` this approximates :math:`c_C / n_C`, the mean number of
    boundary edges per member — the scale on which the paper's quoted
    Ratio Cut means (Twitter 6, Google+ 34) live.  Ordering between data
    sets is identical to :class:`RatioCut`.
    """

    name = "scaled_ratio_cut"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        complement = batch.n - batch.n_C
        denominator = batch.n_C * np.maximum(complement, 1)
        return np.where(
            complement == 0, 0.0, batch.n * batch.c_C / denominator
        )


class Expansion:
    """Expansion: :math:`f(C) = c_C / n_C` — boundary edges per member."""

    name = "expansion"

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        return batch.c_C / batch.n_C
