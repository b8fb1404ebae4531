"""The scoring-function protocol.

Every scoring function in the paper (and in the Yang–Leskovec catalogue it
draws from) is a function of a handful of group statistics — the paper's
Table I nomenclature:

=========  =====================================================
``n``      number of vertices in the graph
``m``      number of edges in the graph
``n_C``    number of vertices in the group :math:`C`
``m_C``    number of edges inside :math:`C`
``c_C``    number of edges at the boundary of :math:`C`
``d(v)``   degree of vertex ``v`` (in + out when directed)
=========  =====================================================

:class:`~repro.scoring.columnar.GroupStatsBatch` holds them for a whole
batch of groups, one column per statistic plus flat per-member degree
breakdowns, so that *all* scoring functions can be evaluated without
revisiting the graph.  Batches are computed by
:func:`repro.engine.batch_group_stats_columns` from one frozen
:class:`~repro.engine.AnalysisContext`.  A batch is a pure value
object — it carries no reference to the graph it was measured on, so
holding one does not pin the substrate in memory and never reads
mutated state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (columnar imports us)
    from repro.scoring.columnar import GroupStatsBatch

__all__ = ["ScoringFunction"]


@runtime_checkable
class ScoringFunction(Protocol):
    """A community scoring function ``f(C)`` evaluated over a batch.

    ``score_batch`` returns one float64 score per group, in batch order.
    """

    name: str

    def score_batch(
        self, batch: "GroupStatsBatch"
    ) -> np.ndarray:  # pragma: no cover - protocol
        ...
