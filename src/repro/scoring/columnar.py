"""Struct-of-arrays scoring: one column per statistic, no per-group objects.

:class:`GroupStatsBatch` keeps the paper's Table I statistics for a
whole batch of groups as parallel int64 columns (``n_C``, ``m_C``,
``c_C``) plus flat per-member arrays sliced by ``group_offsets``; every
scoring function evaluates all groups at once through its
``score_batch`` method, the one implementation of its formula.  Most
take a handful of numpy kernel calls; TPR's triangle sweep and sampled
Modularity's null-ensemble probe loop over the groups inside their own
``score_batch``.

The scores are pinned **bitwise** to the scalar per-group formulas kept
in ``tests/oracles/scoring.py`` (``tests/scoring/test_columnar_identity.py``
enforces this with hypothesis).  The kernels therefore mirror the scalar
arithmetic operation for operation — int64 counts divide as float64
exactly like Python ints, conditionals become ``np.where`` over the same
predicates, and order-sensitive float reductions (Average-ODF's mean)
run per group slice rather than through ``reduceat``.

:func:`score_matrix` is the one shared scoring stage: the parallel
executor's workers, the service micro-batcher and the serial
``score_groups`` path all route through it, so the three call sites
cannot drift (``tests/scoring/test_columnar_identity.py`` reads the
``scoring.vectorized_calls`` counter to pin that the serial paths score
through it).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.obs import instruments
from repro.scoring.base import ScoringFunction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.engine.context import AnalysisContext
    from repro.engine.ids import GroupIds

Node = Hashable

__all__ = [
    "GroupStatsBatch",
    "score_matrix",
    "score_stats_columns",
    "stats_options",
]


@dataclass(frozen=True)
class GroupStatsBatch:
    """Statistics of many vertex groups, one array per field.

    Graph-level scalars are stored once, per-group counts are int64
    columns aligned with the batch order, and per-member breakdowns are
    flat arrays segmented by :attr:`group_offsets` (group ``i`` owns
    ``[group_offsets[i], group_offsets[i + 1])``).  Produced by
    :func:`repro.engine.batch_group_stats_columns` without materializing
    any per-group object.  Member labels are likewise kept as flat
    canonical ids plus the context's labels, and :attr:`members` is
    built on first read: only sampled Modularity reads it.
    """

    #: number of vertices / edges of the whole graph
    n: int
    m: int
    directed: bool
    #: median total degree of the whole graph, if precomputed (for FOMD)
    graph_median_degree: float | None
    #: flat deduplicated member ids (int64, ascending within each
    #: group), segmented by ``group_offsets``
    member_ids: np.ndarray = field(repr=False)
    #: the context's node labels (``node_labels[v]`` names vertex ``v``);
    #: None when the labels are the ids themselves
    node_labels: Sequence[Node] | None = field(repr=False)
    #: per-group columns (int64, aligned with the batch order)
    n_C: np.ndarray = field(repr=False)
    m_C: np.ndarray = field(repr=False)
    c_C: np.ndarray = field(repr=False)
    #: flat-member segment boundaries, length ``len(batch) + 1``
    group_offsets: np.ndarray = field(repr=False)
    #: flat per-member arrays (int64), segmented by ``group_offsets``
    member_degrees: np.ndarray = field(repr=False)
    member_internal_degrees: np.ndarray = field(repr=False)
    member_in_degrees: np.ndarray = field(repr=False)
    member_out_degrees: np.ndarray = field(repr=False)
    #: per-member internal-neighbour position rows (flat; TPR only)
    member_internal_neighbors: tuple[np.ndarray, ...] | None = field(
        default=None, repr=False
    )

    def __len__(self) -> int:
        return len(self.n_C)

    @classmethod
    def empty(
        cls,
        *,
        n: int,
        m: int,
        directed: bool,
        graph_median_degree: float | None = None,
        with_neighbors: bool = False,
    ) -> "GroupStatsBatch":
        """Build the zero-group batch for a graph (empty columns)."""
        zero = np.zeros(0, dtype=np.int64)
        return cls(
            n=n,
            m=m,
            directed=directed,
            graph_median_degree=graph_median_degree,
            member_ids=zero,
            node_labels=None,
            n_C=zero,
            m_C=zero,
            c_C=zero,
            group_offsets=np.zeros(1, dtype=np.int64),
            member_degrees=zero,
            member_internal_degrees=zero,
            member_in_degrees=zero,
            member_out_degrees=zero,
            member_internal_neighbors=(() if with_neighbors else None),
        )

    @cached_property
    def members(self) -> tuple[tuple[Node, ...], ...]:
        """Deduplicated member labels of each group, ascending vertex id.

        Built from :attr:`member_ids` on first read and kept.
        """
        flat = self.member_ids.tolist()
        if self.node_labels is not None:
            flat = list(map(self.node_labels.__getitem__, flat))
        bounds = self.group_offsets.tolist()
        return tuple(tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @property
    def member_boundary_degrees(self) -> np.ndarray:
        """Flat per-member count of edge endpoints leaving the group."""
        return self.member_degrees - self.member_internal_degrees

    @property
    def possible_internal_edges(self) -> np.ndarray:
        """Per-group maximum possible ``m_C`` (orientation-aware)."""
        pairs = self.n_C * (self.n_C - 1)
        return pairs if self.directed else pairs // 2

    def group_sum(self, per_member: np.ndarray) -> np.ndarray:
        """Reduce a flat per-member array to per-group totals.

        Segments are contiguous and never empty (an empty group raises
        before any batch is built), so ``reduceat`` is safe; on int64
        input the sums are exact and order-independent.
        """
        if len(self.n_C) == 0:
            return np.zeros(0, dtype=per_member.dtype)
        return np.add.reduceat(per_member, self.group_offsets[:-1])

    def group_max(self, per_member: np.ndarray) -> np.ndarray:
        """Reduce a flat per-member array to per-group maxima."""
        if len(self.n_C) == 0:
            return np.zeros(0, dtype=per_member.dtype)
        return np.maximum.reduceat(per_member, self.group_offsets[:-1])


def score_matrix(
    functions: Sequence[ScoringFunction], batch: GroupStatsBatch
) -> np.ndarray:
    """Score a batch under many functions into one ``(G, F)`` matrix.

    Column ``j`` holds ``functions[j].score_batch(batch)`` (counted on
    ``scoring.vectorized_calls``).  This is the single scoring stage
    shared by the serial ``score_groups`` path, the parallel executor's
    workers and the service micro-batcher.
    """
    if obs.enabled():
        instruments.SCORING_BATCH_GROUPS.observe(len(batch))
    matrix = np.empty((len(batch), len(functions)), dtype=np.float64)
    for j, function in enumerate(functions):
        if obs.enabled():
            instruments.SCORING_VECTORIZED.inc(label=function.name)
        matrix[:, j] = function.score_batch(batch)
    return matrix


def stats_options(
    context: "AnalysisContext", functions: Sequence[ScoringFunction]
) -> dict[str, object]:
    """Return the stats-pass keywords ``functions`` need.

    FOMD needs the graph's median degree and TPR each member's internal
    neighbour rows; the stats pass computes neither for other functions.
    The one place that reads these needs off a function list.
    """
    # Imported here: repro.scoring.internal imports this module.
    from repro.scoring.internal import (
        FractionOverMedianDegree,
        TriangleParticipationRatio,
    )

    def needs(kind: type) -> bool:
        return any(isinstance(function, kind) for function in functions)

    return {
        "graph_median_degree": (
            context.median_degree if needs(FractionOverMedianDegree) else None
        ),
        "include_internal_adjacency": needs(TriangleParticipationRatio),
    }


def score_stats_columns(
    context: "AnalysisContext",
    groups: "GroupIds | Sequence[Iterable[Node]]",
    functions: Sequence[ScoringFunction],
) -> tuple[list[int], np.ndarray]:
    """Compute stats columns and score them in one pass.

    ``groups`` is a canonical :class:`~repro.engine.ids.GroupIds` or
    label lists (mapped to one by the stats pass).  The stats pass
    computes what ``functions`` need (:func:`stats_options`).  Returns
    per-group deduplicated sizes and the ``(G, F)`` score matrix.  The
    one shared helper behind every batch scoring entry point — worker
    shards and the serial paths produce their packed column shards
    here, which is what keeps ``--jobs`` byte-identical.
    """
    from repro.engine.batch import batch_group_stats_columns

    batch = batch_group_stats_columns(
        context, groups, **stats_options(context, functions)
    )
    return batch.n_C.tolist(), score_matrix(functions, batch)
