"""Shared machinery for community scoring functions.

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

:class:`GroupStats` holds them for one group, with per-member degree
breakdowns, so that *all* scoring functions can be evaluated without
revisiting the graph.  They are computed for whole batches of groups by
:func:`repro.engine.batch_group_stats_columns`, from one frozen
:class:`~repro.engine.AnalysisContext`; a :class:`GroupStats` is the
row view :meth:`repro.scoring.columnar.GroupStatsBatch.row` returns.  It
is a pure value object — it carries no reference to the graph it was
measured on, so holding thousands of them does not pin the substrate in
memory and never reads mutated state.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field, replace
from typing import Protocol, runtime_checkable

import numpy as np

Node = Hashable

__all__ = ["GroupStats", "ScoringFunction"]


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

    def with_median_degree(self, median: float) -> "GroupStats":
        """Return a copy carrying the graph-wide median degree (FOMD)."""
        return replace(self, graph_median_degree=median)


@runtime_checkable
class ScoringFunction(Protocol):
    """A community scoring function ``f(C)`` evaluated from group statistics."""

    name: str

    def __call__(self, stats: GroupStats) -> float:  # pragma: no cover - protocol
        ...
