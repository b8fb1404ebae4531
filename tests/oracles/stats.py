"""The legacy per-group statistics sweep and row-form batch helpers.

:func:`compute_group_stats` walks each member's Python adjacency sets
once per group.  It was the production stats path before the columnar
engine pass replaced it, and the identity tests keep it as the oracle
that pass must match bit for bit.  :func:`batch_group_stats` and
:func:`group_stats` return the production pass's groups as row
:class:`~oracles.scoring.GroupStats` objects, for tests written
against rows.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from repro.engine import AnalysisContext, batch_group_stats_columns
from repro.exceptions import EmptyGroupError, NodeNotFound
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

from oracles.scoring import GroupStats, row

Node = Hashable

__all__ = ["batch_group_stats", "compute_group_stats", "group_stats"]


def _positions(
    inside: Iterable[Node], position_of: dict[Node, int]
) -> np.ndarray:
    return np.asarray(
        sorted(position_of[node] for node in inside), dtype=np.int64
    )


def compute_group_stats(
    graph: Graph | DiGraph,
    members: Iterable[Node],
    *,
    graph_median_degree: float | None = None,
    include_internal_adjacency: bool = True,
) -> GroupStats:
    """Compute :class:`GroupStats` for ``members`` within ``graph``.

    Members absent from the graph raise :class:`NodeNotFound`; an empty
    member set raises :class:`EmptyGroupError`.  Members are ordered by
    their position in the graph's node order, the production batches'
    ascending vertex-id order.  Directed conventions match
    the paper: ``m_C`` counts each directed internal edge once, ``c_C``
    counts boundary edges of either direction, ``d(v) = d_in + d_out``.

    This is the legacy per-group dict sweep, kept as the engine's
    correctness oracle; production batches go through
    :func:`repro.engine.batch_group_stats_columns`.
    ``include_internal_adjacency=False`` skips materializing the induced
    internal adjacency (only TPR consumes it).
    """
    member_tuple = tuple(dict.fromkeys(members))  # deduplicated
    if not member_tuple:
        raise EmptyGroupError("cannot score an empty vertex group")
    # Members in the production batches' order: ascending vertex id,
    # which is the position in the graph's node order.
    position = {node: i for i, node in enumerate(graph)}
    for node in member_tuple:
        if node not in position:
            raise NodeNotFound(node)
    member_tuple = tuple(sorted(member_tuple, key=position.__getitem__))
    member_set = frozenset(member_tuple)
    n_C = len(member_set)
    count = len(member_tuple)

    degrees = np.zeros(count, dtype=np.int64)
    internal = np.zeros(count, dtype=np.int64)
    in_degrees = np.zeros(count, dtype=np.int64)
    out_degrees = np.zeros(count, dtype=np.int64)
    internal_endpoint_sum = 0
    boundary = 0
    position_of = (
        {node: i for i, node in enumerate(member_tuple)}
        if include_internal_adjacency
        else {}
    )
    internal_rows: list[np.ndarray] = []

    if graph.is_directed:
        succ = graph._succ  # noqa: SLF001 - single-pass fast path
        pred = graph._pred  # noqa: SLF001
        for i, node in enumerate(member_tuple):
            if node not in succ:
                raise NodeNotFound(node)
            out_set = succ[node]
            in_set = pred[node]
            out_degrees[i] = len(out_set)
            in_degrees[i] = len(in_set)
            degrees[i] = len(out_set) + len(in_set)
            inside_out = out_set & member_set
            inside_in = in_set & member_set
            internal_out = len(inside_out)
            internal_in = len(inside_in)
            internal[i] = internal_out + internal_in
            internal_endpoint_sum += internal_out  # each inside edge once
            boundary += (len(out_set) - internal_out) + (len(in_set) - internal_in)
            if include_internal_adjacency:
                internal_rows.append(
                    _positions(inside_out | inside_in, position_of)
                )
        m_C = internal_endpoint_sum
    else:
        adj = graph._adj  # noqa: SLF001
        for i, node in enumerate(member_tuple):
            if node not in adj:
                raise NodeNotFound(node)
            neighbor_set = adj[node]
            degrees[i] = len(neighbor_set)
            inside_set = neighbor_set & member_set
            inside = len(inside_set)
            internal[i] = inside
            internal_endpoint_sum += inside
            boundary += len(neighbor_set) - inside
            if include_internal_adjacency:
                internal_rows.append(_positions(inside_set, position_of))
        m_C = internal_endpoint_sum // 2

    return GroupStats(
        members=member_tuple,
        n=graph.number_of_nodes(),
        m=graph.number_of_edges(),
        n_C=n_C,
        m_C=m_C,
        c_C=boundary,
        directed=graph.is_directed,
        member_degrees=degrees,
        member_internal_degrees=internal,
        member_in_degrees=in_degrees,
        member_out_degrees=out_degrees,
        graph_median_degree=graph_median_degree,
        member_internal_neighbors=(
            tuple(internal_rows) if include_internal_adjacency else None
        ),
    )


def batch_group_stats(
    context: AnalysisContext, groups: Iterable[Iterable[Node]], **options
) -> list[GroupStats]:
    """Every group of one production batch pass, as a row object."""
    batch = batch_group_stats_columns(context, groups, **options)
    return [row(batch, i) for i in range(len(batch))]


def group_stats(
    context: AnalysisContext, members: Iterable[Node], **options
) -> GroupStats:
    """One group through the production batch pass, as a row object."""
    return row(batch_group_stats_columns(context, [members], **options), 0)
