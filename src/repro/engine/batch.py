"""Vectorized batch computation of :class:`~repro.scoring.base.GroupStats`.

The legacy :func:`~repro.scoring.base.compute_group_stats` sweeps Python
set adjacency once per group; at hundreds of groups that interpreter
overhead dominates every Fig. 5/6 run.  :func:`batch_group_stats` computes
the same statistics for *all* groups at once with no per-group numpy
calls, choosing between two membership kernels over one flat member
layout:

* **pairs** — enumerate every ``(u, v)`` member pair per group
  (:math:`\\sum_C n_C^2` probes) and test adjacency in O(1) against the
  CSR's dense bitset (falling back to sorted ``src * n + dst`` edge-key
  binary search above the bitset memory cap).  Wins for small groups on
  high-degree graphs — the selective-sharing circles of the paper.
* **gather** — concatenate the members' CSR rows
  (:math:`\\sum_C \\sum_{v \\in C} d(v)` entries) and test each gathered
  ``(group, neighbour)`` entry against a sorted membership key table.
  Wins for groups whose size exceeds their members' degrees (e.g. the
  whole graph as one group).

``strategy="auto"`` picks whichever predicts fewer touched entries for
the batch.  The legacy per-group path stays in :mod:`repro.scoring.base`
as the correctness oracle; ``tests/engine/test_batch_stats.py`` asserts
both kernels are bit-identical to it on random directed and undirected
graphs.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Literal

import numpy as np

from repro import obs
from repro.engine.context import AnalysisContext
from repro.exceptions import EmptyGroupError
from repro.obs import instruments
from repro.graph.csr import CSRGraph
from repro.scoring.base import GroupStats
from repro.scoring.columnar import GroupStatsBatch

Node = Hashable

Strategy = Literal["auto", "pairs", "gather"]

__all__ = ["batch_group_stats", "batch_group_stats_columns", "group_stats"]

#: Entry stream of one membership pass: per-entry owning member row,
#: boolean inside-the-group flag, and the kernel-specific payload needed
#: to recover the internal neighbour's member position.
_Entries = tuple[np.ndarray, np.ndarray, np.ndarray]


class _MemberTable:
    """Flat member layout shared by every orientation pass of one batch.

    ``ids`` concatenates the (deduplicated) member ids of all groups;
    ``member_group[j]`` is the group the ``j``-th member row belongs to.
    """

    __slots__ = (
        "n",
        "ids",
        "sizes",
        "member_group",
        "group_offsets",
        "total_members",
        "num_groups",
        "_sorted_keys",
        "_key_order",
        "_pair_offsets",
        "_pair_u",
        "_pair_v_member",
        "_pair_u_vertex",
        "_pair_v_vertex",
        "_pair_transpose",
    )

    def __init__(self, n: int, ids: np.ndarray, sizes: np.ndarray) -> None:
        self.n = n
        self.num_groups = len(sizes)
        self.sizes = sizes
        self.ids = ids
        self.total_members = int(sizes.sum())
        self.member_group = np.repeat(
            np.arange(self.num_groups, dtype=np.int64), sizes
        )
        self.group_offsets = np.concatenate(([0], np.cumsum(sizes)))
        self._sorted_keys: np.ndarray | None = None
        self._key_order: np.ndarray | None = None
        self._pair_offsets: np.ndarray | None = None
        self._pair_u: np.ndarray | None = None
        self._pair_v_member: np.ndarray | None = None
        self._pair_u_vertex: np.ndarray | None = None
        self._pair_v_vertex: np.ndarray | None = None
        self._pair_transpose: np.ndarray | None = None

    def member_positions(self) -> np.ndarray:
        """Position of each member row within its own group."""
        return (
            np.arange(self.total_members, dtype=np.int64)
            - self.group_offsets[self.member_group]
        )

    # -- pairs kernel --------------------------------------------------------

    def _ensure_pairs(self) -> None:
        """Enumerate all ordered member pairs of every group once."""
        if self._pair_u is not None:
            return
        # Member row j of a size-k group pairs with that group's k rows.
        k_of_member = self.sizes[self.member_group]
        total_pairs = int(k_of_member.sum())
        starts = self.group_offsets[self.member_group]
        offsets = np.concatenate(([0], np.cumsum(k_of_member[:-1])))
        self._pair_offsets = offsets
        self._pair_u = np.repeat(
            np.arange(self.total_members, dtype=np.int64), k_of_member
        )
        self._pair_v_member = np.arange(total_pairs, dtype=np.int64) + np.repeat(
            starts - offsets, k_of_member
        )
        self._pair_u_vertex = self.ids[self._pair_u]
        self._pair_v_vertex = self.ids[self._pair_v_member]

    def pair_transpose(self) -> np.ndarray:
        """Permutation mapping pair ``(u, v)`` to its mirror ``(v, u)``.

        Lets one directed out-probe answer the in-direction too:
        ``inside_in = inside_out[pair_transpose()]``.
        """
        if self._pair_transpose is None:
            self._ensure_pairs()
            assert self._pair_u is not None
            assert self._pair_v_member is not None
            assert self._pair_offsets is not None
            k_of_member = self.sizes[self.member_group]
            k_per_pair = np.repeat(k_of_member, k_of_member)
            starts_per_pair = np.repeat(
                self.group_offsets[self.member_group], k_of_member
            )
            pos_u = np.repeat(self.member_positions(), k_of_member)
            pos_v = self._pair_v_member - starts_per_pair
            # Pair t sits at (group pair base) + pos_u * k + pos_v; its
            # mirror swaps the two positions.  The base is the group's
            # first member's pair offset.
            group_pair_base = self._pair_offsets[starts_per_pair]
            self._pair_transpose = group_pair_base + pos_v * k_per_pair + pos_u
        return self._pair_transpose

    def pairs_probe(self, csr: CSRGraph) -> np.ndarray:
        """Boolean per-pair adjacency: is ``u -> v`` an edge of ``csr``?

        Uses the O(1) dense bitset when the graph fits the memory cap,
        else sorted edge-key binary search.  Self-pairs only hit on
        self-loops, matching legacy set-intersection semantics.  The
        mirrored ``v -> u`` answers come for free via
        :meth:`pair_transpose`.
        """
        self._ensure_pairs()
        assert self._pair_u_vertex is not None
        assert self._pair_v_vertex is not None
        u, v = self._pair_u_vertex, self._pair_v_vertex
        bits = csr.adjacency_bits()
        if bits is not None:
            return (bits[u, v >> 3] >> (v & 7).astype(np.uint8)) & 1 != 0
        edge_keys = csr.edge_keys()
        if edge_keys.size == 0:
            return np.zeros(len(u), dtype=bool)
        pair_keys = u * np.int64(self.n) + v
        position = np.searchsorted(edge_keys, pair_keys)
        position = np.minimum(position, edge_keys.size - 1)
        return edge_keys[position] == pair_keys

    def pairs_reduce(self, inside: np.ndarray) -> np.ndarray:
        """Per-member internal degrees from a per-pair inside flag."""
        assert self._pair_offsets is not None
        # Pair segments are member-contiguous and never empty (every
        # member pairs with its own group), so reduceat is safe.
        return np.add.reduceat(inside.astype(np.int64), self._pair_offsets)

    def pair_entries(self, inside: np.ndarray) -> _Entries:
        """Package a per-pair inside flag as an adjacency entry stream."""
        assert self._pair_u is not None and self._pair_v_member is not None
        return (self._pair_u, inside, self._pair_v_member)

    def pair_neighbor_rows(self, entries: _Entries) -> list[np.ndarray]:
        """Internal-neighbour member positions from a pairs entry stream."""
        pair_u, inside, pair_v_member = entries
        owners = pair_u[inside]
        positions = (
            pair_v_member - self.group_offsets[self.member_group[pair_u]]
        )[inside]
        # Pairs are generated owner-major with ascending v, so the stream
        # is already sorted by (owner, position) — split and done.
        splits = np.cumsum(np.bincount(owners, minlength=self.total_members))
        return np.split(positions, splits[:-1])

    # -- gather kernel -------------------------------------------------------

    def _membership_keys(self) -> tuple[np.ndarray, np.ndarray]:
        if self._sorted_keys is None:
            member_keys = self.member_group * np.int64(self.n) + self.ids
            self._key_order = np.argsort(member_keys)
            self._sorted_keys = member_keys[self._key_order]
        assert self._key_order is not None
        return self._sorted_keys, self._key_order

    def gather_inside(
        self, csr: CSRGraph, *, keep_entries: bool = False
    ) -> tuple[np.ndarray, _Entries | None]:
        """Per-member internal degrees by gathering the members' CSR rows.

        Every gathered ``(group, neighbour)`` entry is tested against the
        sorted ``group * n + vertex`` membership key table.
        """
        sorted_keys, _ = self._membership_keys()
        starts = csr.indptr[self.ids]
        counts = csr.indptr[self.ids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.zeros(self.total_members, dtype=np.int64), None
        offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets, counts
        )
        neighbors = csr.indices[flat]
        entry_member = np.repeat(
            np.arange(self.total_members, dtype=np.int64), counts
        )
        entry_keys = (
            np.repeat(self.member_group, counts) * np.int64(self.n) + neighbors
        )
        key_position = np.searchsorted(sorted_keys, entry_keys)
        key_position = np.minimum(key_position, self.total_members - 1)
        inside = sorted_keys[key_position] == entry_keys
        internal = np.bincount(
            entry_member, weights=inside, minlength=self.total_members
        ).astype(np.int64)
        entries: _Entries | None = None
        if keep_entries:
            entries = (entry_member, inside, key_position)
        return internal, entries

    def gather_neighbor_rows(self, entries: _Entries) -> list[np.ndarray]:
        """Internal-neighbour member positions from a gather entry stream."""
        entry_member, inside, key_position = entries
        _, key_order = self._membership_keys()
        # Align per-group positions with the sorted key table so a key hit
        # maps straight to the matched member's position.
        pos_sorted = self.member_positions()[key_order]
        owners = entry_member[inside]
        positions = pos_sorted[key_position[inside]]
        order = np.lexsort((positions, owners))
        positions = positions[order]
        owners = owners[order]
        splits = np.cumsum(np.bincount(owners, minlength=self.total_members))
        return np.split(positions, splits[:-1])

    # -- shared reductions ---------------------------------------------------

    def group_sum(self, per_member: np.ndarray) -> np.ndarray:
        """Reduce a per-member array to per-group totals.

        Group segments are contiguous and never empty (an empty group
        raises before the kernel runs), so reduceat is safe.
        """
        return np.add.reduceat(per_member, self.group_offsets[:-1])

    def empty_neighbor_rows(self) -> list[np.ndarray]:
        empty = np.empty(0, dtype=np.int64)
        return [empty] * self.total_members


def batch_group_stats(
    context: AnalysisContext,
    groups: Iterable[Iterable[Node]],
    *,
    graph_median_degree: float | None = None,
    include_internal_adjacency: bool = False,
    strategy: Strategy = "auto",
) -> list[GroupStats]:
    """Compute :class:`GroupStats` for every member iterable in ``groups``.

    Semantics match :func:`repro.scoring.base.compute_group_stats` exactly
    (same dedup, same error types, bit-identical counts and arrays); the
    whole batch shares one frozen context and one vectorized membership
    pass per orientation.  ``include_internal_adjacency`` additionally
    fills ``member_internal_neighbors`` (needed only by TPR).
    ``strategy`` selects the membership kernel; the default ``"auto"``
    compares the two kernels' predicted entry counts for the batch.
    """
    with obs.span("engine.score_batch"):
        return _batch_group_stats(
            context,
            groups,
            graph_median_degree=graph_median_degree,
            include_internal_adjacency=include_internal_adjacency,
            strategy=strategy,
        )


class _ColumnPass:
    """One membership pass's column arrays, shared by both assemblies.

    The struct-of-arrays core of the batch kernels: everything
    :func:`batch_group_stats` needs to assemble per-group objects and
    everything :func:`batch_group_stats_columns` packs verbatim into a
    :class:`~repro.scoring.columnar.GroupStatsBatch`.
    """

    __slots__ = (
        "member_tuples",
        "table",
        "degrees",
        "internal",
        "in_degrees",
        "out_degrees",
        "m_C_group",
        "boundary_group",
        "adjacency_rows",
    )

    def __init__(
        self,
        member_tuples: list[tuple[Node, ...]],
        table: _MemberTable,
        degrees: np.ndarray,
        internal: np.ndarray,
        in_degrees: np.ndarray,
        out_degrees: np.ndarray,
        m_C_group: np.ndarray,
        boundary_group: np.ndarray,
        adjacency_rows: list[np.ndarray] | None,
    ) -> None:
        self.member_tuples = member_tuples
        self.table = table
        self.degrees = degrees
        self.internal = internal
        self.in_degrees = in_degrees
        self.out_degrees = out_degrees
        self.m_C_group = m_C_group
        self.boundary_group = boundary_group
        self.adjacency_rows = adjacency_rows


def _batch_member_columns(
    context: AnalysisContext,
    groups: Iterable[Iterable[Node]],
    *,
    include_internal_adjacency: bool,
    strategy: Strategy,
) -> _ColumnPass | None:
    """Run one membership pass and return its column arrays.

    Returns ``None`` for an empty batch.  This is the struct-of-arrays
    core shared by the object assembly (:func:`batch_group_stats`) and
    the columnar one (:func:`batch_group_stats_columns`); the two only
    differ in how they package these arrays.
    """
    n = context.num_vertices

    member_tuples: list[tuple[Node, ...]] = []
    sizes_list: list[int] = []
    labels_flat: list[Node] = []
    for members in groups:
        member_tuple = tuple(dict.fromkeys(members))
        if not member_tuple:
            raise EmptyGroupError("cannot score an empty vertex group")
        member_tuples.append(member_tuple)
        sizes_list.append(len(member_tuple))
        labels_flat.extend(member_tuple)
    if not member_tuples:
        return None

    # Map every label of the batch in one pass; the first unknown label
    # raises NodeNotFound.
    table = _MemberTable(
        n,
        context.vertex_ids(labels_flat),
        np.asarray(sizes_list, dtype=np.int64),
    )
    if strategy == "auto":
        pair_entries = int((table.sizes * table.sizes).sum())
        gather_entries = int(context.degree_array[table.ids].sum())
        strategy = "pairs" if pair_entries <= gather_entries else "gather"
    use_pairs = strategy == "pairs"
    if obs.enabled():
        instruments.KERNEL_SELECTED.inc(label=strategy)
        instruments.GROUPS_SCORED.inc(len(member_tuples))
        instruments.GROUP_SIZE.observe_many(sizes_list)
        obs.add("groups", len(member_tuples))
        obs.add(f"kernel_{strategy}", 1)
    keep = include_internal_adjacency
    directed = context.is_directed

    entries: _Entries | None = None
    if directed:
        assert context.csr_out is not None and context.csr_in is not None
        if use_pairs:
            # One out-CSR probe pass answers both directions: mirror the
            # flags through the pair-transpose permutation for the
            # in-direction, OR them for the union adjacency.
            inside_out = table.pairs_probe(context.csr_out)
            inside_in = inside_out[table.pair_transpose()]
            internal_out = table.pairs_reduce(inside_out)
            internal_in = table.pairs_reduce(inside_in)
            if keep:
                entries = table.pair_entries(inside_out | inside_in)
        else:
            internal_out, _ = table.gather_inside(context.csr_out)
            internal_in, _ = table.gather_inside(context.csr_in)
            if keep:
                _, entries = table.gather_inside(context.csr, keep_entries=True)
        out_degrees = context.out_degree_array[table.ids]
        in_degrees = context.in_degree_array[table.ids]
        degrees = out_degrees + in_degrees
        internal = internal_out + internal_in
        m_C_group = table.group_sum(internal_out)
    else:
        if use_pairs:
            inside = table.pairs_probe(context.csr)
            internal = table.pairs_reduce(inside)
            if keep:
                entries = table.pair_entries(inside)
        else:
            internal, entries = table.gather_inside(
                context.csr, keep_entries=keep
            )
        degrees = context.csr.degree_array()[table.ids]
        m_C_group = table.group_sum(internal) // 2
        zeros = np.zeros(table.total_members, dtype=np.int64)
        in_degrees = zeros
        out_degrees = zeros
    boundary_group = table.group_sum(degrees) - table.group_sum(internal)

    adjacency_rows: list[np.ndarray] | None = None
    if include_internal_adjacency:
        if entries is None:
            adjacency_rows = table.empty_neighbor_rows()
        elif use_pairs:
            adjacency_rows = table.pair_neighbor_rows(entries)
        else:
            adjacency_rows = table.gather_neighbor_rows(entries)

    return _ColumnPass(
        member_tuples,
        table,
        degrees,
        internal,
        in_degrees,
        out_degrees,
        m_C_group,
        boundary_group,
        adjacency_rows,
    )


def _batch_group_stats(
    context: AnalysisContext,
    groups: Iterable[Iterable[Node]],
    *,
    graph_median_degree: float | None,
    include_internal_adjacency: bool,
    strategy: Strategy,
) -> list[GroupStats]:
    context = AnalysisContext.ensure(context)
    columns = _batch_member_columns(
        context,
        groups,
        include_internal_adjacency=include_internal_adjacency,
        strategy=strategy,
    )
    if columns is None:
        return []
    n = context.num_vertices
    m = context.num_edges
    directed = context.is_directed
    degrees = columns.degrees
    internal = columns.internal
    in_degrees = columns.in_degrees
    out_degrees = columns.out_degrees
    adjacency_rows = columns.adjacency_rows

    # Plain-int copies keep the assembly loop free of numpy scalar churn,
    # and the frozen-dataclass __init__ (13 object.__setattr__ calls per
    # group) is bypassed with one __dict__.update; GroupStats defines no
    # __post_init__ or __slots__, so the instances are indistinguishable.
    offsets = columns.table.group_offsets.tolist()
    m_C_list = columns.m_C_group.tolist()
    boundary_list = columns.boundary_group.tolist()
    new_stats = GroupStats.__new__
    results: list[GroupStats] = []
    for g, member_tuple in enumerate(columns.member_tuples):
        lo, hi = offsets[g], offsets[g + 1]
        internal_neighbors: tuple[np.ndarray, ...] | None = None
        if adjacency_rows is not None:
            internal_neighbors = tuple(adjacency_rows[lo:hi])
        stats = new_stats(GroupStats)
        stats.__dict__.update(
            members=member_tuple,
            n=n,
            m=m,
            n_C=hi - lo,
            m_C=m_C_list[g],
            c_C=boundary_list[g],
            directed=directed,
            member_degrees=degrees[lo:hi],
            member_internal_degrees=internal[lo:hi],
            member_in_degrees=in_degrees[lo:hi],
            member_out_degrees=out_degrees[lo:hi],
            graph_median_degree=graph_median_degree,
            member_internal_neighbors=internal_neighbors,
        )
        results.append(stats)
    return results


def batch_group_stats_columns(
    context: AnalysisContext,
    groups: Iterable[Iterable[Node]],
    *,
    graph_median_degree: float | None = None,
    include_internal_adjacency: bool = False,
    strategy: Strategy = "auto",
) -> GroupStatsBatch:
    """Compute a columnar :class:`GroupStatsBatch` for ``groups``.

    Run the same membership pass as :func:`batch_group_stats` and pack
    its column arrays directly — no per-group object is ever
    assembled.  Every field matches the object path bit for bit
    (``GroupStatsBatch.row(i)`` reconstructs the ``i``-th
    :class:`GroupStats` on demand); the columnar scoring kernels in
    :mod:`repro.scoring.columnar` consume the batch wholesale.
    """
    with obs.span("engine.score_batch"):
        context = AnalysisContext.ensure(context)
        columns = _batch_member_columns(
            context,
            groups,
            include_internal_adjacency=include_internal_adjacency,
            strategy=strategy,
        )
        if columns is None:
            return GroupStatsBatch.empty(
                n=context.num_vertices,
                m=context.num_edges,
                directed=context.is_directed,
                graph_median_degree=graph_median_degree,
                with_neighbors=include_internal_adjacency,
            )
        table = columns.table
        neighbors: tuple[np.ndarray, ...] | None = None
        if columns.adjacency_rows is not None:
            neighbors = tuple(columns.adjacency_rows)
        return GroupStatsBatch(
            n=context.num_vertices,
            m=context.num_edges,
            directed=context.is_directed,
            graph_median_degree=graph_median_degree,
            members=tuple(columns.member_tuples),
            n_C=table.sizes,
            m_C=columns.m_C_group,
            c_C=columns.boundary_group,
            group_offsets=table.group_offsets,
            member_degrees=columns.degrees,
            member_internal_degrees=columns.internal,
            member_in_degrees=columns.in_degrees,
            member_out_degrees=columns.out_degrees,
            member_internal_neighbors=neighbors,
        )


def group_stats(
    context: AnalysisContext,
    members: Iterable[Node],
    *,
    graph_median_degree: float | None = None,
    include_internal_adjacency: bool = False,
) -> GroupStats:
    """Single-group convenience wrapper around :func:`batch_group_stats`."""
    return batch_group_stats(
        context,
        [members],
        graph_median_degree=graph_median_degree,
        include_internal_adjacency=include_internal_adjacency,
    )[0]
