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
* **gather** — walk the members' CSR rows
  (:math:`\\sum_C \\sum_{v \\in C} d(v)` entries) in chunks of at most
  :data:`GATHER_CHUNK` entries and test whether each gathered
  ``(group, neighbour)`` entry lies inside its group.  Wins for groups
  whose size exceeds their members' degrees (e.g. the whole graph as one
  group).

The gather membership test is one array lookup per entry in an *owner
table*: a per-vertex tag that is ``g + 1`` for a vertex in exactly one
group ``g`` of the batch, ``0`` for a vertex in none and ``-1`` for a
vertex in several.  An entry is inside when its neighbour's tag equals
its row's tag; only entries whose neighbour is shared fall back to a
binary search in the sorted ``tag * n + vertex`` key table.  Tags take
the narrowest signed dtype that holds them, so the table's touched pages
stay few.  The key table is built when a shared neighbour occurs, and
always when internal-adjacency rows are kept: each matched entry is then
binary-searched once more to find its member position.  Temporaries are
bounded by the chunk, not by the batch.

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

#: Most gathered entries one gather chunk holds (a single member row may
#: exceed it); bounds the kernel's temporaries independently of the batch.
GATHER_CHUNK = 1 << 16


class _MemberTable:
    """Flat member layout shared by every orientation pass of one batch.

    ``ids`` concatenates the (deduplicated) member ids of all groups;
    ``member_group[j]`` is the group the ``j``-th member row belongs to
    and ``tags[j]`` is that group plus one, in the narrowest signed dtype
    that holds every tag.
    """

    __slots__ = (
        "n",
        "ids",
        "sizes",
        "member_group",
        "tags",
        "group_offsets",
        "total_members",
        "num_groups",
        "_owner",
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
        # The smallest type holding -1 - G is signed and also holds G.
        self.tags = (self.member_group + 1).astype(
            np.min_scalar_type(-1 - self.num_groups)
        )
        self.group_offsets = np.concatenate(([0], np.cumsum(sizes)))
        self._owner: np.ndarray | None = None
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

    def pair_neighbor_rows(self, inside: np.ndarray) -> list[np.ndarray]:
        """Internal-neighbour member positions from a per-pair inside flag."""
        pair_u, pair_v_member = self._pair_u, self._pair_v_member
        assert pair_u is not None and pair_v_member is not None
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
        """Sorted ``tag * n + vertex`` keys and the member row of each.

        A trailing int64-max sentinel keeps every search position in
        range; no real key reaches it.
        """
        if self._sorted_keys is None:
            member_keys = self._keys(self.tags, self.ids)
            self._key_order = member_keys.argsort()
            self._sorted_keys = np.append(
                member_keys[self._key_order], np.iinfo(np.int64).max
            )
        assert self._key_order is not None
        return self._sorted_keys, self._key_order

    def _owner_table(self) -> np.ndarray:
        """Tag of the one group of the batch that holds each vertex.

        ``owner[v]`` is ``g + 1`` when ``v`` is in exactly one group ``g``,
        ``0`` when in none and ``-1`` when in several.  ``np.zeros`` is
        calloc-backed, so only the pages the members and their neighbours
        touch are ever materialised.  Groups are deduplicated, so a vertex
        written twice belongs to two groups; whichever write numpy keeps,
        at least one of its rows reads back a foreign tag and marks it.
        Built once per batch and shared by every orientation pass.
        """
        if self._owner is None:
            owner = np.zeros(self.n, dtype=self.tags.dtype)
            owner[self.ids] = self.tags
            owner[self.ids[owner[self.ids] != self.tags]] = -1
            self._owner = owner
        return self._owner

    def gather_inside(
        self, csr: CSRGraph, *, keep_rows: bool = False
    ) -> tuple[np.ndarray, list[np.ndarray] | None]:
        """Per-member internal degrees by gathering the members' CSR rows.

        Rows are walked in runs of at most :data:`GATHER_CHUNK` entries.
        An entry is inside when its neighbour's owner tag equals its row's
        tag; only entries whose neighbour is shared are looked up in the
        sorted ``tag * n + vertex`` key table.  ``keep_rows`` also returns
        each member's internal-neighbour positions, ascending, kept from
        each chunk's matched entries only.
        """
        # Plain ndarray views: indexing a memmap costs a subclass
        # finalisation per call.
        indptr = np.asarray(csr.indptr)
        indices = np.asarray(csr.indices)
        starts = indptr[self.ids]
        counts = indptr[1:][self.ids] - starts
        ends = counts.cumsum()
        internal = np.zeros(self.total_members, dtype=np.int64)
        rows: list[np.ndarray] | None = [] if keep_rows else None
        owner = self._owner_table()
        lo = 0
        while lo < self.total_members:
            base = ends[lo] - counts[lo]
            hi = int(ends.searchsorted(base + GATHER_CHUNK, "right"))
            hi = max(hi, lo + 1)  # a row longer than a chunk is one chunk
            # Only non-empty rows start a reduceat segment: a repeated
            # offset would sum one entry instead of none.
            nonempty = counts[lo:hi].nonzero()[0] + lo
            row_counts = counts[nonempty]
            offsets = ends[nonempty] - row_counts - base
            neighbors = indices[
                np.arange(ends[hi - 1] - base, dtype=np.int64)
                + (starts[nonempty] - offsets).repeat(row_counts)
            ]
            row_tag = self.tags[nonempty].repeat(row_counts)
            owner_tag = owner[neighbors]
            inside = owner_tag == row_tag
            shared = (owner_tag < 0).nonzero()[0]
            if shared.size:
                inside[shared] = self._key_hits(
                    row_tag[shared], neighbors[shared]
                )
            internal[nonempty] = np.add.reduceat(
                inside, offsets, dtype=np.int64
            )
            if rows is not None:
                rows.extend(
                    self._chunk_neighbor_rows(
                        inside, row_tag, neighbors, internal[lo:hi]
                    )
                )
            lo = hi
        return internal, rows

    def _keys(self, tags: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        """Membership keys ``tag * n + vertex`` of tagged vertices."""
        return tags.astype(np.int64) * np.int64(self.n) + vertices

    def _key_hits(self, tags: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        """Which ``(tag, vertex)`` pairs are in the membership table."""
        sorted_keys, _ = self._membership_keys()
        keys = self._keys(tags, vertices)
        return sorted_keys[sorted_keys.searchsorted(keys)] == keys

    def _chunk_neighbor_rows(
        self,
        inside: np.ndarray,
        row_tag: np.ndarray,
        neighbors: np.ndarray,
        row_internal: np.ndarray,
    ) -> list[np.ndarray]:
        """Internal-neighbour positions of one chunk's rows, ascending."""
        sorted_keys, key_order = self._membership_keys()
        matched = inside.nonzero()[0]
        tag = row_tag[matched]
        # A matched key is in the table, so its search position is exact
        # and ``key_order`` names the matched member's row.
        rank = sorted_keys.searchsorted(self._keys(tag, neighbors[matched]))
        positions = key_order[rank] - self.group_offsets[tag - 1]
        # Matched entries are row-major; sort positions within each row.
        owners = np.arange(len(row_internal)).repeat(row_internal)
        positions = positions[np.lexsort((positions, owners))]
        return np.split(positions, row_internal.cumsum()[:-1])

    # -- shared reductions ---------------------------------------------------

    def group_sum(self, per_member: np.ndarray) -> np.ndarray:
        """Reduce a per-member array to per-group totals.

        Group segments are contiguous and never empty (an empty group
        raises before the kernel runs), so reduceat is safe.
        """
        return np.add.reduceat(per_member, self.group_offsets[:-1])


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

    adjacency_rows: list[np.ndarray] | None = None
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
                adjacency_rows = table.pair_neighbor_rows(
                    inside_out | inside_in
                )
        else:
            internal_out, _ = table.gather_inside(context.csr_out)
            internal_in, _ = table.gather_inside(context.csr_in)
            if keep:
                _, adjacency_rows = table.gather_inside(
                    context.csr, keep_rows=True
                )
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
                adjacency_rows = table.pair_neighbor_rows(inside)
        else:
            internal, adjacency_rows = table.gather_inside(
                context.csr, keep_rows=keep
            )
        degrees = context.csr.degree_array()[table.ids]
        m_C_group = table.group_sum(internal) // 2
        zeros = np.zeros(table.total_members, dtype=np.int64)
        in_degrees = zeros
        out_degrees = zeros
    boundary_group = table.group_sum(degrees) - table.group_sum(internal)

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
