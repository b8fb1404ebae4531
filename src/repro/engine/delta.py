"""Incremental re-freeze: patch a frozen context instead of rebuilding it.

Experiments that probe robustness (edge removal, membership churn) or
track an evolving snapshot change a *tiny* fraction of a graph — yet the
freeze-once substrate would rebuild every CSR row and rescore every
group from scratch.  :class:`ContextDelta` is the scale path for small
changes on big graphs:

* :meth:`ContextDelta.apply` produces a **new** frozen
  :class:`~repro.engine.AnalysisContext` by rebuilding only the CSR rows
  of vertices incident to a changed edge; every untouched row is copied
  wholesale (one ``memcpy`` per contiguous span), the degree array is
  patched in place and the median recomputed, so the cost is
  O(changed rows + n), not O(m).  Contexts stay immutable — the original
  is untouched, and a memmap-opened store is never written.
* :meth:`ContextDelta.dirty_names` is the **dirty-group index**: the
  names of exactly those groups whose statistics can differ — groups
  containing an endpoint of a changed edge, plus groups whose membership
  the delta edits.  The batch kernels consume only this set.
* :func:`rescore_groups_columns` recomputes the statistics of dirty
  groups via one :func:`~repro.engine.batch.batch_group_stats_columns`
  pass and copies every clean group's columns from the previous batch,
  taking the global fields (``m``, ``graph_median_degree``) from the
  patched context — zero kernel invocations for clean groups,
  byte-identical output to a full re-freeze (pinned by
  ``tests/engine/test_delta.py``).

Cache coherence falls out of content addressing: a patched context has a
new CSR fingerprint, so every :class:`~repro.engine.cache.ResultCache`
key minted against it differs from the old context's keys — stale
entries can never be served, and entries for the old fingerprint remain
valid for the old context.  No invalidation pass is needed.

Deltas edit edges and group membership over a **fixed vertex set**:
referencing an unknown label raises
:class:`~repro.exceptions.NodeNotFound` (grow the graph through a real
freeze instead), and self-loops are rejected.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.groups import GroupSet, VertexGroup, _group_fields
from repro.engine.batch import _node_labels, batch_group_stats_columns
from repro.engine.context import AnalysisContext
from repro.exceptions import GraphError, NodeNotFound
from repro.graph.csr import CSRGraph
from repro.obs import instruments
from repro.scoring.columnar import GroupStatsBatch

Node = Hashable

__all__ = ["ContextDelta", "rescore_groups_columns"]

Edge = tuple[Node, Node]
Membership = tuple[str, Node]


def _normalize_pairs(pairs: Iterable[Sequence]) -> tuple[tuple, ...]:
    return tuple((pair[0], pair[1]) for pair in pairs)


@dataclass(frozen=True)
class ContextDelta:
    """Batched edge and group-membership changes to one frozen context.

    Attributes
    ----------
    add_edges, remove_edges:
        Label pairs; arcs ``(u, v)`` for directed contexts, edges for
        undirected ones.  Changes are exact: adding a present edge or
        removing an absent one raises :class:`~repro.exceptions.GraphError`.
    add_members, remove_members:
        ``(group_name, member_label)`` pairs applied by
        :meth:`apply_groups`, with the same exactness rule.
    """

    add_edges: tuple[Edge, ...] = ()
    remove_edges: tuple[Edge, ...] = ()
    add_members: tuple[Membership, ...] = ()
    remove_members: tuple[Membership, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "add_edges", _normalize_pairs(self.add_edges))
        object.__setattr__(
            self, "remove_edges", _normalize_pairs(self.remove_edges)
        )
        object.__setattr__(
            self, "add_members", _normalize_pairs(self.add_members)
        )
        object.__setattr__(
            self, "remove_members", _normalize_pairs(self.remove_members)
        )
        for u, v in (*self.add_edges, *self.remove_edges):
            if u == v:
                raise GraphError(f"self-loop ({u!r}, {v!r}) not allowed in a delta")

    def is_empty(self) -> bool:
        """True when the delta contains no changes at all."""
        return not (
            self.add_edges
            or self.remove_edges
            or self.add_members
            or self.remove_members
        )

    # -- label resolution ----------------------------------------------------

    def _edge_ids(
        self, context: AnalysisContext
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve edge labels to ``(adds, removes)`` id-pair arrays.

        Directed contexts keep arc order; undirected pairs are canonically
        ordered so duplicates and conflicts are detected symmetrically.
        """
        index_of = context.index_of

        def resolve(pairs: tuple[Edge, ...]) -> np.ndarray:
            out = np.empty((len(pairs), 2), dtype=np.int64)
            for i, (u, v) in enumerate(pairs):
                try:
                    a, b = index_of[u], index_of[v]
                except KeyError as exc:
                    raise NodeNotFound(exc.args[0]) from None
                if not context.is_directed and a > b:
                    a, b = b, a
                out[i] = (a, b)
            if len(pairs) and len(np.unique(out, axis=0)) != len(pairs):
                raise GraphError("delta lists the same edge twice")
            return out

        adds = resolve(self.add_edges)
        removes = resolve(self.remove_edges)
        if adds.size and removes.size:
            both = {tuple(p) for p in adds} & {tuple(p) for p in removes}
            if both:
                raise GraphError(
                    f"delta both adds and removes edge ids {sorted(both)[0]}"
                )
        return adds, removes

    # -- context patching ----------------------------------------------------

    def apply(self, context: AnalysisContext) -> AnalysisContext:
        """Return a new frozen context with this delta's edges applied.

        Only CSR rows of changed-edge endpoints are rebuilt; all other
        rows are block-copied.  The input context is left untouched (its
        buffers may be read-only memmaps), and the result is a plain
        in-RAM context that scores, caches and fingerprints exactly like
        a from-scratch freeze of the patched graph.  Memory is the
        result's own O(n + m) arrays plus O(n + changed rows) of working
        state.
        """
        adds, removes = self._edge_ids(context)
        counted = instruments.DELTAS_APPLIED
        counted.inc()
        if not (adds.size or removes.size):
            return AnalysisContext.from_parts(
                context.csr,
                context.csr_out,
                context.csr_in,
                num_edges=context.num_edges,
                is_directed=context.is_directed,
                degree_array=context.degree_array,
                median_degree=context.median_degree,
                name=context.display_name,
            )
        if context.is_directed:
            return self._apply_directed(context, adds, removes)
        return self._apply_undirected(context, adds, removes)

    def _apply_undirected(
        self,
        context: AnalysisContext,
        adds: np.ndarray,
        removes: np.ndarray,
    ) -> AnalysisContext:
        csr = context.csr
        _require_present(csr, removes, expect=True)
        _require_present(csr, adds, expect=False)
        changes = _row_changes(
            np.concatenate([adds, adds[:, ::-1]]) if adds.size else adds,
            np.concatenate([removes, removes[:, ::-1]])
            if removes.size
            else removes,
        )
        indptr, indices = _patch_rows(csr.indptr, csr.indices, changes)
        union = CSRGraph.from_arrays(
            indptr, indices, csr.nodes, csr.index_of, orientation="union"
        )
        degree = np.diff(indptr)
        m = context.num_edges + len(adds) - len(removes)
        return self._assemble(context, union, None, None, m, degree)

    def _apply_directed(
        self,
        context: AnalysisContext,
        adds: np.ndarray,
        removes: np.ndarray,
    ) -> AnalysisContext:
        out, inn = context.csr_out, context.csr_in
        assert out is not None and inn is not None
        _require_present(out, removes, expect=True)
        _require_present(out, adds, expect=False)
        out_indptr, out_indices = _patch_rows(
            out.indptr, out.indices, _row_changes(adds, removes)
        )
        in_indptr, in_indices = _patch_rows(
            inn.indptr,
            inn.indices,
            _row_changes(adds[:, ::-1], removes[:, ::-1]),
        )
        new_out = CSRGraph.from_arrays(
            out_indptr, out_indices, out.nodes, out.index_of, orientation="out"
        )
        new_in = CSRGraph.from_arrays(
            in_indptr, in_indices, inn.nodes, inn.index_of, orientation="in"
        )
        # Union rows of touched vertices are re-derived from the patched
        # out/in rows — removal from the union is conditional on the
        # reverse arc, and the union of the two new rows encodes exactly
        # that.
        touched = np.unique(np.concatenate([adds, removes]).ravel())
        union_changes: dict[int, np.ndarray] = {}
        for vertex in touched.tolist():
            union_changes[vertex] = np.union1d(
                out_indices[out_indptr[vertex] : out_indptr[vertex + 1]],
                in_indices[in_indptr[vertex] : in_indptr[vertex + 1]],
            )
        csr = context.csr
        indptr, indices = _replace_rows(csr.indptr, csr.indices, union_changes)
        union = CSRGraph.from_arrays(
            indptr, indices, csr.nodes, csr.index_of, orientation="union"
        )
        degree = np.diff(out_indptr) + np.diff(in_indptr)
        m = context.num_edges + len(adds) - len(removes)
        return self._assemble(context, union, new_out, new_in, m, degree)

    def _assemble(
        self,
        context: AnalysisContext,
        union: CSRGraph,
        csr_out: CSRGraph | None,
        csr_in: CSRGraph | None,
        m: int,
        degree: np.ndarray,
    ) -> AnalysisContext:
        degree = np.ascontiguousarray(degree, dtype=np.int64)
        return AnalysisContext.from_parts(
            union,
            csr_out,
            csr_in,
            num_edges=int(m),
            is_directed=context.is_directed,
            degree_array=degree,
            median_degree=float(np.median(degree)),
            name=context.display_name,
        )

    # -- group patching ------------------------------------------------------

    def apply_groups(self, groups: GroupSet) -> GroupSet:
        """Return a copy of ``groups`` with the membership edits applied."""
        edits: dict[str, tuple[set, set]] = {}
        for name, member in self.add_members:
            edits.setdefault(name, (set(), set()))[0].add(member)
        for name, member in self.remove_members:
            edits.setdefault(name, (set(), set()))[1].add(member)
        patched = GroupSet(name=groups.name)
        seen: set[str] = set()
        for group in groups:
            edit = edits.get(group.name)
            if edit is None:
                patched.add(group)
                continue
            seen.add(group.name)
            added, removed = edit
            if added & group.members:
                raise GraphError(
                    f"delta adds already-present members to {group.name!r}"
                )
            if removed - group.members:
                raise GraphError(
                    f"delta removes absent members from {group.name!r}"
                )
            members = (group.members | added) - removed
            if not members:
                raise GraphError(f"delta empties group {group.name!r}")
            patched.add(
                type(group)(**{**_group_fields(group), "members": members})
            )
        missing = set(edits) - seen
        if missing:
            raise GraphError(
                f"delta edits unknown groups: {sorted(missing)}"
            )
        return patched

    # -- dirty-group index ---------------------------------------------------

    def dirty_names(self, groups: GroupSet | Iterable[VertexGroup]) -> frozenset[str]:
        """Names of groups whose statistics this delta can change.

        A group is dirty when its membership is edited or when it
        contains an endpoint of any added/removed edge; every other
        group's internal structure is untouched, so only its global
        fields (``m``, median degree) can move.
        """
        endpoints = {u for u, _ in self.add_edges} | {
            v for _, v in self.add_edges
        }
        endpoints |= {u for u, _ in self.remove_edges} | {
            v for _, v in self.remove_edges
        }
        edited = {name for name, _ in self.add_members} | {
            name for name, _ in self.remove_members
        }
        dirty: set[str] = set()
        for group in groups:
            if group.name in edited or not endpoints.isdisjoint(group.members):
                dirty.add(group.name)
        return frozenset(dirty)


def _require_present(
    csr: CSRGraph, pairs: np.ndarray, *, expect: bool
) -> None:
    """Assert each id pair is (or is not) an edge of ``csr``'s rows."""
    indptr, indices = csr.indptr, csr.indices
    for u, v in pairs.tolist():
        row = indices[indptr[u] : indptr[u + 1]]
        position = int(np.searchsorted(row, v))
        present = position < row.size and int(row[position]) == v
        if present != expect:
            state = "absent" if expect else "already present"
            raise GraphError(
                f"delta cannot {'remove' if expect else 'add'} edge ids "
                f"({u}, {v}): {state}"
            )


def _row_changes(
    adds: np.ndarray, removes: np.ndarray
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Group directed id pairs into per-source (adds, removes) arrays."""
    changes: dict[int, tuple[list[int], list[int]]] = {}
    for u, v in adds.tolist():
        changes.setdefault(u, ([], []))[0].append(v)
    for u, v in removes.tolist():
        changes.setdefault(u, ([], []))[1].append(v)
    return {
        row: (
            np.asarray(sorted(added), dtype=np.int64),
            np.asarray(sorted(removed), dtype=np.int64),
        )
        for row, (added, removed) in changes.items()
    }


def _patch_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    changes: dict[int, tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Apply per-row set additions/removals, copying untouched spans."""
    rows = {}
    for row, (adds, removes) in changes.items():
        old = indices[indptr[row] : indptr[row + 1]]
        new = old
        if removes.size:
            new = np.setdiff1d(new, removes, assume_unique=True)
        if adds.size:
            new = np.union1d(new, adds)
        rows[row] = new
    return _replace_rows(indptr, indices, rows)


def _replace_rows(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild CSR arrays with ``rows`` substituted, spans block-copied."""
    n = len(indptr) - 1
    lengths = np.diff(indptr)
    for row, new in rows.items():
        lengths[row] = new.size
    new_indptr = np.concatenate(
        ([0], np.cumsum(lengths, dtype=np.int64))
    )
    new_indices = np.empty(int(new_indptr[-1]), dtype=np.int64)
    cursor = 0
    for row in sorted(rows):
        if cursor < row:
            new_indices[new_indptr[cursor] : new_indptr[row]] = indices[
                indptr[cursor] : indptr[row]
            ]
        new_indices[new_indptr[row] : new_indptr[row + 1]] = rows[row]
        cursor = row + 1
    if cursor < n:
        new_indices[new_indptr[cursor] :] = indices[indptr[cursor] :]
    return new_indptr, new_indices


def rescore_groups_columns(
    context: AnalysisContext,
    groups: GroupSet | Sequence[VertexGroup],
    previous: GroupStatsBatch,
    previous_names: Sequence[str],
    dirty: frozenset[str] | set[str],
    *,
    graph_median_degree: float | None = None,
    include_internal_adjacency: bool = False,
) -> GroupStatsBatch:
    """Recompute the statistics of dirty groups only, splicing in the rest.

    ``previous`` is the :class:`~repro.scoring.columnar.GroupStatsBatch`
    computed on the pre-delta context, with ``previous_names[i]`` naming
    its ``i``-th group.  Dirty (or previously unseen) groups run through
    one :func:`~repro.engine.batch.batch_group_stats_columns` pass on the
    patched context; every clean group's column slices are copied from
    ``previous`` verbatim, with no kernel run for them (observable on the
    ``engine.groups_scored`` counter), and the graph-level scalars
    (``m``, the median degree) come from the patched context — a clean
    group's per-member arrays cannot have changed, since any member
    touching a changed edge marks the group dirty.  The result is bitwise
    identical to a full columnar pass over the patched context (pinned by
    ``tests/engine/test_delta.py``).
    """
    context = AnalysisContext.ensure(context)
    group_list = list(groups)
    previous_index = {name: i for i, name in enumerate(previous_names)}
    # A previous batch without adjacency rows cannot seed a with-adjacency
    # result: recompute everything rather than serve partial neighbours.
    missing_neighbors = (
        include_internal_adjacency
        and previous.member_internal_neighbors is None
    )
    to_compute = [
        group
        for group in group_list
        if missing_neighbors
        or group.name in dirty
        or group.name not in previous_index
    ]
    fresh = batch_group_stats_columns(
        context,
        [group.members for group in to_compute],
        graph_median_degree=graph_median_degree,
        include_internal_adjacency=include_internal_adjacency,
    )
    if len(to_compute) == len(group_list):
        # Every group was recomputed, in group order: nothing to splice.
        return fresh
    fresh_index = {group.name: i for i, group in enumerate(to_compute)}

    # Stack ``previous`` and ``fresh`` (fresh rows after the previous
    # ones) and pick each group's row; one member gather index then
    # splices every per-member column with no per-group slicing.
    shift = len(previous)
    rows = np.array(
        [
            shift + fresh_index[group.name]
            if group.name in fresh_index
            else previous_index[group.name]
            for group in group_list
        ],
        dtype=np.int64,
    )

    def _stacked(column: str) -> np.ndarray:
        return np.concatenate(
            (getattr(previous, column), getattr(fresh, column))
        )

    n_C = _stacked("n_C")[rows]
    starts = np.concatenate(
        (
            previous.group_offsets[:-1],
            fresh.group_offsets[:-1] + previous.group_offsets[-1],
        )
    )[rows]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(n_C, out=offsets[1:])
    take = np.repeat(starts - offsets[:-1], n_C) + np.arange(
        offsets[-1], dtype=np.int64
    )
    neighbors: tuple[np.ndarray, ...] | None = None
    if include_internal_adjacency:
        assert previous.member_internal_neighbors is not None
        assert fresh.member_internal_neighbors is not None
        stacked = (
            *previous.member_internal_neighbors,
            *fresh.member_internal_neighbors,
        )
        neighbors = tuple(stacked[j] for j in take.tolist())
    return GroupStatsBatch(
        n=context.num_vertices,
        m=context.num_edges,
        directed=context.is_directed,
        graph_median_degree=graph_median_degree,
        member_ids=_stacked("member_ids")[take],
        node_labels=_node_labels(context),
        n_C=n_C,
        m_C=_stacked("m_C")[rows],
        c_C=_stacked("c_C")[rows],
        group_offsets=offsets,
        member_degrees=_stacked("member_degrees")[take],
        member_internal_degrees=_stacked("member_internal_degrees")[take],
        member_in_degrees=_stacked("member_in_degrees")[take],
        member_out_degrees=_stacked("member_out_degrees")[take],
        member_internal_neighbors=neighbors,
    )
