"""Canonical id groups: the one form every scoring layer runs on.

Labels become vertex ids once, at the edge: stored-group sidecars,
in-memory :class:`~repro.data.groups.GroupSet`\\ s and service request
bodies.  Below that edge every batch is a :class:`GroupIds` — group
names, int64 ``offsets`` and one flat int64 ``ids`` array, where group
``i`` owns ``ids[offsets[i]:offsets[i + 1]]``, its ids ascending and
unique, and no group is empty.  The stats pass, the ``--jobs`` shards,
the service micro-batcher and the Fig. 5 driver all take this value, so
no layer below the edge maps, deduplicates or orders members again.

Ascending vertex id is the member order of every batch.  A score that
reads member order (Average-ODF's pairwise mean) therefore depends on
the group alone: not on how its set was built, nor on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import EmptyGroupError, NodeNotFound

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle-free)
    from repro.engine.context import AnalysisContext

Node = Hashable

__all__ = ["GroupIds"]


def _offsets(sizes: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


@dataclass(frozen=True, eq=False)
class GroupIds:
    """Named vertex-id groups in canonical form.

    ``ids[offsets[i]:offsets[i + 1]]`` are group ``i``'s vertex ids,
    ascending and unique; no group is empty.  ``names`` is ``None`` for
    an anonymous batch (a ``--jobs`` shard, a label-list batch).  The
    constructor trusts its arguments; the ``from_*`` builders establish
    the canonical form.  Values compare by identity: their arrays have
    no single truth value.
    """

    names: tuple[str, ...] | None
    offsets: np.ndarray = field(repr=False)
    ids: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def sizes(self) -> np.ndarray:
        """Member count of each group (int64)."""
        return np.diff(self.offsets)

    def slices(self) -> list[np.ndarray]:
        """Each group's id array (views into :attr:`ids`)."""
        bounds = self.offsets.tolist()
        return [self.ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def shard(self, start: int, stop: int) -> "GroupIds":
        """Return groups ``start .. stop - 1`` as an anonymous shard: one
        ids slice and its rebased offsets (what a ``--jobs`` worker needs)."""
        lo = int(self.offsets[start])
        hi = int(self.offsets[stop])
        return GroupIds(
            None, self.offsets[start : stop + 1] - lo, self.ids[lo:hi]
        )

    def select(self, keep: np.ndarray) -> "GroupIds":
        """Keep the groups whose ``keep`` flag is set, in order."""
        keep = np.asarray(keep, dtype=bool)
        if keep.all():
            return self
        sizes = self.sizes
        return GroupIds(
            None
            if self.names is None
            else tuple(compress(self.names, keep.tolist())),
            _offsets(sizes[keep]),
            self.ids[np.repeat(keep, sizes)],
        )

    @classmethod
    def concat(cls, parts: Sequence["GroupIds"]) -> "GroupIds":
        """Join canonical values end to end (still canonical)."""
        names = (
            None
            if any(part.names is None for part in parts)
            else tuple(chain.from_iterable(part.names for part in parts))
        )
        return cls(
            names,
            _offsets(np.concatenate([part.sizes for part in parts])),
            np.concatenate([part.ids for part in parts]),
        )

    @classmethod
    def from_arrays(
        cls,
        arrays: Sequence[np.ndarray],
        *,
        n: int,
        names: Sequence[str] | None = None,
    ) -> "GroupIds":
        """Canonicalize per-group vertex-id arrays of an ``n``-vertex graph.

        An empty array raises :class:`~repro.exceptions.EmptyGroupError`
        and an id outside ``[0, n)`` :class:`~repro.exceptions.NodeNotFound`.
        Arrays already ascending and unique (sampler output, cached
        draws) are only concatenated.
        """
        sizes = np.fromiter(
            map(len, arrays), dtype=np.int64, count=len(arrays)
        )
        if (sizes == 0).any():
            raise EmptyGroupError("cannot score an empty vertex group")
        ids = (
            np.concatenate(arrays).astype(np.int64, copy=False)
            if len(arrays)
            else np.zeros(0, dtype=np.int64)
        )
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise NodeNotFound(int(ids[(ids < 0) | (ids >= n)][0]))
        return _canonical(names, sizes, ids, n)

    @classmethod
    def from_labels(
        cls,
        context: "AnalysisContext",
        member_lists: Iterable[Iterable[Node]],
        *,
        names: Sequence[str] | None = None,
        restrict: bool = False,
    ) -> "GroupIds":
        """Map label groups to canonical ids in one bulk pass.

        See :meth:`from_flat_labels`; this flattens ``member_lists``
        first.
        """
        flat: list[Node] = []
        lengths: list[int] = []
        for members in member_lists:
            before = len(flat)
            flat.extend(members)
            lengths.append(len(flat) - before)
        return cls.from_flat_labels(
            context, flat, lengths, names=names, restrict=restrict
        )

    @classmethod
    def from_flat_labels(
        cls,
        context: "AnalysisContext",
        labels: Sequence[Node],
        lengths: Sequence[int],
        *,
        names: Sequence[str] | None = None,
        restrict: bool = False,
    ) -> "GroupIds":
        """Map a flat label list, cut into groups by ``lengths``, to ids.

        One lookup covers the whole batch.  With ``restrict`` the labels
        absent from ``context`` are dropped and so are the groups left
        empty, names included.  Without it an empty group raises
        :class:`~repro.exceptions.EmptyGroupError` and otherwise the
        first unknown label :class:`~repro.exceptions.NodeNotFound`.
        Repeated labels collapse to one member.
        """
        sizes = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if not restrict and (sizes == 0).any():
            raise EmptyGroupError("cannot score an empty vertex group")
        ids, known = context.lookup(labels)
        if not known.all():
            if not restrict:
                raise NodeNotFound(labels[int(np.argmin(known))])
            kept = np.zeros(len(known) + 1, dtype=np.int64)
            np.cumsum(known, out=kept[1:])
            bounds = _offsets(sizes)
            sizes = kept[bounds[1:]] - kept[bounds[:-1]]
            ids = ids[known]
        if restrict and not sizes.all():
            nonempty = sizes > 0
            if names is not None:
                names = list(compress(names, nonempty.tolist()))
            sizes = sizes[nonempty]
        return _canonical(names, sizes, ids, context.num_vertices)


def _canonical(
    names: Sequence[str] | None, sizes: np.ndarray, ids: np.ndarray, n: int
) -> GroupIds:
    """Sort and deduplicate each group's ids unless they already are.

    The already-canonical check is one compare over the batch: ids rise
    everywhere except where a new group starts.  Otherwise the
    ``group * n + id`` keys are sorted and adjacent repeats dropped —
    ``np.sort`` plus a compare, not ``np.unique``, which would import
    ``numpy.ma`` into every ``repro score`` process.
    """
    offsets = _offsets(sizes)
    if ids.size > 1:
        rising = ids[1:] > ids[:-1]
        rising[offsets[1:-1] - 1] = True
        if not rising.all():
            group = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
            keys = group * np.int64(n) + ids
            keys.sort()
            fresh = np.empty(keys.size, dtype=bool)
            fresh[0] = True
            np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
            if not fresh.all():
                keys = keys[fresh]
            group, ids = np.divmod(keys, np.int64(n))
            offsets = _offsets(np.bincount(group, minlength=len(sizes)))
    return GroupIds(None if names is None else tuple(names), offsets, ids)
