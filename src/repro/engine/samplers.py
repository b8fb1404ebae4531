"""Vertex-set samplers over a frozen :class:`AnalysisContext`.

The paper's random-walk baseline (Fig. 5) and the uniform, BFS-ball and
forest-fire ablation samplers, on integer vertex ids: the sampler state
is a boolean mask plus CSR row slices, and node labels appear only at the
boundary (the label sets).  :class:`MatchedDraw` draws the Fig. 5
random sets as ids and scores them in the same pass, and
:func:`sample_matched_ids` hands out the id arrays alone.  These are the
only production samplers; every one runs serially, in the ``--jobs``
workers and from the cache.

**Replay guarantee.**  Each sampler consumes randomness exactly like the
label-level implementation it replaced (kept in ``tests/oracles/``) —
``random.Random`` draws depend only on candidate-list *lengths*, so
ordering candidate ids by
:attr:`~repro.engine.context.AnalysisContext.label_rank` (the
:func:`~repro.graph.convert.stable_sorted` order of their labels) makes
every draw pick the same vertex.  Same seed, same sample, whichever
substrate runs it; ``tests/engine/test_engine_samplers.py`` pins this,
on scrambled in-memory graphs and on opened stores.  The Fig. 5 batch
kernel below replays the same ``random.Random`` streams from words drawn
ahead, so every id array, every step and restart count and every error
is the per-walk loop's; ``tests/engine/test_lockstep_walks.py`` pins
that against the loop and the label-level oracle.

**The walk step.**  A Fig. 5 run makes one walk per circle, so the step
is the hot loop, and it runs in one of two forms.

* *Lockstep* (:class:`_LockstepWalks`), for a batch of at least
  :data:`LOCKSTEP_CROSSOVER` walks, the serial Fig. 5 path and each
  ``--jobs`` chunk: every active walk advances one step per round, with
  one set of numpy calls per round.  A walk's ``random.Random(child)``
  stream is drawn ahead as little-endian 32-bit words
  (``getrandbits(32 * k)``), and ``Random._randbelow(bound)`` is
  replayed on them: the top ``bound.bit_length()`` bits of the next
  word, until one falls below the bound.  The rows of the walks'
  current vertices are gathered into one array, and who has collected a
  vertex is one narrow owner tag per vertex plus a sorted key table for
  the vertices several walks hold, the gather kernel's membership test
  made incremental.  Working memory is O(n) bytes plus O(sum of sizes)
  for the words and the collected ids, never walks times n.
* *Per walk* (:func:`_random_walk_ids`): a fixed handful of numpy calls
  per step on plain arrays, whatever the row length.  The row bounds are
  Python ints read through a ``memoryview`` of ``indptr``, the row is a
  slice of a plain ``ndarray`` view of ``indices`` (so no
  ``np.memmap.__getitem__`` runs per step), and the fresh neighbours are
  ``row[free[row]]`` over a per-draw mask of the vertices not yet
  collected.  Members are collected in a list and sorted once at the
  end.  It runs :func:`random_walk_set`, batches below the crossover
  and the hand-off: once fewer than :data:`LOCKSTEP_CROSSOVER` walks are
  active, and for any walk that spends its drawn words, the loop
  carries each unfinished walk on from its state, with its generator
  advanced past the words the rounds used, in replicate order.

In both, candidates are sorted by label rank only when
:attr:`~repro.engine.context.AnalysisContext.ids_in_label_order` is
false, which is decided once per context: identity-labelled stores, and
the parallel workers rebuilt from them, never sort.  DESIGN.md section 8
has the measurements behind the crossover.

**Replicate independence.**  :class:`MatchedDraw` derives one
child seed per replicate (:func:`repro.sampling.seeds.spawn_child_seeds`)
instead of threading a single RNG through the loop, so replicate ``i``'s
stream does not depend on replicates ``0..i-1`` — which is what lets the
parallel executor hand replicates to workers and still produce the exact
serial output.
"""

from __future__ import annotations

import operator
import random
from collections import deque
from collections.abc import Hashable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.engine.cache import ResultCache, function_tokens
from repro.engine.context import AnalysisContext
from repro.engine.ids import GroupIds
from repro.engine.parallel import ParallelExecutor, PendingDraw, resolve_jobs
from repro.exceptions import SamplingError
from repro.graph.csr import IdentityNodes
from repro.obs import instruments
from repro.sampling.seeds import spawn_child_seeds

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle-free)
    from repro.scoring.base import ScoringFunction

Node = Hashable

__all__ = [
    "random_walk_set",
    "bfs_ball_set",
    "forest_fire_set",
    "uniform_vertex_set",
    "ENGINE_SAMPLERS",
    "MatchedDraw",
    "SAMPLER_IDS",
    "sample_matched_ids",
    "sample_matched_sets",
]

#: Chance that forest fire burns each fresh neighbour it reaches.
BURN_PROBABILITY = 0.7

#: Active walks below which a lockstep step costs more than running the
#: rest one by one; DESIGN.md section 8 has the measurement.
LOCKSTEP_CROSSOVER = 64

#: Words drawn ahead for a walk: this many per member, plus the slack.
#: A walk that spends them all is handed to the per-walk loop.
_WORDS_PER_MEMBER = 2
_WORD_SLACK = 16

#: Words a lockstep draw examines at once after a rejected word.
_LOOKAHEAD = 8
_LOOKAHEAD_RANGE = np.arange(_LOOKAHEAD)

#: Most row entries one lockstep step gathers at once (a single row may
#: exceed it); bounds a step's temporaries independently of the batch.
_STEP_ENTRIES = 1 << 16


def _resolve_rng(seed: int | random.Random | None) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def _check_size(context: AnalysisContext, size: int) -> int:
    if size <= 0:
        raise ValueError("sample size must be positive")
    n = context.num_vertices
    if n < size:
        raise SamplingError(f"graph has {n} vertices, cannot sample {size}")
    return n


def _id_labels(context: AnalysisContext, ids: np.ndarray) -> set[Node]:
    # Labels are added in ascending id order, so the sets (and frozensets
    # built from them) iterate the same way on every path.  A label list,
    # even one of 0..n-1, hands back its own label objects.
    nodes = context.csr.nodes
    if isinstance(nodes, IdentityNodes):
        return set(ids.tolist())
    return set(map(nodes.__getitem__, ids.tolist()))


def _random_walk_ids(
    context: AnalysisContext,
    size: int,
    rng: random.Random,
    *,
    max_steps_factor: int = 200,
    tally: list[int] | None = None,
) -> np.ndarray:
    """Id-level random walk; returns the collected ids sorted ascending.

    The walk's step and restart counts go to the process metrics, or are
    added to ``tally[0]`` and ``tally[1]`` when a tally is given (the
    parallel workers, whose metrics are off, return theirs to the parent).
    """
    n = _check_size(context, size)
    current = rng.choice(range(n))
    return _walk_on(
        context,
        size,
        rng,
        [current],
        current,
        max_steps_factor=max_steps_factor,
        tally=tally,
    )


def _walk_on(
    context: AnalysisContext,
    size: int,
    rng: random.Random,
    members: list[int],
    current: int,
    *,
    steps: int = 0,
    restarts: int = 0,
    max_steps_factor: int = 200,
    tally: list[int] | None = None,
) -> np.ndarray:
    """The per-walk loop from a walk's state: collected ``members``, the
    ``current`` vertex and the steps and restarts taken so far."""
    n = context.num_vertices
    # Python-int row bounds and a plain ndarray of targets: no numpy
    # scalar boxing and no np.memmap.__getitem__ on the per-step path.
    bounds = memoryview(context.csr.indptr)
    targets = context.csr.indices.view(np.ndarray)
    rank = None if context.ids_in_label_order else context.label_rank
    choice = rng.choice
    population = range(n)
    free = np.ones(n, dtype=bool)
    free[members] = False
    budget = max_steps_factor * size
    while len(members) < size:
        steps += 1
        if steps > budget:
            raise SamplingError(
                f"random walk exhausted {budget} steps collecting "
                f"{len(members)}/{size} vertices"
            )
        row = targets[bounds[current] : bounds[current + 1]]
        fresh = row[free[row]]
        if not fresh.size:
            restarts += 1
            current = choice(population)
            if free[current]:
                free[current] = False
                members.append(current)
            continue
        if rank is not None:
            # label_rank ordering replays the legacy stable_sorted choice.
            fresh = fresh[rank[fresh].argsort()]
        current = int(choice(fresh))
        free[current] = False
        members.append(current)
    _count_walks(steps, restarts, tally)
    members.sort()
    return np.array(members, dtype=np.int64)


def _count_walks(steps: int, restarts: int, tally: list[int] | None) -> None:
    """Record walk steps and restarts in the metrics, or in ``tally``."""
    if tally is None:
        instruments.WALK_STEPS.inc(steps)
        instruments.WALK_RESTARTS.inc(restarts)
    else:
        tally[0] += steps
        tally[1] += restarts


class _LockstepWalks:
    """A batch of random walks advanced together, one step per round.

    Walk ``s`` replays ``random.Random(child_seeds[s])``: its stream is
    drawn ahead as 32-bit words and :meth:`_draw` replays
    ``Random._randbelow`` on them, so each walk makes the draws the
    per-walk loop makes.  A walk collects into its own segment of one
    flat ``members`` array.  Walk ``s`` is tagged ``s + 1``, and who
    holds a vertex is one narrow owner tag per vertex (the holder's tag,
    ``0`` for none, ``-1`` for several) plus a sorted ``tag * n +
    vertex`` key table for the vertices several walks hold.  Working
    memory is O(n + sum of sizes).
    """

    def __init__(
        self,
        context: AnalysisContext,
        sizes: np.ndarray,
        child_seeds: Sequence[int | None],
    ) -> None:
        self.context = context
        self.n = context.num_vertices
        self.indptr = context.csr.indptr.view(np.ndarray)
        self.indices = context.csr.indices.view(np.ndarray)
        self.rank = None if context.ids_in_label_order else context.label_rank
        self.sizes = sizes
        self.child_seeds = child_seeds
        walks = len(sizes)
        budget = sizes * _WORDS_PER_MEMBER + _WORD_SLACK
        self.word_end = budget.cumsum()
        self.word_start = self.word_end - budget
        self.word_at = self.word_start.copy()
        # getrandbits(32 * k) is the stream's next k words, first word
        # least significant, so its little-endian bytes are the words in
        # draw order.  Reseeding one generator gives random.Random(child)'s
        # stream.  Zero words pad the last walk's lookahead.
        rng = random.Random(0)
        streams = []
        for child, k in zip(child_seeds, budget.tolist()):
            rng.seed(child)
            streams.append(rng.getrandbits(32 * k).to_bytes(4 * k, "little"))
        streams.append(bytes(4 * _LOOKAHEAD))
        self.words = np.frombuffer(b"".join(streams), dtype="<u4")
        del streams
        self.member_end = sizes.cumsum()
        self.member_start = self.member_end - sizes
        self.members = np.empty(int(self.member_end[-1]), dtype=np.int64)
        self.count = np.zeros(walks, dtype=np.int64)
        self.current = np.zeros(walks, dtype=np.int64)
        self.steps = np.zeros(walks, dtype=np.int64)
        self.restarts = np.zeros(walks, dtype=np.int64)
        # The smallest type holding -1 - walks is signed and holds walks.
        tag_type = np.min_scalar_type(-1 - walks)
        self.tags = np.arange(1, walks + 1).astype(tag_type)
        self.owner = np.zeros(self.n, dtype=tag_type)
        # A trailing int64-max sentinel keeps every search in range.
        self.shared_keys = np.array([np.iinfo(np.int64).max])

    def run(self, crossover: int) -> np.ndarray:
        """Walk until fewer than ``crossover`` walks are active.

        Returns the walks left unfinished, for :meth:`resume`: those
        still active at the end and those that spent their words.
        """
        walks = np.arange(len(self.sizes))
        start = self._draw(walks, np.full(walks.size, self.n))
        moved = start >= 0
        self.current[moved] = start[moved]
        self._collect(walks[moved], start[moved])
        active = walks[moved & (self.count < self.sizes)]
        handed = [walks[~moved]]
        while active.size >= crossover:
            active, spent = self._step(active)
            handed.append(spent)
        handed.append(active)
        return np.concatenate(handed)

    def ids(self, walk: int) -> np.ndarray:
        """The finished walk's collected ids, ascending."""
        start, stop = self.member_start[walk], self.member_end[walk]
        return np.sort(self.members[start:stop])

    def resume(self, walk: int, tally: list[int]) -> np.ndarray:
        """Finish an unfinished walk in the per-walk loop.

        The walk's generator skips the words the lockstep rounds used,
        all of them whole 32-bit words, and the loop carries on from the
        walk's members, current vertex, steps and restarts.  A walk that
        spent its words mid-draw resumes before that draw: its rejected
        words were used, so the loop's redraw continues the rejections.
        """
        rng = random.Random(self.child_seeds[walk])
        rng.getrandbits(32 * int(self.word_at[walk] - self.word_start[walk]))
        size = int(self.sizes[walk])
        if not self.count[walk]:  # words spent on the first draw
            return _random_walk_ids(self.context, size, rng, tally=tally)
        start = self.member_start[walk]
        return _walk_on(
            self.context,
            size,
            rng,
            self.members[start : start + self.count[walk]].tolist(),
            int(self.current[walk]),
            steps=int(self.steps[walk]),
            restarts=int(self.restarts[walk]),
            tally=tally,
        )

    def _step(self, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step of every active walk (ascending): the loop's body.

        The walks' rows are gathered in runs of at most
        :data:`_STEP_ENTRIES` entries (a single longer row is one run),
        so a step's temporaries do not grow with walks times degree.
        Returns the walks still collecting and those out of words.
        """
        start = self.indptr[self.current[active]]
        degree = self.indptr[self.current[active] + 1] - start
        ends = degree.cumsum()
        going, spent = [], []
        lo = 0
        while lo < active.size:
            base = ends[lo] - degree[lo]
            hi = int(ends.searchsorted(base + _STEP_ENTRIES, "right"))
            hi = max(hi, lo + 1)
            run_going, run_spent = self._advance(
                active[lo:hi], start[lo:hi], degree[lo:hi]
            )
            going.append(run_going)
            spent.append(run_spent)
            lo = hi
        return np.concatenate(going), np.concatenate(spent)

    def _advance(
        self, walks: np.ndarray, start: np.ndarray, degree: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One step of ``walks``, whose current rows are given.

        A walk out of words keeps its state from before the step.
        """
        ends = degree.cumsum()
        firsts = ends - degree
        entries = self.indices[
            np.arange(ends[-1]) + (start - firsts).repeat(degree)
        ]
        tags = self.tags[walks]
        entry_tags = tags.repeat(degree)
        unheld = ~self._holds(entry_tags, entries)
        # Only non-empty rows start a reduceat segment.
        nonempty = degree.nonzero()[0]
        count = np.zeros(walks.size, dtype=np.int64)
        if nonempty.size:
            count[nonempty] = np.add.reduceat(
                unheld, firsts[nonempty], dtype=np.int64
            )
        # No fresh neighbour: the draw is a restart over all n vertices.
        drawn = self._draw(walks, np.where(count > 0, count, self.n))
        moved = drawn >= 0
        walked = (moved & (count > 0)).nonzero()[0]
        # The walk moves to its fresh neighbour number ``drawn``, counted
        # in row order, or in label-rank order when ids are not in it.
        fresh = unheld.nonzero()[0]
        pick = (count.cumsum() - count)[walked] + drawn[walked]
        if self.rank is None:
            target = entries[fresh[pick]]
        else:
            # Sorted (tag, rank) keys give each walk's chosen key (a sort
            # is cheaper than an argsort); the entry holding it is the
            # target, one per walk and in walk order.
            keys = self._keys(entry_tags[fresh], self.rank[entries[fresh]])
            chosen = np.full(walks.size, -1, dtype=np.int64)
            chosen[walked] = np.sort(keys)[pick]
            target = entries[fresh[keys == chosen.repeat(count)]]
        self.current[walks[walked]] = target
        self.steps[walks[moved]] += 1
        collectors, collected = walks[walked], target
        restarted = (moved & (count == 0)).nonzero()[0]
        if restarted.size:
            jump = drawn[restarted]
            new = ~self._holds(tags[restarted], jump)
            self.current[walks[restarted]] = jump
            self.restarts[walks[restarted]] += 1
            collectors = np.concatenate((collectors, walks[restarted][new]))
            collected = np.concatenate((collected, jump[new]))
        self._collect(collectors, collected)
        going = moved & (self.count[walks] < self.sizes[walks])
        return walks[going], walks[~moved]

    def _draw(self, walks: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """Replay ``Random._randbelow(bound)`` on each walk's words.

        ``_randbelow`` takes ``getrandbits(k)``, the top ``k =
        bound.bit_length()`` bits of the next word, until one falls below
        the bound.  A walk whose next word is rejected reads the
        :data:`_LOOKAHEAD` words after it at once.  A walk out of words
        draws ``-1``.
        """
        shift = 32 - np.frexp(bounds)[1]
        at = self.word_at[walks]
        end = self.word_end[walks]
        drawn = self.words[at] >> shift
        drawn[at >= end] = -1
        missed = (drawn >= bounds).nonzero()[0]
        at += 1
        while missed.size:
            index = at[missed, None] + _LOOKAHEAD_RANGE
            values = self.words[index] >> shift[missed, None]
            ok = (values < bounds[missed, None]) & (index < end[missed, None])
            flat = np.arange(missed.size) * _LOOKAHEAD + ok.argmax(axis=1)
            hit = ok.ravel()[flat]
            done = missed[hit]
            drawn[done] = values.ravel()[flat[hit]]
            at[done] = index.ravel()[flat[hit]] + 1
            missed = missed[~hit]
            at[missed] += _LOOKAHEAD
            spent = at[missed] >= end[missed]
            drawn[missed[spent]] = -1
            missed = missed[~spent]
        # A walk out of words has used them all.
        self.word_at[walks] = np.minimum(at, end)
        return drawn

    def _keys(self, tags: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        return tags.astype(np.int64) * np.int64(self.n) + vertices

    def _holds(self, tags: np.ndarray, vertices: np.ndarray) -> np.ndarray:
        """Whether the walk tagged ``tags[i]`` holds ``vertices[i]``."""
        owner = self.owner[vertices]
        held = owner == tags
        shared = (owner < 0).nonzero()[0]
        if shared.size:
            keys = self._keys(tags[shared], vertices[shared])
            table = self.shared_keys
            held[shared] = table[table.searchsorted(keys)] == keys
        return held

    def _collect(self, walks: np.ndarray, vertices: np.ndarray) -> None:
        """Walk ``walks[i]`` collects ``vertices[i]`` (walks unique)."""
        tags = self.tags[walks]
        before = self.owner[vertices]
        self.owner[vertices] = tags
        # A vertex written by several walks keeps one tag, so another
        # writer reads back a foreign one; as in the gather kernel's owner
        # table, that marks the vertex shared (-1).
        clash = (before != 0) | (self.owner[vertices] != tags)
        if clash.any():
            self.owner[vertices[clash]] = -1
            shared = self.owner[vertices] < 0
            single = before > 0
            # Every holder of a shared vertex has a key, the one that held
            # it alone before included (twice if two walks joined it at
            # once: a repeated key is harmless).  The stable sort merges
            # the few new keys into the sorted run in linear time.
            table = np.concatenate(
                (
                    self.shared_keys,
                    self._keys(tags[shared], vertices[shared]),
                    self._keys(before[single], vertices[single]),
                )
            )
            table.sort(kind="stable")
            self.shared_keys = table
        self.members[self.member_start[walks] + self.count[walks]] = vertices
        self.count[walks] += 1


def _random_walk_batch(
    context: AnalysisContext,
    sizes: Sequence[int],
    child_seeds: Sequence[int | None],
    *,
    tally: list[int] | None = None,
) -> list[np.ndarray]:
    """Random-walk id arrays, walk ``i`` seeded ``child_seeds[i]``.

    Each array equals ``_random_walk_ids(context, sizes[i],
    random.Random(child_seeds[i]))``.  With at least
    :data:`LOCKSTEP_CROSSOVER` valid sizes the walks run in lockstep
    (:class:`_LockstepWalks`) until fewer remain.  Then, in replicate
    order, the per-walk loop finishes every walk left unfinished and runs
    every walk with an invalid size, so the first failing replicate
    raises as it would in a loop.  Steps and restarts are counted for the
    replicates before it.
    """
    n = context.num_vertices
    ids: list[np.ndarray | None] = [None] * len(sizes)
    steps = np.zeros(len(sizes), dtype=np.int64)
    restarts = np.zeros(len(sizes), dtype=np.int64)
    lanes = [i for i, size in enumerate(sizes) if 0 < size <= n]
    unfinished: dict[int, int] = {}
    # A bound past 32 bits takes two words per getrandbits call.
    if len(lanes) >= LOCKSTEP_CROSSOVER and n < 1 << 32:
        walks = _LockstepWalks(
            context,
            np.array([sizes[i] for i in lanes], dtype=np.int64),
            [child_seeds[i] for i in lanes],
        )
        finished = np.ones(len(lanes), dtype=bool)
        for walk in walks.run(LOCKSTEP_CROSSOVER).tolist():
            finished[walk] = False
            unfinished[lanes[walk]] = walk
        for walk in finished.nonzero()[0].tolist():
            ids[lanes[walk]] = walks.ids(walk)
        steps[lanes] = walks.steps
        restarts[lanes] = walks.restarts
    counted = len(sizes)
    try:
        for counted, done in enumerate(ids):
            if done is not None:
                continue
            own = [0, 0]
            if counted in unfinished:
                ids[counted] = walks.resume(unfinished[counted], own)
            else:
                ids[counted] = _random_walk_ids(
                    context,
                    sizes[counted],
                    random.Random(child_seeds[counted]),
                    tally=own,
                )
            steps[counted], restarts[counted] = own
        counted = len(sizes)
    finally:
        # On failure ``counted`` is the failing replicate.
        if counted:
            _count_walks(
                int(steps[:counted].sum()),
                int(restarts[:counted].sum()),
                tally,
            )
    return ids  # type: ignore[return-value]


def _grown_ids(
    context: AnalysisContext,
    size: int,
    rng: random.Random,
    burn_probability: float | None,
) -> np.ndarray:
    """Grow a ball breadth-first; returns the collected ids sorted ascending.

    Each fresh neighbour is collected outright (BFS ball), or, given a
    ``burn_probability``, only when one ``rng.random()`` draw falls at or
    below it (forest fire).  Growth restarts from a fresh random root
    whenever the queue runs dry.
    """
    n = _check_size(context, size)
    indptr, indices = context.csr.indptr, context.csr.indices
    rank = context.label_rank
    collected = np.zeros(n, dtype=bool)
    count = 0
    queue: deque[int] = deque()
    while count < size:
        if not queue:
            remaining = np.flatnonzero(~collected)
            root = int(rng.choice(remaining))
            collected[root] = True
            count += 1
            queue.append(root)
            if count >= size:
                break
        vertex = queue.popleft()
        row = indices[indptr[vertex] : indptr[vertex + 1]]
        fresh_ids = row[~collected[row]]
        fresh = fresh_ids[np.argsort(rank[fresh_ids])].tolist()
        rng.shuffle(fresh)
        for other in fresh:
            if count >= size:
                break
            if burn_probability is None or rng.random() <= burn_probability:
                collected[other] = True
                count += 1
                queue.append(other)
    return np.flatnonzero(collected)


def _bfs_ball_ids(
    context: AnalysisContext, size: int, rng: random.Random
) -> np.ndarray:
    """Id-level BFS ball; returns the collected ids sorted ascending."""
    return _grown_ids(context, size, rng, None)


def _forest_fire_ids(
    context: AnalysisContext, size: int, rng: random.Random
) -> np.ndarray:
    """Id-level forest fire; returns the burned ids sorted ascending."""
    return _grown_ids(context, size, rng, BURN_PROBABILITY)


def _uniform_ids(
    context: AnalysisContext, size: int, rng: random.Random
) -> np.ndarray:
    """Id-level uniform draw; returns the drawn ids sorted ascending."""
    n = _check_size(context, size)
    drawn = np.asarray(rng.sample(range(n), size), dtype=np.int64)
    drawn.sort()
    return drawn


def random_walk_set(
    context: AnalysisContext,
    size: int,
    *,
    seed: int | random.Random | None = None,
    max_steps_factor: int = 200,
) -> set[Node]:
    """Sample ``size`` distinct vertices by random walk with restarts.

    Walks ignore edge direction (the paper samples the social graph as a
    connectivity structure); restarts draw a uniform vertex whenever no
    uncollected neighbour remains.  Raises
    :class:`~repro.exceptions.SamplingError` when the graph has fewer
    than ``size`` vertices or the step budget (``max_steps_factor *
    size``) is exhausted.
    """
    context = AnalysisContext.ensure(context)
    ids = _random_walk_ids(
        context, size, _resolve_rng(seed), max_steps_factor=max_steps_factor
    )
    return _id_labels(context, ids)


def bfs_ball_set(
    context: AnalysisContext,
    size: int,
    *,
    seed: int | random.Random | None = None,
) -> set[Node]:
    """Sample a BFS ball of ``size`` vertices around a random root.

    Restarts from a fresh random root whenever a component is exhausted.
    """
    context = AnalysisContext.ensure(context)
    ids = _bfs_ball_ids(context, size, _resolve_rng(seed))
    return _id_labels(context, ids)


def forest_fire_set(
    context: AnalysisContext,
    size: int,
    *,
    seed: int | random.Random | None = None,
) -> set[Node]:
    """Sample ``size`` vertices by forest fire (Leskovec's burn).

    Burns each fresh neighbour with probability :data:`BURN_PROBABILITY`,
    spreading from burned vertices; reignites from a random vertex when
    the fire dies before reaching ``size``.
    """
    context = AnalysisContext.ensure(context)
    ids = _forest_fire_ids(context, size, _resolve_rng(seed))
    return _id_labels(context, ids)


def uniform_vertex_set(
    context: AnalysisContext,
    size: int,
    *,
    seed: int | random.Random | None = None,
) -> set[Node]:
    """Sample ``size`` vertices uniformly without replacement."""
    context = AnalysisContext.ensure(context)
    ids = _uniform_ids(context, size, _resolve_rng(seed))
    return _id_labels(context, ids)


#: Sampler registry (name -> callable over a context).
ENGINE_SAMPLERS = {
    "uniform": uniform_vertex_set,
    "bfs_ball": bfs_ball_set,
    "forest_fire": forest_fire_set,
    "random_walk": random_walk_set,
}

#: Id-level variants (name -> callable(context, size, rng) -> id array);
#: the parallel workers run these — labels never cross the boundary.
SAMPLER_IDS = {
    "uniform": _uniform_ids,
    "bfs_ball": _bfs_ball_ids,
    "forest_fire": _forest_fire_ids,
    "random_walk": _random_walk_ids,
}


def _draw_scored(
    context: AnalysisContext,
    sampler: str,
    sizes: Sequence[int],
    child_seeds: Sequence[int | None],
    functions: Sequence[ScoringFunction] | None = None,
    *,
    graph_median_degree: float | None = None,
    include_internal_adjacency: bool = False,
    tally: list[int] | None = None,
) -> tuple[GroupIds, np.ndarray | None]:
    """Draw replicate ``i``'s set with seed ``child_seeds[i]``, then score
    the sets under ``functions``.

    Returns the sets as one anonymous canonical :class:`GroupIds` and
    their ``(G, F)`` score matrix, ``None`` without functions.  The
    serial pass runs this on the whole batch and each ``--jobs``
    sampling chunk on its share, so sets are scored where they are
    drawn.  Random walks go through :func:`_random_walk_batch`, which
    counts their steps and restarts in ``tally`` when one is given.
    """
    if sampler == "random_walk":
        drawn = _random_walk_batch(context, sizes, child_seeds, tally=tally)
    else:
        function = SAMPLER_IDS[sampler]
        drawn = [
            function(context, size, random.Random(child))
            for size, child in zip(sizes, child_seeds)
        ]
    groups = GroupIds.from_arrays(drawn, n=context.num_vertices)
    if functions is None:
        return groups, None
    from repro.scoring.columnar import score_stats_columns

    _, matrix = score_stats_columns(
        context,
        groups,
        functions,
        graph_median_degree=graph_median_degree,
        include_internal_adjacency=include_internal_adjacency,
    )
    return groups, matrix


class MatchedDraw:
    """One matched-set draw: started when built, collected by :meth:`result`.

    ``sampler`` is a key of :data:`SAMPLER_IDS`.  A seeded draw the
    ``cache`` holds is served from it.  Otherwise replicate ``i`` is
    drawn with child stream ``i`` of ``seed``: on an active
    ``executor``'s pool, submitted here so the caller can queue other
    work behind it, or serially in :meth:`result`.  Given
    ``functions``, the sets are scored where they are drawn, the serial
    pass on the whole batch and each worker on its chunk; functions
    whose configuration cannot travel to a worker (no
    :func:`~repro.engine.cache.function_tokens`) leave a parallel draw
    unscored.  The caller owns ``executor`` and closes it after
    :meth:`result`.
    """

    def __init__(
        self,
        context: AnalysisContext,
        sizes: Sequence[int],
        sampler: str,
        *,
        seed: int | None = None,
        cache: "ResultCache | str | bool | None" = None,
        executor: ParallelExecutor | None = None,
        functions: Sequence[ScoringFunction] | None = None,
        graph_median_degree: float | None = None,
        include_internal_adjacency: bool = False,
    ) -> None:
        self.context = AnalysisContext.ensure(context)
        # operator.index: a float size is a TypeError, not a truncation.
        self.sizes = [operator.index(size) for size in sizes]
        if sampler not in SAMPLER_IDS:
            known = ", ".join(sorted(SAMPLER_IDS))
            raise KeyError(f"unknown sampler {sampler!r}; known: {known}")
        self.sampler = sampler
        self._functions = functions
        self._options = {
            "graph_median_degree": graph_median_degree,
            "include_internal_adjacency": include_internal_adjacency,
        }
        self._store = ResultCache.resolve(cache)
        self._key: str | None = None
        self._cached: list[np.ndarray] | None = None
        self._pending: PendingDraw | None = None
        if self._store is not None and seed is not None:
            self._key = self._store.matched_sets_key(
                self.context, sampler=sampler, seed=seed, sizes=self.sizes
            )
            self._cached = self._store.load_id_sets(self._key)
            if self._cached is not None:
                return
        self._child_seeds = spawn_child_seeds(seed, len(self.sizes))
        if executor is not None and executor.active and self.sizes:
            if functions is not None and function_tokens(functions) is None:
                functions = None
            self._pending = executor.draw(
                sampler, self.sizes, self._child_seeds, functions, **self._options
            )

    def result(self) -> tuple[GroupIds, np.ndarray | None]:
        """Return the sets as one anonymous :class:`GroupIds`, in replicate
        order, and their score matrix (``None`` when unscored).

        Runs in the ``sampler.matched_sets`` span; a fresh seeded draw
        is stored in the cache.
        """
        with obs.span("sampler.matched_sets"):
            if self._cached is not None:
                groups = GroupIds.from_arrays(
                    self._cached, n=self.context.num_vertices
                )
                matrix = None
            else:
                if self._pending is not None:
                    groups, matrix = self._pending.result()
                else:
                    groups, matrix = _draw_scored(
                        self.context,
                        self.sampler,
                        self.sizes,
                        self._child_seeds,
                        self._functions,
                        **self._options,
                    )
                if self._key is not None and self._store is not None:
                    self._store.store_id_sets(self._key, groups.slices())
            instruments.SETS_SAMPLED.inc(len(groups), label=self.sampler)
            obs.add("sets", len(groups))
        return groups, matrix


def sample_matched_ids(
    context: AnalysisContext,
    sizes: Sequence[int],
    sampler: str,
    *,
    seed: int | None = None,
    jobs: int | None = None,
    cache: "ResultCache | str | bool | None" = None,
    executor: ParallelExecutor | None = None,
) -> list[np.ndarray]:
    """One vertex-id array per entry of ``sizes`` using a named sampler.

    ``sampler`` is a key of :data:`SAMPLER_IDS`; every draw shares the
    one frozen context.  Replicate ``i`` owns child stream ``i`` of
    ``seed``, so serial and parallel (``jobs``/``executor``) execution
    emit identical draws.  Each array is ascending and unique, ready for
    :meth:`~repro.engine.ids.GroupIds.from_arrays`.  Seeded draws may be
    served from ``cache`` (see :class:`MatchedDraw`).
    """
    context = AnalysisContext.ensure(context)
    own_executor = None
    if executor is None:
        effective = resolve_jobs(jobs)
        if effective > 1:
            executor = own_executor = ParallelExecutor(context, effective)
    try:
        groups, _ = MatchedDraw(
            context, sizes, sampler, seed=seed, cache=cache, executor=executor
        ).result()
    finally:
        if own_executor is not None:
            own_executor.close()
    return groups.slices()


def sample_matched_sets(
    context: AnalysisContext,
    sizes: Sequence[int],
    sampler: str,
    *,
    seed: int | None = None,
    jobs: int | None = None,
    cache: "ResultCache | str | bool | None" = None,
    executor: ParallelExecutor | None = None,
) -> list[set[Node]]:
    """Draw like :func:`sample_matched_ids`; return each draw's labels."""
    context = AnalysisContext.ensure(context)
    id_lists = sample_matched_ids(
        context,
        sizes,
        sampler,
        seed=seed,
        jobs=jobs,
        cache=cache,
        executor=executor,
    )
    return [_id_labels(context, ids) for ids in id_lists]
