"""Vertex-set samplers over a frozen :class:`AnalysisContext`.

The paper's random-walk baseline (Fig. 5) and the uniform, BFS-ball and
forest-fire ablation samplers, on integer vertex ids: the sampler state
is a boolean mask plus CSR row slices, and node labels appear only at the
boundary (the label sets).  :func:`sample_matched_ids` hands the Fig. 5
driver the id arrays themselves.  These are the only production
samplers; every one runs serially, in the ``--jobs`` workers and from
the cache.

**Replay guarantee.**  Each sampler consumes randomness exactly like the
label-level implementation it replaced (kept in ``tests/oracles/``) —
``random.Random`` draws depend only on candidate-list *lengths*, so
ordering candidate ids by
:attr:`~repro.engine.context.AnalysisContext.label_rank` (the
:func:`~repro.graph.convert.stable_sorted` order of their labels) makes
every draw pick the same vertex.  Same seed, same sample, whichever
substrate runs it; ``tests/engine/test_engine_samplers.py`` pins this,
on scrambled in-memory graphs and on opened stores.

**The walk step.**  A Fig. 5 run makes one walk per circle, so the step
is the hot loop.  It makes a fixed handful of numpy calls on plain
arrays, whatever the row length: the row bounds are Python ints read
through a ``memoryview`` of ``indptr``, the row is a slice of a plain
``ndarray`` view of ``indices`` (so no ``np.memmap.__getitem__`` runs per
step), and the fresh neighbours are ``row[free[row]]`` over a per-draw
mask of the vertices not yet collected.  Members are collected in a list
and sorted once at the end.  Candidates are sorted by label rank only
when :attr:`~repro.engine.context.AnalysisContext.ids_in_label_order` is
false, which is decided once per context: identity-labelled stores, and
the parallel workers rebuilt from them, never sort.  There is no
per-entry Python loop (a list comprehension over a ``memoryview`` row,
with a ``set`` of collected ids).  In three runs on one 2-vCPU host it
took 0.8–1.2× as long as this step on the 14-entry rows of the
fig5-store benchmark, but 3.7–4.3× as long on the in-memory
``build_google_plus`` graph, whose mean row of 68 entries is closer to
the long rows of the real Google+ crawl.

**Replicate independence.**  :func:`sample_matched_ids` derives one
child seed per replicate (:func:`repro.sampling.seeds.spawn_child_seeds`)
instead of threading a single RNG through the loop, so replicate ``i``'s
stream does not depend on replicates ``0..i-1`` — which is what lets the
parallel executor hand replicates to workers and still produce the exact
serial output.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Hashable, Sequence

import numpy as np

from repro import obs
from repro.engine.cache import ResultCache
from repro.engine.context import AnalysisContext
from repro.engine.parallel import ParallelExecutor, resolve_jobs
from repro.exceptions import SamplingError
from repro.graph.csr import IdentityNodes
from repro.obs import instruments
from repro.sampling.seeds import spawn_child_seeds

Node = Hashable

__all__ = [
    "random_walk_set",
    "bfs_ball_set",
    "forest_fire_set",
    "uniform_vertex_set",
    "ENGINE_SAMPLERS",
    "SAMPLER_IDS",
    "sample_matched_ids",
    "sample_matched_sets",
]

#: Chance that forest fire burns each fresh neighbour it reaches.
BURN_PROBABILITY = 0.7


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
    # Python-int row bounds and a plain ndarray of targets: no numpy
    # scalar boxing and no np.memmap.__getitem__ on the per-step path.
    bounds = memoryview(context.csr.indptr)
    targets = context.csr.indices.view(np.ndarray)
    rank = None if context.ids_in_label_order else context.label_rank
    choice = rng.choice
    population = range(n)
    free = np.ones(n, dtype=bool)
    current = choice(population)
    free[current] = False
    members = [current]
    steps = 0
    restarts = 0
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
    if tally is None:
        instruments.WALK_STEPS.inc(steps)
        instruments.WALK_RESTARTS.inc(restarts)
    else:
        tally[0] += steps
        tally[1] += restarts
    members.sort()
    return np.array(members, dtype=np.int64)


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
    served from ``cache``.
    """
    context = AnalysisContext.ensure(context)
    sizes = [int(size) for size in sizes]
    if sampler not in SAMPLER_IDS:
        known = ", ".join(sorted(SAMPLER_IDS))
        raise KeyError(f"unknown sampler {sampler!r}; known: {known}")
    with obs.span("sampler.matched_sets"):
        id_lists = _matched_ids(
            context, sizes, sampler, seed, jobs, cache, executor
        )
        instruments.SETS_SAMPLED.inc(len(id_lists), label=sampler)
        obs.add("sets", len(id_lists))
    return id_lists


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


def _matched_ids(
    context: AnalysisContext,
    sizes: list[int],
    sampler: str,
    seed: int | None,
    jobs: int | None,
    cache: "ResultCache | str | bool | None",
    executor: ParallelExecutor | None,
) -> list[np.ndarray]:
    store = ResultCache.resolve(cache)
    key = None
    if store is not None and seed is not None:
        key = store.matched_sets_key(
            context, sampler=sampler, seed=seed, sizes=sizes
        )
        cached = store.load_id_sets(key)
        if cached is not None:
            return cached

    child_seeds = spawn_child_seeds(seed, len(sizes))
    own_executor = False
    if executor is None:
        effective = resolve_jobs(jobs)
        if effective > 1:
            executor = ParallelExecutor(context, effective)
            own_executor = True
    try:
        if executor is not None and executor.active:
            id_lists = executor.sample_ids(sampler, sizes, child_seeds)
        else:
            function = SAMPLER_IDS[sampler]
            id_lists = [
                function(context, size, random.Random(child))
                for size, child in zip(sizes, child_seeds)
            ]
    finally:
        if own_executor and executor is not None:
            executor.close()
    if key is not None and store is not None:
        store.store_id_sets(key, id_lists)
    return id_lists
