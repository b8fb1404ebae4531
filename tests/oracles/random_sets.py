"""Alternative vertex-set samplers for the sampler ablation (A1).

The paper uses random walks for its Fig. 5 baseline; these samplers answer
"would the conclusion change with a different baseline?":

* :func:`uniform_vertex_set` — i.i.d. vertices, no connectivity at all;
* :func:`bfs_ball_set` — a breadth-first ball, maximally connected and
  locally clustered;
* :func:`forest_fire_set` — probabilistic burn (Leskovec's forest fire),
  between the two extremes.

These are the label-level reference implementations over a mutable
graph.  Production samples on the frozen CSR through
:mod:`repro.engine.samplers`, whose kernels must replay these draws
seed for seed.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Hashable, Sequence

from repro.exceptions import SamplingError
from repro.graph.convert import stable_sorted
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

Node = Hashable

__all__ = [
    "uniform_vertex_set",
    "bfs_ball_set",
    "forest_fire_set",
    "SAMPLERS",
    "sample_matched_sets",
]


def _neighbor_map(graph: Graph | DiGraph):
    if graph.is_directed:
        succ = graph._succ  # noqa: SLF001
        pred = graph._pred  # noqa: SLF001
        return lambda node: succ[node] | pred[node]
    adj = graph._adj  # noqa: SLF001
    return lambda node: adj[node]


def _check_size(graph: Graph | DiGraph, size: int) -> list[Node]:
    if size <= 0:
        raise ValueError("sample size must be positive")
    nodes = list(graph.nodes)
    if len(nodes) < size:
        raise SamplingError(f"graph has {len(nodes)} vertices, cannot sample {size}")
    return nodes


def uniform_vertex_set(
    graph: Graph | DiGraph,
    size: int,
    *,
    seed: int | random.Random | None = None,
) -> set[Node]:
    """Sample ``size`` vertices uniformly without replacement."""
    nodes = _check_size(graph, size)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return set(rng.sample(nodes, size))


def bfs_ball_set(
    graph: Graph | DiGraph,
    size: int,
    *,
    seed: int | random.Random | None = None,
) -> set[Node]:
    """Sample a BFS ball of ``size`` vertices around a random root.

    When a component is exhausted before reaching ``size``, growth restarts
    from a fresh random root outside the collected set.
    """
    nodes = _check_size(graph, size)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    neighbors = _neighbor_map(graph)
    collected: set[Node] = set()
    queue: deque[Node] = deque()
    while len(collected) < size:
        if not queue:
            remaining = [node for node in nodes if node not in collected]
            root = rng.choice(remaining)
            collected.add(root)
            queue.append(root)
            if len(collected) >= size:
                break
        node = queue.popleft()
        # stable_sorted before shuffling: rng.shuffle permutes whatever
        # order it is given, so a hash-ordered input would make the
        # result PYTHONHASHSEED-dependent despite the seed.
        fresh = stable_sorted(neighbors(node) - collected)
        rng.shuffle(fresh)
        for other in fresh:
            if len(collected) >= size:
                break
            collected.add(other)
            queue.append(other)
    return collected


def forest_fire_set(
    graph: Graph | DiGraph,
    size: int,
    *,
    seed: int | random.Random | None = None,
    burn_probability: float = 0.7,
) -> set[Node]:
    """Sample by forest fire: burn each fresh neighbour with probability
    ``burn_probability``, recursing from burned vertices; reignite from a
    random vertex when the fire dies before reaching ``size``."""
    if not 0.0 < burn_probability <= 1.0:
        raise ValueError("burn_probability must be in (0, 1]")
    nodes = _check_size(graph, size)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    neighbors = _neighbor_map(graph)
    collected: set[Node] = set()
    frontier: deque[Node] = deque()
    while len(collected) < size:
        if not frontier:
            remaining = [node for node in nodes if node not in collected]
            root = rng.choice(remaining)
            collected.add(root)
            frontier.append(root)
            if len(collected) >= size:
                break
        node = frontier.popleft()
        fresh = stable_sorted(neighbors(node) - collected)
        rng.shuffle(fresh)
        for other in fresh:
            if len(collected) >= size:
                break
            if rng.random() <= burn_probability:
                collected.add(other)
                frontier.append(other)
    return collected


#: Sampler registry for the ablation bench (name -> callable).
SAMPLERS = {
    "uniform": uniform_vertex_set,
    "bfs_ball": bfs_ball_set,
    "forest_fire": forest_fire_set,
}


def sample_matched_sets(
    graph: Graph | DiGraph,
    sizes: Sequence[int],
    sampler: str,
    *,
    seed: int | None = None,
) -> list[set[Node]]:
    """One vertex set per entry of ``sizes`` using a named sampler.

    ``sampler`` is a key of :data:`SAMPLERS` or ``"random_walk"``.  Each
    replicate owns an independent child stream of ``seed``
    (:func:`oracles.seeds.child_seeds`), matching the engine's serial and
    parallel matched-set draws seed-for-seed.
    """
    if sampler == "random_walk":
        from oracles.random_walk import matched_random_sets

        return matched_random_sets(graph, sizes, seed=seed)
    try:
        function = SAMPLERS[sampler]
    except KeyError:
        known = ", ".join(sorted(SAMPLERS) + ["random_walk"])
        raise KeyError(f"unknown sampler {sampler!r}; known: {known}") from None
    from oracles.seeds import child_seeds

    return [
        function(graph, size, seed=child)
        for size, child in zip(sizes, child_seeds(seed, len(sizes)))
    ]
