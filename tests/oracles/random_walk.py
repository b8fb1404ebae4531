"""The paper's random-walk vertex-set sampler (section V-A).

To test whether circles are pronounced structures, the paper scores each
circle against a random vertex set *of the same size*, sampled by a random
walk: start at a random vertex, repeatedly move to a uniformly random
neighbour, collecting distinct vertices; restart from a fresh random vertex
whenever no new neighbour is available.  Random walks give an unbiased,
widely connected selection of the sub-graph (Lu et al., WWW'14).

This is the label-level reference implementation over a mutable graph.
Production walks the frozen CSR through
:func:`repro.engine.samplers.random_walk_set`, which must replay these
draws seed for seed.
"""

from __future__ import annotations

import random
from collections.abc import Hashable, Sequence

from repro.exceptions import SamplingError
from repro.graph.convert import stable_sorted
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

Node = Hashable

__all__ = ["random_walk_set", "matched_random_sets"]


def _neighbor_map(graph: Graph | DiGraph):
    """Direction-ignoring neighbour accessor over live internal sets."""
    if graph.is_directed:
        succ = graph._succ  # noqa: SLF001
        pred = graph._pred  # noqa: SLF001
        return lambda node: succ[node] | pred[node]
    adj = graph._adj  # noqa: SLF001
    return lambda node: adj[node]


def random_walk_set(
    graph: Graph | DiGraph,
    size: int,
    *,
    seed: int | random.Random | None = None,
    max_steps_factor: int = 200,
) -> set[Node]:
    """Sample ``size`` distinct vertices by random walk with restarts.

    Walks ignore edge direction (the paper samples the social graph as a
    connectivity structure).  Raises
    :class:`~repro.exceptions.SamplingError` when the graph has fewer than
    ``size`` vertices or the step budget (``max_steps_factor * size``) is
    exhausted — which only happens on pathologically fragmented graphs.
    """
    if size <= 0:
        raise ValueError("sample size must be positive")
    nodes = list(graph.nodes)
    if len(nodes) < size:
        raise SamplingError(
            f"graph has {len(nodes)} vertices, cannot sample {size}"
        )
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    neighbors = _neighbor_map(graph)
    collected: set[Node] = set()
    current = rng.choice(nodes)
    collected.add(current)
    steps = 0
    budget = max_steps_factor * size
    while len(collected) < size:
        steps += 1
        if steps > budget:
            raise SamplingError(
                f"random walk exhausted {budget} steps collecting "
                f"{len(collected)}/{size} vertices"
            )
        fresh = neighbors(current) - collected
        if not fresh:
            # "The walk is restarted whenever no new neighbour is available."
            current = rng.choice(nodes)
            collected.add(current)
            continue
        # stable_sorted: raw set order is PYTHONHASHSEED-dependent and
        # would leak into the sample across interpreter runs.
        current = rng.choice(stable_sorted(fresh))
        collected.add(current)
    return collected


def matched_random_sets(
    graph: Graph | DiGraph,
    sizes: Sequence[int],
    *,
    seed: int | None = None,
    max_steps_factor: int = 200,
) -> list[set[Node]]:
    """One random-walk vertex set per entry of ``sizes``.

    This is the baseline of the paper's Fig. 5: for every circle, a random
    set of exactly the circle's size.  Each replicate owns an independent
    child stream of ``seed`` (:func:`oracles.seeds.child_seeds`, numpy's
    own ``SeedSequence`` spawn), so the CSR-native and parallel paths
    replay these draws exactly.
    """
    from oracles.seeds import child_seeds

    return [
        random_walk_set(
            graph, size, seed=child, max_steps_factor=max_steps_factor
        )
        for size, child in zip(sizes, child_seeds(seed, len(sizes)))
    ]
