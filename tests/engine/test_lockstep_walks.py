"""The lockstep random-walk kernel makes exactly the per-walk loop's draws.

Fig. 5 draws one random walk per circle through
:func:`repro.engine.samplers.sample_matched_ids`.  Batches of at least
:data:`~repro.engine.samplers.LOCKSTEP_CROSSOVER` walks advance together
(:class:`~repro.engine.samplers._LockstepWalks`), replaying each walk's
``random.Random`` stream from words drawn ahead; the walks left when
fewer remain, and any that spend their words, are finished by the
per-walk loop from where they stand.  Every id array, every step and
restart count and every error must be what the per-walk loop gives,
replicate by replicate.
The reference here takes its child seeds from numpy's ``SeedSequence``
(:mod:`oracles.seeds`), and the label-level oracle of
:mod:`oracles.random_walk` checks the labels.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine import (
    AnalysisContext,
    ParallelExecutor,
    sample_matched_ids,
    sample_matched_sets,
)
from repro.engine import samplers
from repro.engine.samplers import (
    LOCKSTEP_CROSSOVER,
    _LockstepWalks,
    _random_walk_batch,
    _random_walk_ids,
)
from repro.exceptions import SamplingError
from repro.graph.ugraph import Graph
from repro.obs import instruments

from oracles.random_walk import matched_random_sets
from oracles.seeds import child_seeds


def build_graph(n, edges, scrambled, seed):
    """``n`` vertices and ``edges`` random edges (0 leaves all isolated).

    Scrambled graphs insert string labels in shuffled order, so id order
    and label order disagree and the walk sorts candidates by label rank.
    """
    rng = random.Random(seed)
    labels = [f"v{i:03d}" if scrambled else i for i in range(n)]
    order = list(range(n))
    if scrambled:
        rng.shuffle(order)
    graph = Graph()
    graph.add_nodes_from(labels[i] for i in order)
    edges = min(edges, n * (n - 1) // 2)
    while graph.number_of_edges() < edges:
        u, v = rng.sample(labels, 2)
        graph.add_edge(u, v)
    return graph


def loop_draws(context, sizes, seed):
    """The per-walk loop, replicate by replicate, and its step tally."""
    tally = [0, 0]
    ids = [
        _random_walk_ids(context, size, random.Random(child), tally=tally)
        for size, child in zip(sizes, child_seeds(seed, len(sizes)))
    ]
    return ids, tuple(tally)


def counted(call):
    """Run ``call`` with metrics on: (outcome, (walk steps, restarts))."""
    obs.REGISTRY.reset()
    obs.enable_metrics()
    try:
        try:
            outcome = ("ok", call())
        except (SamplingError, ValueError) as exc:
            outcome = ("error", type(exc), str(exc))
    finally:
        obs.disable()
    counts = (
        instruments.WALK_STEPS.value(),
        instruments.WALK_RESTARTS.value(),
    )
    obs.REGISTRY.reset()
    return outcome, counts


def as_bytes(arrays):
    assert all(array.dtype == np.int64 for array in arrays)
    return [array.tobytes() for array in arrays]


@st.composite
def walk_batches(draw):
    n = draw(st.integers(2, 70))
    # Edges per vertex: none (all restarts), sparse, and connected.
    edges = int(draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) * n)
    graph = build_graph(
        n, edges, draw(st.booleans()), draw(st.integers(0, 1000))
    )
    count = draw(
        st.sampled_from(
            [
                1,
                LOCKSTEP_CROSSOVER - 1,
                LOCKSTEP_CROSSOVER,
                LOCKSTEP_CROSSOVER + 1,
                3 * LOCKSTEP_CROSSOVER,
            ]
        )
    )
    sizes = draw(st.lists(st.integers(1, n), min_size=count, max_size=count))
    return graph, sizes, draw(st.integers(0, 1 << 64))


@settings(max_examples=40, deadline=None)
@given(batch=walk_batches())
def test_kernel_replays_the_per_walk_loop(batch):
    graph, sizes, seed = batch
    context = AnalysisContext(graph)
    expected, tally = loop_draws(context, sizes, seed)
    (status, ids), counts = counted(
        lambda: sample_matched_ids(context, sizes, "random_walk", seed=seed)
    )
    assert status == "ok"
    assert as_bytes(ids) == as_bytes(expected)
    assert counts == tally
    assert sample_matched_sets(
        context, sizes, "random_walk", seed=seed
    ) == matched_random_sets(graph, sizes, seed=seed)


@settings(max_examples=40, deadline=None)
@given(
    batch=walk_batches(),
    words=st.sampled_from([(0, 1), (1, 1), (1, 2)]),
    crossover=st.sampled_from([2, 5]),
)
def test_hand_off_replays_the_per_walk_loop(batch, words, crossover):
    """Tiny word budgets and step runs: walks spend their words on any
    draw, the first included, and are resumed mid-walk."""
    graph, sizes, seed = batch
    context = AnalysisContext(graph)
    expected, tally = loop_draws(context, sizes, seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(samplers, "LOCKSTEP_CROSSOVER", crossover)
        patch.setattr(samplers, "_WORDS_PER_MEMBER", words[0])
        patch.setattr(samplers, "_WORD_SLACK", words[1])
        patch.setattr(samplers, "_STEP_ENTRIES", 5)
        own = [0, 0]
        ids = _random_walk_batch(
            context, sizes, child_seeds(seed, len(sizes)), tally=own
        )
    assert as_bytes(ids) == as_bytes(expected)
    assert tuple(own) == tally


def test_lockstep_runs_hand_off_and_restart():
    """The fixtures above reach every phase: lockstep, restarts, hand-off."""
    graph = build_graph(300, 150, scrambled=True, seed=4)
    context = AnalysisContext(graph)
    rng = random.Random(5)
    sizes = [rng.randint(1, 60) for _ in range(200)]
    walks = _LockstepWalks(
        context,
        np.array(sizes, dtype=np.int64),
        child_seeds(9, len(sizes)),
    )
    handed = walks.run(LOCKSTEP_CROSSOVER)
    assert context.ids_in_label_order is False
    assert 0 < handed.size < len(sizes)
    assert walks.restarts.sum() > 0
    finished = np.setdiff1d(np.arange(len(sizes)), handed)
    expected, _ = loop_draws(context, sizes, 9)
    for walk in finished.tolist():
        assert walks.ids(walk).tobytes() == expected[walk].tobytes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "bad, error", [(0, ValueError), (301, SamplingError)]
)
def test_first_failing_replicate_raises(jobs, bad, error):
    """A bad size raises at its replicate, after the lockstep phase ran."""
    graph = build_graph(300, 150, scrambled=True, seed=4)
    context = AnalysisContext(graph)
    rng = random.Random(6)
    sizes = [rng.randint(1, 60) for _ in range(320)]
    sizes[200] = bad
    sizes[250] = 0 if bad else 301
    with pytest.raises(error) as loop_error:
        loop_draws(context, sizes, 11)
    (status, kind, text), counts = counted(
        lambda: sample_matched_ids(
            context, sizes, "random_walk", seed=11, jobs=jobs
        )
    )
    assert (status, kind, text) == ("error", error, str(loop_error.value))
    if jobs == 1:
        # Replicates before the failing one are counted, as in the loop
        # (child i does not depend on how many children are spawned).
        assert counts == loop_draws(context, sizes[:200], 11)[1]


def test_parallel_lockstep_equals_serial():
    """Chunks above the crossover run the kernel inside the workers."""
    graph = build_graph(400, 300, scrambled=True, seed=8)
    context = AnalysisContext(graph)
    rng = random.Random(2)
    sizes = [rng.randint(1, 80) for _ in range(400)]
    (status, serial), serial_counts = counted(
        lambda: sample_matched_ids(context, sizes, "random_walk", seed=5)
    )
    (status, parallel), parallel_counts = counted(
        lambda: sample_matched_ids(
            context, sizes, "random_walk", seed=5, jobs=2
        )
    )
    assert as_bytes(parallel) == as_bytes(serial)
    assert parallel_counts == serial_counts
    assert as_bytes(serial) == as_bytes(loop_draws(context, sizes, 5)[0])


def test_word_replay_matches_randbelow():
    """``_draw`` is ``Random._randbelow`` on each walk's drawn-ahead words."""
    graph = build_graph(10, 12, scrambled=False, seed=1)
    context = AnalysisContext(graph)
    walks = 6
    seeds = child_seeds(21, walks)
    kernel = _LockstepWalks(context, np.full(walks, 1500), seeds)
    references = [random.Random(seed) for seed in seeds]
    rng = random.Random(3)
    edges = [1, 2, 3, (1 << 31) - 1, 1 << 31, (1 << 31) + 1, (1 << 32) - 1]
    active = np.arange(walks)
    draws = 0
    while active.size:
        bounds = np.array(
            [
                rng.choice(edges)
                if rng.random() < 0.2
                else rng.randrange(1, 1 << rng.randint(1, 32))
                for _ in active
            ],
            dtype=np.int64,
        )
        drawn = kernel._draw(active, bounds)
        for walk, bound, value in zip(active, bounds, drawn):
            if value >= 0:
                assert value == references[walk]._randbelow(int(bound))
                draws += 1
        active = active[drawn >= 0]
    # Budgets of 3016 words hold well over 1500 draws per walk.
    assert kernel.word_end[0] == 3016
    assert draws >= 1500 * walks


def test_memory_does_not_grow_with_walks_times_n():
    """Working memory is O(n + sum of sizes), not walks x n."""
    n, walks, size = 40_000, 600, 4
    graph = Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from((i, (i + 1) % n) for i in range(n))
    graph.add_edges_from((i, (i + 7) % n) for i in range(0, n, 3))
    context = AnalysisContext(graph)
    sizes = [size] * walks
    seeds = child_seeds(1, walks)
    tracemalloc.start()
    try:
        _random_walk_batch(context, sizes, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A per-walk bitmap alone would be walks * n = 24 MB.
    assert peak < 8 * n + 1000 * walks * size


@pytest.mark.parametrize("jobs", [1, 2])
def test_float_size_is_a_type_error(jobs):
    context = AnalysisContext(build_graph(40, 60, scrambled=False, seed=1))
    with pytest.raises(TypeError):
        sample_matched_ids(context, [2.7], "random_walk", seed=1, jobs=jobs)
    with pytest.raises(TypeError):
        sample_matched_ids(context, [3, 2.0], "uniform", seed=1, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_numpy_integer_sizes_pass(jobs):
    context = AnalysisContext(build_graph(40, 60, scrambled=False, seed=1))
    sizes = np.array([2, 5, 3], dtype=np.int32)
    drawn = sample_matched_ids(context, sizes, "random_walk", seed=1, jobs=jobs)
    assert [len(ids) for ids in drawn] == [2, 5, 3]
    assert as_bytes(drawn) == as_bytes(
        sample_matched_ids(context, [2, 5, 3], "random_walk", seed=1)
    )


def test_executor_rejects_float_sizes():
    context = AnalysisContext(build_graph(40, 60, scrambled=False, seed=1))
    with ParallelExecutor(context, jobs=2) as executor:
        with pytest.raises(TypeError):
            executor.sample_ids("random_walk", [2.5], [1])
