"""The Fig. 5 pass at ``--jobs``: one pool round trip, serial bytes.

``circles_vs_random`` submits its sampling chunks, each scoring the sets
it drew, ahead of the circle shards on one executor that the call starts
and closes.  Every pass must give the serial bytes and leave no worker
behind, a dying worker must surface as :class:`ParallelError`, and
caches and parent-side counters must not depend on the worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import random

import pytest

from repro import obs
from repro.analysis.experiment import circles_vs_random
from repro.data.groups import GroupSet, VertexGroup
from repro.engine import AnalysisContext, GroupIds
from repro.exceptions import ParallelError
from repro.graph.ugraph import Graph
from repro.obs import instruments
from repro.scoring.modularity import NullModelEnsemble
from repro.scoring.registry import (
    make_all_functions,
    make_paper_functions,
    score_groups,
)


def labelled_graph(n=80, m=320, seed=13):
    """String labels inserted in shuffled order: ids and labels disagree,
    so the export ships ``label_rank`` too."""
    rng = random.Random(seed)
    labels = [f"v{i:03d}" for i in range(n)]
    graph = Graph()
    graph.add_nodes_from(rng.sample(labels, n))
    while graph.number_of_edges() < m:
        graph.add_edge(*rng.sample(labels, 2))
    return graph


def circles(graph, count=70, seed=3):
    rng = random.Random(seed)
    labels = sorted(graph.nodes)
    return GroupSet(
        groups=[
            VertexGroup(
                name=f"c{i:02d}",
                members=frozenset(rng.sample(labels, rng.randint(2, 12))),
            )
            for i in range(count)
        ]
    )


def fig5(graph, groups, context, jobs, **kwargs):
    return circles_vs_random(
        (graph, groups), context=context, seed=5, jobs=jobs, **kwargs
    )


def table_bytes(table):
    return (
        table.group_names,
        table.group_sizes,
        [table.scores(name).tobytes() for name in table.function_names()],
    )


def result_bytes(result):
    return table_bytes(result.circle_scores), table_bytes(result.random_scores)


class _Kaboom:
    """A 'scoring function' that kills its worker process outright."""

    name = "kaboom"

    def score_batch(self, batch):
        os._exit(13)


def test_consecutive_passes_match_serial_and_leave_no_worker():
    graph = labelled_graph()
    groups = circles(graph)
    context = AnalysisContext(graph)
    # The paper's four, then all fifteen: the chunks and shards derive
    # FOMD's median degree and TPR's neighbour rows themselves.
    for functions in (make_paper_functions(), make_all_functions()):
        serial = result_bytes(
            fig5(graph, groups, context, 1, functions=functions)
        )
        for _ in range(2):
            assert (
                result_bytes(fig5(graph, groups, context, 2, functions=functions))
                == serial
            )
            assert multiprocessing.active_children() == []


def test_worker_death_raises_and_the_next_pass_recovers():
    graph = labelled_graph()
    context = AnalysisContext(graph)
    ids = GroupIds.from_labels(
        context, [sorted(graph.nodes)[:5]], names=["doomed"]
    )
    with pytest.raises(ParallelError, match="--jobs 1"):
        score_groups(context, ids, [_Kaboom()], jobs=2)
    assert multiprocessing.active_children() == []
    # The next call starts a fresh pool and still gives the serial bytes.
    groups = circles(graph)
    assert result_bytes(fig5(graph, groups, context, 2)) == result_bytes(
        fig5(graph, groups, context, 1)
    )


def _parent_counts(call):
    """Counters the parent keeps whatever ``jobs`` is (workers count
    nothing, so kernel and batch counters are not comparable)."""
    obs.REGISTRY.reset()
    obs.enable_metrics()
    try:
        outcome = call()
    finally:
        obs.disable()
    counts = {
        "sets": instruments.SETS_SAMPLED.total(),
        "walk_steps": instruments.WALK_STEPS.total(),
        "walk_restarts": instruments.WALK_RESTARTS.total(),
        "scores": instruments.SCORES_COMPUTED.total(),
        "score_calls": instruments.SCORE_GROUPS_CALLS.total(),
        "hits": instruments.CACHE_HITS.total(),
        "misses": instruments.CACHE_MISSES.total(),
        "evictions": instruments.CACHE_EVICTIONS.total(),
        "kernels": instruments.KERNEL_SELECTED.total(),
        "shards": instruments.PARALLEL_SHARDS.total(),
    }
    obs.REGISTRY.reset()
    return outcome, counts


@pytest.mark.parametrize("write_jobs, read_jobs", [(2, 1), (1, 2)])
def test_cache_written_at_one_jobs_serves_the_other(
    tmp_path, write_jobs, read_jobs
):
    graph = labelled_graph()
    groups = circles(graph)
    context = AnalysisContext(graph)
    cache = tmp_path / "cache"
    written, counts = _parent_counts(
        lambda: fig5(graph, groups, context, write_jobs, cache=cache)
    )
    assert (counts["hits"], counts["misses"]) == (0, 3)
    served, counts = _parent_counts(
        lambda: fig5(graph, groups, context, read_jobs, cache=cache)
    )
    assert result_bytes(served) == result_bytes(written)
    assert (counts["hits"], counts["misses"]) == (3, 0)
    assert counts["kernels"] == counts["shards"] == counts["scores"] == 0


def test_counters_do_not_depend_on_jobs(tmp_path):
    graph = labelled_graph()
    groups = circles(graph)
    context = AnalysisContext(graph)
    counts = {}
    for jobs in (1, 2):
        _, counts[jobs] = _parent_counts(
            lambda: fig5(
                graph, groups, context, jobs, cache=tmp_path / f"cache{jobs}"
            )
        )
    assert counts[1]["walk_steps"] > 0 and counts[1]["kernels"] > 0
    # Circle shards plus one sampling chunk per worker, each scoring the
    # random sets it drew.
    assert counts[2].pop("shards") == 2 * 4 + 2
    assert counts[1].pop("shards") == 0
    del counts[1]["kernels"], counts[2]["kernels"]
    assert counts[2] == counts[1]


def test_functions_that_cannot_travel_leave_the_draw_unscored():
    """A sampled-Modularity ensemble has no cache token: the workers only
    draw, and both populations are scored in this process."""
    graph = labelled_graph()
    groups = circles(graph)
    context = AnalysisContext(graph)
    functions = make_paper_functions(
        modularity_expectation="sampled",
        ensemble=NullModelEnsemble(graph, samples=2, seed=11),
    )
    serial = fig5(graph, groups, context, 1, functions=functions)
    parallel_run, counts = _parent_counts(
        lambda: fig5(graph, groups, context, 2, functions=functions)
    )
    assert result_bytes(parallel_run) == result_bytes(serial)
    assert counts["shards"] == 2  # the sampling chunks, no score shards
