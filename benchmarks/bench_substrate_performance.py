"""Substrate micro-benchmarks.

Not a paper artifact — these measure the throughput of the kernels every
experiment is built on (CSR construction, BFS, triangle counting, group
statistics, null-model generation) on the full Google+ corpus, so
performance regressions in the substrate are caught alongside the
reproduction benches.
"""

import numpy as np
import pytest

from repro.algorithms.traversal import csr_bfs_distances
from repro.algorithms.triangles import triangles_per_vertex
from repro.engine import AnalysisContext, batch_group_stats_columns
from repro.graph.csr import CSRGraph
from repro.nullmodel.configuration import directed_configuration_model
from repro.scoring.registry import make_paper_functions, score_groups


@pytest.fixture(scope="module")
def gplus_csr(gplus):
    return CSRGraph(gplus.graph)


def test_perf_csr_construction(benchmark, gplus):
    csr = benchmark(lambda: CSRGraph(gplus.graph))
    assert csr.num_vertices == gplus.graph.number_of_nodes()


def test_perf_bfs_sweep(benchmark, gplus_csr):
    def sweep():
        total = 0
        for source in range(0, gplus_csr.num_vertices, gplus_csr.num_vertices // 20):
            distances = csr_bfs_distances(gplus_csr, source)
            total += int(distances.max())
        return total

    result = benchmark(sweep)
    assert result > 0


def test_perf_triangle_sample(benchmark, gplus_csr):
    rng = np.random.default_rng(0)
    vertices = rng.choice(gplus_csr.num_vertices, size=500, replace=False)

    counts = benchmark(lambda: triangles_per_vertex(gplus_csr, vertices))
    assert counts.sum() > 0


def test_perf_group_stats(benchmark, gplus):
    groups = [list(group.members) for group in gplus.groups if len(group) >= 2]
    context = AnalysisContext(gplus.graph)
    # Fill the context's lazy degree and adjacency caches untimed: the
    # timed call is the stats pass alone, as experiments freeze once.
    batch_group_stats_columns(context, groups)

    batch = benchmark(lambda: batch_group_stats_columns(context, groups))
    assert len(batch) == len(groups)


def test_perf_score_groups_paper_functions(benchmark, gplus):
    table = benchmark(
        lambda: score_groups(gplus.graph, gplus.groups, make_paper_functions())
    )
    assert len(table) > 0


def test_perf_directed_configuration_model(benchmark, magno):
    in_degrees = [magno.graph.in_degree[v] for v in magno.graph]
    out_degrees = [magno.graph.out_degree[v] for v in magno.graph]

    null = benchmark.pedantic(
        lambda: directed_configuration_model(in_degrees, out_degrees, seed=1),
        rounds=1,
        iterations=1,
    )
    assert null.number_of_edges() == magno.graph.number_of_edges()
