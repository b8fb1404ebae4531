#!/usr/bin/env python
"""Columnar-vs-scalar scoring benchmark (the columnar fast path's receipt).

Scores ten thousand synthetic groups under every vectorizable registry
function (all 15 minus TPR, whose triangle sweep is inherently
per-group) twice:

* **scalar** — each function's scalar twin from
  ``tests/oracles/scoring.py`` over a prebuilt list of its
  ``GroupStats`` rows (the pre-columnar ``score_groups`` inner loop:
  one interpreter dispatch per (group, function) pair);
* **columnar** — one :func:`repro.scoring.columnar.score_matrix` pass
  over a prebuilt :class:`~repro.scoring.columnar.GroupStatsBatch`
  (one vectorized kernel per function).

Both stages must produce *bitwise identical* float64 scores
(``tobytes()`` per column).  The timed quantity is the **scoring
stage** only — both inputs are prebuilt outside the timers, because
the stats pass is shared (``batch_group_stats_columns`` feeds both
representations from the same membership kernel).  Best of
``--repeat`` interleaved runs; the full run requires >= 10_000 groups
and asserts the columnar stage is at least 3x faster.  Emits a JSON
report (committed as ``BENCH_columnar.json``, regression-gated by
``scripts/bench_trajectory.py``)::

    python benchmarks/bench_columnar_scoring.py            # full, prints JSON
    python benchmarks/bench_columnar_scoring.py --smoke    # small corpus,
                                                           # identity checks
                                                           # only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.engine import AnalysisContext, batch_group_stats_columns
from repro.scoring.columnar import score_matrix
from repro.scoring.internal import TriangleParticipationRatio
from repro.scoring.registry import make_all_functions
from repro.synth.random_graphs import erdos_renyi_graph

# The scalar stage is the test oracle; put the repo's tests/ on the path
# so this runs standalone as well as under pytest.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles.scoring import row, scalar_twin  # noqa: E402

#: Group-count floor of the full benchmark (acceptance criterion).
MIN_GROUPS = 10_000

#: Required scoring-stage speedup of the columnar pass (acceptance criterion).
MIN_SPEEDUP = 3.0

#: Scoring-stage repetitions; the best run of each path is compared.
DEFAULT_REPEAT = 3

#: Corpus shape: ~avg-degree-20 G(n, p) graph plus uniform random groups.
_FULL = {"nodes": 3_000, "groups": 10_000, "seed": 7}
_SMOKE = {"nodes": 300, "groups": 200, "seed": 7}


def _build_corpus(smoke: bool):
    shape = _SMOKE if smoke else _FULL
    nodes = shape["nodes"]
    probability = min(1.0, 20.0 / max(nodes - 1, 1))
    graph = erdos_renyi_graph(
        nodes, probability, seed=shape["seed"], name="columnar-bench"
    )
    rng = np.random.default_rng(shape["seed"])
    member_lists = [
        rng.choice(nodes, size=int(size), replace=False).tolist()
        for size in rng.integers(2, 21, size=shape["groups"])
    ]
    return graph, member_lists


def _timed(run_once):
    start = time.perf_counter()
    result = run_once()
    return time.perf_counter() - start, result


def run(smoke: bool = False, repeat: int = DEFAULT_REPEAT) -> dict:
    """Run both scoring stages and return the JSON-ready report."""
    graph, member_lists = _build_corpus(smoke)
    functions = [
        function
        for function in make_all_functions()
        if not isinstance(function, TriangleParticipationRatio)
    ]

    context = AnalysisContext(graph)
    median = context.median_degree

    start = time.perf_counter()
    batch = batch_group_stats_columns(
        context, member_lists, graph_median_degree=median
    )
    stats_seconds = time.perf_counter() - start
    stats_list = [row(batch, i) for i in range(len(batch))]
    twins = [scalar_twin(function) for function in functions]

    def scalar_stage():
        return np.array(
            [[float(twin(stats)) for twin in twins] for stats in stats_list],
            dtype=np.float64,
        )

    def columnar_stage():
        return score_matrix(functions, batch)

    # Interleave the repetitions so transient machine load penalizes both
    # stages alike; the best run of each is compared.
    scalar_seconds = columnar_seconds = float("inf")
    for _ in range(repeat):
        seconds, scalar_matrix = _timed(scalar_stage)
        scalar_seconds = min(scalar_seconds, seconds)
        seconds, columnar_matrix = _timed(columnar_stage)
        columnar_seconds = min(columnar_seconds, seconds)

    scores_identical = all(
        np.ascontiguousarray(columnar_matrix[:, j]).tobytes()
        == np.ascontiguousarray(scalar_matrix[:, j]).tobytes()
        for j in range(len(functions))
    )
    speedup = (
        scalar_seconds / columnar_seconds
        if columnar_seconds > 0
        else float("inf")
    )
    return {
        "mode": "smoke" if smoke else "full",
        "dataset": graph.name,
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "groups": len(member_lists),
        "functions": [function.name for function in functions],
        "repeat": repeat,
        "stats_seconds": round(stats_seconds, 4),
        "scalar_score_seconds": round(scalar_seconds, 4),
        "columnar_score_seconds": round(columnar_seconds, 4),
        "speedup": round(speedup, 2),
        "scores_identical": scores_identical,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark columnar score_matrix against the scalar "
        "per-group oracle"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small corpus, identity checks only (no speedup assertion)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=DEFAULT_REPEAT,
        help="scoring-stage repetitions per path (best run wins)",
    )
    parser.add_argument(
        "-o", "--output", default=None, help="write the JSON report here"
    )
    args = parser.parse_args(argv)

    report = run(smoke=args.smoke, repeat=args.repeat)
    serialized = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(serialized + "\n")
    print(serialized)

    if not report["scores_identical"]:
        print(
            "FAIL: columnar scores are not bitwise identical to the "
            "scalar oracle",
            file=sys.stderr,
        )
        return 1
    if not args.smoke:
        if report["groups"] < MIN_GROUPS:
            print(
                f"FAIL: only {report['groups']} groups, need >= {MIN_GROUPS}",
                file=sys.stderr,
            )
            return 1
        if report["speedup"] < MIN_SPEEDUP:
            print(
                f"FAIL: speedup {report['speedup']}x below {MIN_SPEEDUP}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
