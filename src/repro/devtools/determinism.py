"""Seed-determinism checker for the stochastic pipelines.

Every experiment behind the paper's figures samples, rewires or detects
under an explicit seed; the claim "same seed, same output" is what makes
the reproduction auditable.  This module turns the claim into a check: a
*pipeline* is a named callable ``fn(seed) -> object``; the checker runs
it several times with the same seed, canonicalizes each output
(graphs -> sorted edge lists, sets -> sorted lists, floats -> exact
``repr``), and diffs the serializations.  Any divergence — unseeded
randomness, hash-order iteration leaking into output, shared mutable
state — fails loudly with the first differing position.

A default registry covers one or more pipelines in each stochastic
package (the ``engine/`` samplers, ``nullmodel/``, ``detection/``,
``synth/``)::

    python -m repro.devtools.determinism            # check all
    python -m repro.devtools.determinism --fast     # skip slow pipelines

Note: two runs inside one process share a hash seed, so divergence
*across* interpreter invocations (``PYTHONHASHSEED``) is covered by the
regression test ``tests/devtools/test_seed_stability.py`` instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

__all__ = [
    "DeterminismReport",
    "PIPELINES",
    "FAST_PIPELINES",
    "register_pipeline",
    "canonicalize",
    "fingerprint",
    "check_pipeline",
    "check_all",
    "main",
]


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of running one pipeline ``runs`` times under one seed."""

    pipeline: str
    seed: int
    runs: int
    identical: bool
    fingerprint: str
    first_divergence: str | None = None

    def format(self) -> str:
        status = "PASS" if self.identical else "FAIL"
        tail = f" ({self.first_divergence})" if self.first_divergence else ""
        return (
            f"{status}  {self.pipeline}  seed={self.seed} runs={self.runs} "
            f"fingerprint={self.fingerprint[:12]}{tail}"
        )


def canonicalize(obj: object) -> object:
    """Reduce ``obj`` to a JSON-serializable canonical form.

    Graphs become sorted node/edge lists (undirected edges are sorted
    within the pair), sets become sorted lists, dicts sort by key, numpy
    scalars/arrays become Python lists, and floats keep full ``repr``
    precision so bit-level drift is visible.
    """
    if isinstance(obj, Graph):
        return {
            "type": "Graph",
            "nodes": sorted((repr(n) for n in obj.nodes)),
            "edges": sorted(
                tuple(sorted((repr(u), repr(v)))) for u, v in obj.edges
            ),
        }
    if isinstance(obj, DiGraph):
        return {
            "type": "DiGraph",
            "nodes": sorted(repr(n) for n in obj.nodes),
            "edges": sorted((repr(u), repr(v)) for u, v in obj.edges),
        }
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(item) for item in obj)
    if isinstance(obj, dict):
        return {
            repr(key): canonicalize(value)
            for key, value in sorted(obj.items(), key=lambda kv: repr(kv[0]))
        }
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [canonicalize(item) for item in obj.tolist()]
    if isinstance(obj, (np.integer, np.floating)):
        return canonicalize(obj.item())
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return repr(obj)


def _serialize(obj: object) -> str:
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def fingerprint(obj: object) -> str:
    """SHA-256 of the canonical serialization of ``obj``."""
    return hashlib.sha256(_serialize(obj).encode("utf-8")).hexdigest()


def _first_divergence(reference: str, other: str) -> str:
    limit = min(len(reference), len(other))
    for index in range(limit):
        if reference[index] != other[index]:
            lo = max(0, index - 20)
            return (
                f"first divergence at byte {index}: "
                f"...{reference[lo:index + 20]!r} vs ...{other[lo:index + 20]!r}"
            )
    return (
        f"outputs are prefixes of each other "
        f"(lengths {len(reference)} vs {len(other)})"
    )


# -- pipeline registry -------------------------------------------------------

#: All registered pipelines: name -> fn(seed) -> object.
PIPELINES: dict[str, Callable[[int], object]] = {}

#: Names cheap enough for the pre-commit gate (``--fast``).
FAST_PIPELINES: list[str] = []


def register_pipeline(
    name: str, fn: Callable[[int], object] | None = None, *, fast: bool = True
):
    """Register ``fn`` under ``name``; usable as a decorator.

    ``fast=False`` keeps the pipeline out of the ``--fast`` gate run.
    """

    def _register(target: Callable[[int], object]) -> Callable[[int], object]:
        PIPELINES[name] = target
        if fast:
            FAST_PIPELINES.append(name)
        return target

    if fn is not None:
        return _register(fn)
    return _register


def check_pipeline(
    name: str, *, seed: int = 0, runs: int = 2
) -> DeterminismReport:
    """Run a registered pipeline ``runs`` times and diff the outputs."""
    try:
        fn = PIPELINES[name]
    except KeyError:
        known = ", ".join(sorted(PIPELINES))
        raise KeyError(f"unknown pipeline {name!r}; known: {known}") from None
    if runs < 2:
        raise ValueError("determinism needs at least two runs")
    reference = _serialize(fn(seed))
    for _ in range(runs - 1):
        repeat = _serialize(fn(seed))
        if repeat != reference:
            return DeterminismReport(
                pipeline=name,
                seed=seed,
                runs=runs,
                identical=False,
                fingerprint=hashlib.sha256(
                    reference.encode("utf-8")
                ).hexdigest(),
                first_divergence=_first_divergence(reference, repeat),
            )
    return DeterminismReport(
        pipeline=name,
        seed=seed,
        runs=runs,
        identical=True,
        fingerprint=hashlib.sha256(reference.encode("utf-8")).hexdigest(),
    )


def check_all(
    names: Iterable[str] | None = None, *, seed: int = 0, runs: int = 2
) -> list[DeterminismReport]:
    """Check every named (default: every registered) pipeline."""
    selected = list(names) if names is not None else sorted(PIPELINES)
    return [check_pipeline(name, seed=seed, runs=runs) for name in selected]


# -- default pipelines -------------------------------------------------------
#
# Each stochastic package contributes at least one pipeline.  The base
# graphs are themselves seeded, so the only randomness under test is the
# pipeline's own.  String node labels make hash-order dependence visible.


def _base_graph() -> Graph:
    from repro.synth.random_graphs import erdos_renyi_graph

    graph = erdos_renyi_graph(60, 0.1, seed=7)
    # String labels: set iteration over these is PYTHONHASHSEED-dependent,
    # which is exactly the failure mode the samplers must not leak.
    from repro.graph.convert import relabel_nodes

    mapping = {node: f"v{node:03d}" for node in graph}
    relabeled = relabel_nodes(graph, mapping)
    assert isinstance(relabeled, Graph)
    return relabeled


@register_pipeline("sampling.random_walk")
def _pipeline_random_walk(seed: int) -> object:
    from repro.engine import sample_matched_sets

    return sample_matched_sets(
        _base_graph(), [5, 8, 13], "random_walk", seed=seed
    )


@register_pipeline("sampling.forest_fire")
def _pipeline_forest_fire(seed: int) -> object:
    from repro.engine import sample_matched_sets

    return sample_matched_sets(_base_graph(), [6, 9], "forest_fire", seed=seed)


@register_pipeline("sampling.bfs_ball")
def _pipeline_bfs_ball(seed: int) -> object:
    from repro.engine import sample_matched_sets

    return sample_matched_sets(_base_graph(), [6, 9], "bfs_ball", seed=seed)


@register_pipeline("engine.random_walk")
def _pipeline_engine_random_walk(seed: int) -> object:
    from repro.engine import AnalysisContext, sample_matched_sets

    context = AnalysisContext(_base_graph())
    return sample_matched_sets(context, [5, 8, 13], "random_walk", seed=seed)


@register_pipeline("engine.random_walk_batch")
def _pipeline_engine_random_walk_batch(seed: int) -> object:
    # Enough walks for the lockstep kernel.  Labels inserted in reverse
    # order put label rank against id order, and half the edges dropped
    # leave dead ends, so walks restart and the largest are handed to
    # the per-walk loop.
    from repro.engine import AnalysisContext, sample_matched_sets

    base = _base_graph()
    graph = Graph()
    graph.add_nodes_from(sorted(base.nodes, reverse=True))
    edges = sorted(tuple(sorted(edge)) for edge in base.edges)
    graph.add_edges_from(edges[::2])
    sizes = [1 + (7 * i) % 40 for i in range(300)]
    return sample_matched_sets(
        AnalysisContext(graph), sizes, "random_walk", seed=seed
    )


@register_pipeline("engine.bfs_ball")
def _pipeline_engine_bfs_ball(seed: int) -> object:
    from repro.engine import AnalysisContext, sample_matched_sets

    context = AnalysisContext(_base_graph())
    return sample_matched_sets(context, [6, 9], "bfs_ball", seed=seed)


@register_pipeline("engine.uniform")
def _pipeline_engine_uniform(seed: int) -> object:
    from repro.engine import AnalysisContext, sample_matched_sets

    context = AnalysisContext(_base_graph())
    return sample_matched_sets(context, [6, 9, 20], "uniform", seed=seed)


@register_pipeline("scoring.avg_odf")
def _pipeline_scoring_avg_odf(seed: int) -> object:
    # Frozensets of string labels iterate in PYTHONHASHSEED order, and
    # Average-ODF's float mean reads member order: scores must not.
    import random

    from repro.data.groups import GroupSet, VertexGroup
    from repro.scoring.registry import make_function, score_groups

    graph = _base_graph()
    labels = sorted(graph)
    rng = random.Random(seed)
    groups = GroupSet(
        groups=[
            VertexGroup(
                name=f"g{i}",
                members=frozenset(rng.sample(labels, rng.randint(10, 40))),
            )
            for i in range(30)
        ]
    )
    functions = [make_function("avg_odf"), make_function("conductance")]
    return score_groups(graph, groups, functions, cache=False).columns


@register_pipeline("nullmodel.double_edge_swap")
def _pipeline_double_edge_swap(seed: int) -> object:
    from repro.nullmodel.rewiring import double_edge_swap

    graph = _base_graph()
    swaps = double_edge_swap(graph, 80, seed=seed)
    return {"swaps": swaps, "graph": graph}


@register_pipeline("nullmodel.viger_latapy")
def _pipeline_viger_latapy(seed: int) -> object:
    from repro.algorithms.degrees import degree_sequence
    from repro.nullmodel.viger_latapy import viger_latapy_graph

    degrees = [int(d) for d in degree_sequence(_base_graph()) if d >= 1]
    return viger_latapy_graph(degrees, seed=seed)


@register_pipeline("detection.louvain")
def _pipeline_louvain(seed: int) -> object:
    from repro.detection.louvain import louvain_communities

    return louvain_communities(_base_graph(), seed=seed)


@register_pipeline("detection.label_propagation")
def _pipeline_label_propagation(seed: int) -> object:
    from repro.detection.label_propagation import label_propagation_communities

    return label_propagation_communities(_base_graph(), seed=seed)


@register_pipeline("synth.erdos_renyi")
def _pipeline_erdos_renyi(seed: int) -> object:
    from repro.synth.random_graphs import erdos_renyi_graph

    return erdos_renyi_graph(70, 0.08, seed=seed)


@register_pipeline("synth.ego_collection", fast=False)
def _pipeline_ego_collection(seed: int) -> object:
    from repro.synth.ego_generator import EgoCollectionConfig, generate_ego_collection

    config = EgoCollectionConfig(num_egos=3)
    collection = generate_ego_collection(config, seed=seed)
    return {
        network.ego: {
            circle.name: circle.members for circle in network.circles
        }
        for network in collection
    }


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.devtools.determinism``."""
    parser = argparse.ArgumentParser(
        prog="repro.devtools.determinism",
        description="Run registered stochastic pipelines twice per seed "
        "and diff canonical outputs",
    )
    parser.add_argument(
        "pipelines", nargs="*", help="pipeline names (default: all)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument(
        "--fast", action="store_true", help="only the fast gate pipelines"
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered pipelines"
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in sorted(PIPELINES):
            tag = "" if name in FAST_PIPELINES else "  [slow]"
            print(f"{name}{tag}")
        return 0
    names: Iterable[str] | None
    if args.pipelines:
        unknown = [name for name in args.pipelines if name not in PIPELINES]
        if unknown:
            for name in unknown:
                print(f"error: unknown pipeline: {name}", file=sys.stderr)
            print(
                f"known: {', '.join(sorted(PIPELINES))}", file=sys.stderr
            )
            return 2
        names = args.pipelines
    elif args.fast:
        names = sorted(FAST_PIPELINES)
    else:
        names = None
    reports = check_all(names, seed=args.seed, runs=args.runs)
    failures = 0
    for report in reports:
        print(report.format())
        failures += 0 if report.identical else 1
    if failures:
        print(f"{failures} pipeline(s) diverged")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
