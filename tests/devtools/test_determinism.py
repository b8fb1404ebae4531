"""Determinism-checker tests: canonical serialization, the registry, and
two-run verification of at least one pipeline per stochastic package."""

from __future__ import annotations

import random

import pytest

from repro.devtools.determinism import (
    FAST_PIPELINES,
    PIPELINES,
    canonicalize,
    check_all,
    check_pipeline,
    fingerprint,
    main,
    register_pipeline,
)
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph


# -- canonicalization ---------------------------------------------------------


def test_canonicalize_graph_ignores_construction_order():
    one = Graph([(1, 2), (2, 3)])
    other = Graph([(3, 2), (2, 1)])  # same graph, different insertion order
    assert canonicalize(one) == canonicalize(other)
    assert fingerprint(one) == fingerprint(other)


def test_canonicalize_digraph_keeps_direction():
    forward = DiGraph([("a", "b")])
    backward = DiGraph([("b", "a")])
    assert canonicalize(forward) != canonicalize(backward)


def test_canonicalize_sets_and_dicts_are_order_free():
    assert canonicalize({3, 1, 2}) == canonicalize({2, 3, 1})
    assert fingerprint({"b": 1, "a": {2, 1}}) == fingerprint({"a": {1, 2}, "b": 1})


def test_canonicalize_floats_keep_full_precision():
    assert canonicalize(0.1 + 0.2) != canonicalize(0.3)


# -- registry and checker -----------------------------------------------------


def test_unknown_pipeline_raises():
    with pytest.raises(KeyError, match="unknown pipeline"):
        check_pipeline("no.such.pipeline")


def test_check_needs_two_runs():
    with pytest.raises(ValueError):
        check_pipeline("sampling.random_walk", runs=1)


def test_registry_covers_every_stochastic_package():
    packages = {name.split(".")[0] for name in PIPELINES}
    assert {"sampling", "nullmodel", "detection", "synth"} <= packages
    assert set(FAST_PIPELINES) <= set(PIPELINES)


@pytest.mark.parametrize(
    "name",
    [
        "sampling.random_walk",
        "nullmodel.viger_latapy",
        "nullmodel.double_edge_swap",
        "detection.louvain",
        "detection.label_propagation",
        "synth.erdos_renyi",
    ],
)
def test_pipeline_is_deterministic(name):
    report = check_pipeline(name, seed=11, runs=2)
    assert report.identical, report.first_divergence
    assert report.fingerprint


def test_different_seeds_give_different_fingerprints():
    """Every registered pipeline reads its seed: seeds 0, 1 and 2 do not
    all give the same output.  Two fixed seeds may agree (Louvain and
    label propagation often find the same partition), so only all three
    agreeing fails."""
    seed_blind = [
        name
        for name in sorted(PIPELINES)
        if len({fingerprint(PIPELINES[name](seed)) for seed in (0, 1, 2)}) == 1
    ]
    assert seed_blind == []


def test_nondeterministic_pipeline_is_caught():
    name = "test.deliberately_unseeded"
    register_pipeline(name, lambda seed: [random.random()], fast=False)
    try:
        report = check_pipeline(name, seed=0)
        assert not report.identical
        assert report.first_divergence is not None
        assert "divergence" in report.first_divergence
    finally:
        PIPELINES.pop(name)


def test_stateful_pipeline_is_caught():
    """Shared mutable state across runs is the other classic failure."""
    name = "test.stateful"
    accumulator: list[int] = []

    def stateful(seed: int) -> object:
        accumulator.append(seed)
        return list(accumulator)

    register_pipeline(name, stateful, fast=False)
    try:
        report = check_pipeline(name, seed=0)
        assert not report.identical
    finally:
        PIPELINES.pop(name)


def test_check_all_subset():
    reports = check_all(["sampling.random_walk", "detection.louvain"], seed=5)
    assert [r.pipeline for r in reports] == [
        "sampling.random_walk",
        "detection.louvain",
    ]
    assert all(r.identical for r in reports)


def test_main_passes_on_fast_pipelines(capsys):
    assert main(["--fast"]) == 0
    output = capsys.readouterr().out
    assert "PASS" in output and "FAIL" not in output


def test_main_named_pipeline(capsys):
    assert main(["synth.erdos_renyi"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_main_unknown_pipeline(capsys):
    assert main(["bogus.pipeline"]) == 2
    assert "unknown pipeline" in capsys.readouterr().err


def test_main_list(capsys):
    assert main(["--list"]) == 0
    assert "sampling.random_walk" in capsys.readouterr().out


def test_main_fails_on_diverging_pipeline(capsys):
    name = "test.cli_unseeded"
    register_pipeline(name, lambda seed: [random.random()], fast=False)
    try:
        assert main([name]) == 1
        assert "FAIL" in capsys.readouterr().out
    finally:
        PIPELINES.pop(name)


def test_report_format_mentions_pipeline():
    report = check_pipeline("synth.erdos_renyi", seed=3)
    line = report.format()
    assert "synth.erdos_renyi" in line and "PASS" in line
