"""Regression test for the hash-order sampling bug.

``random_walk_set`` (and the BFS/forest-fire samplers) used to draw from
``list(<set>)``, whose order for string-labelled nodes depends on
``PYTHONHASHSEED`` — so two runs of the *same seeded pipeline* in two
interpreters produced different vertex sets; Louvain and label
propagation broke ties the same way.  They now order candidate sets
with :func:`repro.graph.convert.stable_sorted` before consuming
randomness; this test proves the property end to end by fingerprinting
every fast registered pipeline in subprocesses under different hash
seeds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.determinism import FAST_PIPELINES
from repro.graph.convert import stable_sorted

_SCRIPT = """
from repro.devtools.determinism import FAST_PIPELINES, PIPELINES, fingerprint

for name in FAST_PIPELINES:
    print(name, fingerprint(PIPELINES[name](3)))
"""


def _run_with_hash_seed(hash_seed: str) -> str:
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(root / "src")
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return result.stdout


@pytest.mark.parametrize("other_seed", ["1", "2"])
def test_samplers_stable_across_hash_seeds(other_seed):
    """Same pipeline seed => same output, regardless of PYTHONHASHSEED.

    Every fast registered pipeline runs, on a string-labelled graph where
    raw set iteration order is hash-randomized — exactly the condition
    under which the old samplers and detectors leaked order dependence
    into their output.
    """
    reference = _run_with_hash_seed("0")
    assert [line.split()[0] for line in reference.splitlines()] == FAST_PIPELINES
    assert reference == _run_with_hash_seed(other_seed)


def test_stable_sorted_orders_homogeneous_nodes():
    assert stable_sorted({3, 1, 2}) == [1, 2, 3]
    assert stable_sorted(frozenset({"b", "a"})) == ["a", "b"]


def test_stable_sorted_handles_unorderable_mixtures():
    result = stable_sorted({1, "a", (2, 3)})
    assert sorted(map(repr, result)) == [repr(item) for item in result]
