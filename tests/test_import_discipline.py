"""Import discipline: scipy loads only for degree fitting.

``repro.powerlaw`` pulls in scipy, which costs about a second per
process.  Only degree fitting (``repro degree-fit``, ``characterize``)
needs it, so ``import repro``, the CLI, the service and the ``score`` and
``delta`` commands over a frozen store must never load it.  ``repro
score`` also stays clear of ``numpy.ma``, which ``np.median`` and
``np.unique`` import lazily (about 15 ms).  Each check runs in a fresh
interpreter, because this test process may already hold those modules.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import characterize
from repro.cli import main

SRC = Path(repro.__file__).resolve().parent.parent

#: Appended to every probe: fail if a heavy module was imported.
_ASSERT_LIGHT = """
import sys
heavy = sorted(
    name for name in sys.modules
    if name == "repro.powerlaw" or name.split(".")[0] == "scipy"
)
assert not heavy, heavy[:5]
"""


def _run_probe(code: str) -> None:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    completed = subprocess.run(
        [sys.executable, "-c", code + _ASSERT_LIGHT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory) -> Path:
    store = tmp_path_factory.mktemp("discipline") / "store"
    assert main(["--seed", "3", "freeze", "--scale", "3000", "-o", str(store)]) == 0
    return store


@pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.service"])
def test_import_does_not_load_scipy(module):
    _run_probe(f"import {module}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--mmap-dir", "{store}", "--no-cache"],
        ["delta", "--mmap-dir", "{store}", "--drop-edges", "4"],
    ],
    ids=["score", "delta"],
)
def test_store_commands_do_not_load_scipy(tiny_store, argv):
    args = [arg.format(store=tiny_store) for arg in argv]
    _run_probe(f"import repro.cli\nassert repro.cli.main({args!r}) == 0\n")


def test_score_does_not_load_numpy_ma(tiny_store):
    args = ["score", "--mmap-dir", str(tiny_store), "--no-cache"]
    _run_probe(
        "import sys\nimport repro.cli\n"
        f"assert repro.cli.main({args!r}) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )


def test_lazy_exports_still_resolve():
    from repro.powerlaw import best_fit, fit_tail

    assert repro.best_fit is best_fit
    assert repro.fit_tail is fit_tail
    assert {"best_fit", "fit_tail"} <= set(dir(repro))
    with pytest.raises(AttributeError):
        repro.no_such_export  # noqa: B018


def test_characterize_still_fits_degrees(two_cliques_graph):
    result = characterize(two_cliques_graph, asp_sample_sources=None)
    assert result.degree_fit is not None
    assert result.degree_distribution == result.degree_fit.best
