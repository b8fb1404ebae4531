"""Import discipline: each command loads only the modules its path runs.

``repro.powerlaw`` pulls in scipy, which costs about a second per
process.  Only degree fitting (``repro degree-fit``, ``characterize``)
needs it, so ``import repro``, the CLI, the service and the ``score`` and
``delta`` commands over a frozen store must never load it.  ``repro
score`` also stays clear of ``numpy.ma``, which ``np.median`` and
``np.unique`` import lazily (about 15 ms).

The rule is general: package ``__init__``s resolve their exports on
first access (``repro._lazy``), the CLI imports each command's drivers
inside its handler, and a cold ``repro score --mmap-dir`` loads neither
the other commands' analysis code, the generators, detection, the null
models nor the process-pool machinery.  Each module-set check runs in
a fresh interpreter, because this test process may already hold those
modules.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
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


def _run_probe(code: str, *, light: bool = True) -> None:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    completed = subprocess.run(
        [sys.executable, "-c", code + (_ASSERT_LIGHT if light else "")],
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


def test_import_repro_loads_only_the_lazy_helper():
    _run_probe(
        "import sys\nimport repro\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "assert loaded == ['repro._lazy'], loaded\n"
    )


def test_cli_import_loads_no_generator():
    _run_probe(
        "import sys\nimport repro.cli\n"
        "synth = [m for m in sys.modules if m.startswith('repro.synth')]\n"
        "assert not synth, synth\n"
    )


def test_score_loads_only_its_path(tiny_store):
    args = ["score", "--mmap-dir", str(tiny_store), "--no-cache"]
    _run_probe(
        "import sys\nimport repro.cli\n"
        f"assert repro.cli.main({args!r}) == 0\n"
        "loaded = set(sys.modules)\n"
        "kept = {'repro.analysis', 'repro.analysis.report', 'repro.analysis.cdf'}\n"
        "analysis = {m for m in loaded if m.startswith('repro.analysis')}\n"
        "assert analysis <= kept, sorted(analysis - kept)\n"
        "for package in ('repro.synth', 'repro.detection', 'repro.nullmodel',\n"
        "                'repro.algorithms', 'repro.service'):\n"
        "    extra = [m for m in loaded if m.split('.')[:2] == package.split('.')]\n"
        "    assert not extra, extra\n"
        "pools = {'multiprocessing', 'concurrent.futures'} & loaded\n"
        "assert not pools, pools\n"
    )


#: Every package of the library, lazy or not.
PACKAGES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
) + ["repro"]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve(package):
    """Each ``__all__`` name is listed by ``dir()`` and resolves to the
    object its defining module holds; a lazy package's map names the
    defining module of each class and function."""
    module = importlib.import_module(package)
    exports = getattr(module, "_EXPORTS", {})
    assert set(exports) <= set(module.__all__)
    for name in module.__all__:
        if importlib.util.find_spec(f"{package}.{name}") is not None:
            importlib.import_module(f"{package}.{name}")  # a submodule
        assert name in dir(module), name
        value = getattr(module, name)
        if name in exports:
            home = importlib.import_module(exports[name])
            assert value is getattr(home, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == exports[name], name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_from_a_fresh_interpreter(package):
    _run_probe(
        f"import {package} as package\n"
        "namespace = {}\n"
        f"exec('from {package} import *', namespace)\n"
        "missing = set(package.__all__) - set(namespace)\n"
        "assert not missing, sorted(missing)\n",
        # ``repro`` exports the degree fitters, which import scipy.
        light=package not in ("repro", "repro.powerlaw"),
    )


def _imported_modules(node: ast.AST, package: str) -> list[str]:
    """Absolute names of the modules an import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = importlib.util.resolve_name(
        "." * node.level + (node.module or ""), package
    )
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def test_library_never_imports_devtools():
    """The tooling depends on the library, never the reverse: no module
    outside ``repro/devtools/``, lazily or not, imports ``repro.devtools``."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if "devtools" in parts:
            continue
        package = ".".join(parts[:-1])  # what a relative import resolves in
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = _imported_modules(node, package)
            if any(
                name == "repro.devtools" or name.startswith("repro.devtools.")
                for name in names
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_subpackages_resolve_as_attributes():
    _run_probe(
        "import repro\n"
        "assert repro.obs.current_tracer() is None\n"
        "assert repro.engine.AnalysisContext.__name__ == 'AnalysisContext'\n"
        "from repro.engine import delta\n"
        "assert delta.ContextDelta is repro.engine.ContextDelta\n"
    )


def test_batch_builds_members_on_first_read(small_digraph, two_cliques_graph):
    """The stats pass keeps ids; ``members`` is built when first read,
    equal to the oracle's, for labelled and identity-labelled graphs."""
    from oracles.stats import compute_group_stats
    from repro.engine import AnalysisContext, batch_group_stats_columns

    cases = [
        (small_digraph, [["b", "a", "a"], ["d", "c"], ["a", "b", "c", "d"]]),
        (two_cliques_graph, [[3, 1, 2, 0], [4, 7], [7, 3]]),
    ]
    for graph, groups in cases:
        batch = batch_group_stats_columns(AnalysisContext(graph), groups)
        assert "members" not in vars(batch)
        want = tuple(compute_group_stats(graph, g).members for g in groups)
        assert batch.members == want
        assert batch.members is batch.members
        assert batch.members[1] == want[1]


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
