"""Custom AST lint pass with repo-specific correctness rules.

The generic linters the ecosystem ships cannot know that this codebase
(a) must be seed-reproducible end to end, (b) owns a hand-rolled graph
substrate whose private adjacency dicts may only be *mutated* inside
:mod:`repro.graph`, and (c) reproduces the paper's scores, which float
equality would make fragile.  This module encodes those rules: the
stateless per-statement family (REP001–REP006) and the documentation
rule (REP301).  Every rule sees one statement tree of one file at a
time; hazards that need data flow or cross files are guarded by runtime
checks and tests instead (the evidence table in ``docs/LINTING.md``).

Usage::

    python -m repro.devtools.lint src/            # lint a tree
    repro lint src/                               # same, via the CLI
    repro lint --explain REP001                   # rule rationale
    repro lint src --format sarif --output lint.sarif

Every rule is a class with a stable id (``REP001`` …), a one-line
``summary``, and a docstring explaining the rationale.  Violations can be
suppressed per line with ``# repro: noqa[REP001]`` (several ids comma
separated) or blanket ``# repro: noqa``; unknown ids inside a noqa are
themselves diagnosed as ``REP000``.  Project-wide configuration lives in
``pyproject.toml`` under ``[tool.repro.lint]``:

.. code-block:: toml

    [tool.repro.lint]
    select = ["REP001", "REP002"]   # default: every rule
    ignore = ["REP004"]

    [tool.repro.lint.per-path-ignores]
    "src/repro/graph/*" = ["REP002"]

The linter exits non-zero when any unsuppressed violation remains, so it
can gate PRs (see ``scripts/check.sh``).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import difflib
import fnmatch
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools._base import FileContext, Rule, Violation
from repro.devtools.report import FORMATS, render

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
    tomllib = None  # type: ignore[assignment]

__all__ = [
    "Violation",
    "FileContext",
    "LintConfig",
    "Rule",
    "UnseededRandomRule",
    "GraphPrivateMutationRule",
    "MutateWhileIterateRule",
    "FloatEqualityRule",
    "MissingAllRule",
    "BroadExceptRule",
    "DocstringCoverageRule",
    "ALL_RULES",
    "lint_source",
    "lint_paths",
    "main",
]

#: ``random``-module functions that draw from (or reset) global state.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` attributes that do *not* touch the legacy global state.
_SAFE_NUMPY_RANDOM = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)

#: Private adjacency attributes owned by :mod:`repro.graph`.
_PRIVATE_ADJ = frozenset({"_adj", "_succ", "_pred"})

#: Method names that mutate a set / dict in place.
_CONTAINER_MUTATORS = frozenset(
    {
        "add",
        "append",
        "clear",
        "difference_update",
        "discard",
        "extend",
        "insert",
        "intersection_update",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "symmetric_difference_update",
        "update",
    }
)

#: Graph methods that mutate structure.
_GRAPH_MUTATORS = frozenset(
    {
        "add_node",
        "add_nodes_from",
        "add_edge",
        "add_edges_from",
        "remove_node",
        "remove_edge",
    }
)

#: Callables that materialize an iterable into an independent container.
_MATERIALIZERS = frozenset({"list", "set", "sorted", "tuple", "frozenset", "dict"})

#: Tolerates whitespace before the bracket (``# repro:noqa [REP001]``);
#: bracket contents are parsed and *validated*, never silently trusted.
_NOQA = re.compile(r"#\s*repro:\s*noqa\s*(?:\[(?P<rules>[^\]]*)\])?")


def _collect_random_aliases(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """Names bound to the ``random`` module, ``numpy``, and state functions
    imported directly from ``random`` (``from random import shuffle``)."""
    random_aliases: set[str] = set()
    numpy_aliases: set[str] = set()
    from_random: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or "random")
                elif alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.random" and alias.asname:
                    # ``import numpy.random as npr`` — treat as the module.
                    random_aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name in _GLOBAL_RANDOM_FUNCS:
                    from_random.add(alias.asname or alias.name)
    return random_aliases, numpy_aliases, from_random


class UnseededRandomRule(Rule):
    """No module-level RNG state and no unseeded global ``random`` calls.

    Stochastic pipelines must thread an explicit ``random.Random(seed)``
    or ``numpy.random.default_rng(seed)``; calls like ``random.shuffle``
    or ``np.random.rand`` draw from hidden global state and silently
    break seed-reproducibility of every experiment that imports the
    module.  Module-level RNG instances are shared mutable state and are
    equally forbidden in library code.
    """

    id = "REP001"
    summary = "unseeded / global randomness in library code"
    example_bad = "random.shuffle(nodes)\n"
    example_good = "rng = random.Random(seed)\nrng.shuffle(nodes)\n"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        random_aliases, numpy_aliases, from_random = _collect_random_aliases(tree)
        module_level = {id(stmt) for stmt in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(
                    node, ctx, random_aliases, numpy_aliases, from_random
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and id(
                node
            ) in module_level:
                value = node.value
                if value is not None and self._is_rng_constructor(
                    value, random_aliases, numpy_aliases
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "module-level RNG instance; construct the RNG inside "
                        "the function that uses it and thread a seed",
                    )

    def _check_call(
        self,
        node: ast.Call,
        ctx: FileContext,
        random_aliases: set[str],
        numpy_aliases: set[str],
        from_random: set[str],
    ) -> Iterator[Violation]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in from_random:
            yield self.violation(
                ctx,
                node,
                f"call to global-state random.{func.id}(); "
                "use a local random.Random(seed) instead",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        # random.<fn>() on the global module.
        if isinstance(value, ast.Name) and value.id in random_aliases:
            if func.attr in _GLOBAL_RANDOM_FUNCS:
                yield self.violation(
                    ctx,
                    node,
                    f"call to global-state random.{func.attr}(); "
                    "use a local random.Random(seed) instead",
                )
            elif func.attr == "Random" and not node.args and not node.keywords:
                yield self.violation(
                    ctx,
                    node,
                    "random.Random() without a seed argument is "
                    "OS-seeded and not reproducible",
                )
        # np.random.<fn>() on the legacy global generator.
        elif (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in numpy_aliases
            and func.attr not in _SAFE_NUMPY_RANDOM
        ):
            yield self.violation(
                ctx,
                node,
                f"call to numpy legacy global numpy.random.{func.attr}(); "
                "use numpy.random.default_rng(seed)",
            )

    @staticmethod
    def _is_rng_constructor(
        value: ast.expr, random_aliases: set[str], numpy_aliases: set[str]
    ) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "Random"
            and isinstance(func.value, ast.Name)
            and func.value.id in random_aliases
        ):
            return True
        if isinstance(func, ast.Attribute) and func.attr == "default_rng":
            inner = func.value
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr == "random"
                and isinstance(inner.value, ast.Name)
                and inner.value.id in numpy_aliases
            ):
                return True
        return False


def _contains_private_adj(node: ast.expr) -> ast.Attribute | None:
    """Return the first ``._adj`` / ``._succ`` / ``._pred`` attribute access
    inside ``node``, or None."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _PRIVATE_ADJ:
            return sub
    return None


class GraphPrivateMutationRule(Rule):
    """No mutation of the graph substrate's private adjacency outside
    :mod:`repro.graph`.

    ``Graph._adj`` / ``DiGraph._succ`` / ``DiGraph._pred`` keep the edge
    count (``_num_edges``) consistent only when mutated through the
    public API.  Reading them is an accepted fast path for kernels;
    writing them from outside the graph package corrupts edge accounting
    invisibly.  The graph package itself is exempted via the
    ``per-path-ignores`` table in ``pyproject.toml``.
    """

    id = "REP002"
    summary = "mutation of Graph._adj/_succ/_pred outside repro.graph"
    example_bad = "g._adj[u][v] = w\n"
    example_good = "g.add_edge(u, v, weight=w)\n"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, (ast.Assign, ast.Delete))
                    else [node.target]
                )
                for target in targets:
                    hit = _contains_private_adj(target)
                    if hit is not None:
                        yield self.violation(
                            ctx,
                            node,
                            f"assignment into private adjacency "
                            f"'.{hit.attr}'; use the public graph API",
                        )
                        break
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _CONTAINER_MUTATORS:
                    hit = _contains_private_adj(node.func.value)
                    if hit is not None:
                        yield self.violation(
                            ctx,
                            node,
                            f"in-place mutation of private adjacency "
                            f"'.{hit.attr}.{node.func.attr}()'; "
                            "use the public graph API",
                        )


def _iteration_base_name(iter_expr: ast.expr) -> str | None:
    """Name of the object a ``for`` loop iterates live, or None.

    ``for v in g`` / ``for e in g.edges`` / ``for n, nb in g.adjacency()``
    all iterate graph state live and return ``"g"``; anything routed
    through a materializer (``list(g.edges)``) or an unrelated expression
    returns None.
    """
    expr = iter_expr
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in _MATERIALIZERS:
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return func.value.id
        return None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        return expr.value.id
    if isinstance(expr, ast.Name):
        return expr.id
    return None


class MutateWhileIterateRule(Rule):
    """No structural mutation of a graph that is being iterated.

    Iterating ``g`` (or a live view such as ``g.edges`` /
    ``g.adjacency()``) while calling ``g.add_edge`` / ``g.remove_node``
    inside the loop body either raises ``RuntimeError`` mid-run or —
    worse — silently skips elements.  Materialize first:
    ``for u, v in list(g.edges): ...``.
    """

    id = "REP003"
    summary = "graph mutated while being iterated"
    example_bad = "for u, v in g.edges:\n    g.remove_edge(u, v)\n"
    example_good = "for u, v in list(g.edges):\n    g.remove_edge(u, v)\n"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            base = _iteration_base_name(node.iter)
            if base is None:
                continue
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _GRAPH_MUTATORS
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == base
                ):
                    yield self.violation(
                        ctx,
                        sub,
                        f"'{base}.{sub.func.attr}()' mutates '{base}' while "
                        f"it is being iterated (line {node.lineno}); "
                        "materialize the iterable first",
                    )


def _involves_float(expr: ast.expr) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "float"
        ):
            return True
    return False


class FloatEqualityRule(Rule):
    """No ``==`` / ``!=`` against floats in the scoring layer.

    The scoring functions reproduce the paper's Fig. 5/6 numbers;
    comparing computed scores with ``==`` against float constants is
    almost always a rounding bug waiting to happen.  Use
    ``math.isclose`` or an explicit tolerance.  The rule only applies
    under ``repro/scoring/`` — elsewhere float equality is occasionally
    legitimate (e.g. sentinel defaults).
    """

    id = "REP004"
    summary = "float == / != comparison in repro/scoring"
    example_bad = "if conductance == 0.5: ...\n"
    example_good = "if math.isclose(conductance, 0.5): ...\n"

    #: Only files with one of these path components are checked.
    path_filter: tuple[str, ...] = ("scoring",)

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        if not any(part in ctx.path_parts for part in self.path_filter):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(_involves_float(operand) for operand in operands):
                yield self.violation(
                    ctx,
                    node,
                    "float equality comparison in scoring code; "
                    "use math.isclose or an explicit tolerance",
                )


class MissingAllRule(Rule):
    """Every public module defines ``__all__``.

    ``__all__`` is the contract between a module and ``from m import *``
    as well as the public-API test-suite; a module without it silently
    leaks helpers.  ``__main__.py`` entry points are exempt (they are
    executed, never imported as API).
    """

    id = "REP005"
    summary = "public module without __all__"
    example_bad = '"""Module docstring."""\n\ndef helper(): ...\n'
    example_good = '"""Module docstring."""\n\n__all__ = ["helper"]\n'

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        name = ctx.module_basename
        if name == "__main__.py":
            return
        if name.startswith("_") and name != "__init__.py":
            return
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                return
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__all__"
            ):
                return
        anchor = tree.body[0] if tree.body else tree
        yield self.violation(
            ctx, anchor, "public module does not define __all__"
        )


class BroadExceptRule(Rule):
    """No bare ``except:`` and no ``except Exception:`` in library code.

    Broad handlers swallow :class:`KeyboardInterrupt` (bare form) or mask
    substrate bugs as recoverable conditions.  Catch the specific
    :mod:`repro.exceptions` class, or let the error propagate.
    """

    id = "REP006"
    summary = "bare or overly broad except clause"
    example_bad = "try:\n    score(g)\nexcept Exception:\n    pass\n"
    example_good = "try:\n    score(g)\nexcept GraphError:\n    raise\n"

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.violation(
                    ctx, node, "bare 'except:'; name the exception class"
                )
                continue
            exprs = (
                list(node.type.elts)
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for expr in exprs:
                if isinstance(expr, ast.Name) and expr.id in self._BROAD:
                    yield self.violation(
                        ctx,
                        node,
                        f"'except {expr.id}:' is too broad; catch the "
                        "specific repro.exceptions class",
                    )
                    break


class DocstringCoverageRule(Rule):
    """Every public function and class of the instrumented packages
    (:mod:`repro.obs`, :mod:`repro.engine`) has an imperative-summary
    docstring.

    The observability surface is consumed by people debugging *other*
    layers — a span name or metric helper without a docstring forces them
    to reverse-engineer the instrumentation itself.  The first line must
    read as an imperative summary ("Return …", "Record …"), matching the
    house style; openers like "This function returns …" or "Returns …"
    are flagged.  Private names (leading underscore), private modules and
    nested helpers are exempt.
    """

    id = "REP301"
    summary = "public obs/engine API without imperative-summary docstring"
    example_bad = (
        'def freeze(graph):\n'
        '    """This function freezes the graph."""\n'
    )
    example_good = (
        'def freeze(graph):\n'
        '    """Freeze the graph into CSR form."""\n'
    )

    #: Only files with one of these path components are checked.
    path_filter: tuple[str, ...] = ("obs", "engine")

    #: First words that mark a descriptive (non-imperative) opening.
    _WEAK_OPENERS = frozenset(
        {
            "a",
            "an",
            "are",
            "builds",
            "computes",
            "contains",
            "creates",
            "does",
            "gets",
            "has",
            "holds",
            "implements",
            "is",
            "it",
            "makes",
            "provides",
            "represents",
            "returns",
            "sets",
            "the",
            "these",
            "this",
            "wraps",
        }
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        name = ctx.module_basename
        if name.startswith("_") and name != "__init__.py":
            return
        if not any(part in ctx.path_parts for part in self.path_filter):
            return
        yield from self._check_body(tree.body, ctx, qualname=())

    def _check_body(
        self,
        body: Sequence[ast.stmt],
        ctx: FileContext,
        qualname: tuple[str, ...],
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not stmt.name.startswith("_"):
                    yield from self._check_docstring(
                        stmt, ctx, qualname, kind="function"
                    )
            elif isinstance(stmt, ast.ClassDef):
                if stmt.name.startswith("_"):
                    continue
                yield from self._check_docstring(
                    stmt, ctx, qualname, kind="class"
                )
                yield from self._check_body(
                    stmt.body, ctx, (*qualname, stmt.name)
                )

    def _check_docstring(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
        ctx: FileContext,
        qualname: tuple[str, ...],
        kind: str,
    ) -> Iterator[Violation]:
        name = ".".join((*qualname, node.name))
        doc = ast.get_docstring(node)
        if not doc or not doc.strip():
            yield self.violation(
                ctx, node, f"public {kind} '{name}' has no docstring"
            )
            return
        first_line = doc.strip().splitlines()[0].strip()
        match = re.match(r"[A-Za-z]+", first_line)
        first_word = match.group(0).lower() if match else ""
        if not first_word or first_word in self._WEAK_OPENERS:
            yield self.violation(
                ctx,
                node,
                f"docstring of {kind} '{name}' opens with "
                f"{first_word or first_line[:20]!r}; start with an "
                "imperative summary (e.g. 'Return ...', 'Record ...')",
            )


ALL_RULES: tuple[type[Rule], ...] = (
    UnseededRandomRule,
    GraphPrivateMutationRule,
    MutateWhileIterateRule,
    FloatEqualityRule,
    MissingAllRule,
    BroadExceptRule,
    DocstringCoverageRule,
)

_KNOWN_RULE_IDS = frozenset(rule.id for rule in ALL_RULES)


@dataclass(frozen=True)
class LintConfig:
    """Effective linter configuration (``[tool.repro.lint]``)."""

    select: tuple[str, ...] = tuple(rule.id for rule in ALL_RULES)
    ignore: tuple[str, ...] = ()
    per_path_ignores: dict[str, tuple[str, ...]] = field(default_factory=dict)
    root: Path | None = None

    @classmethod
    def load(cls, start: Path | None = None) -> "LintConfig":
        """Load configuration from the nearest ``pyproject.toml``.

        Walks up from ``start`` (default: cwd).  A missing file or table
        yields defaults; a present ``[tool.repro.lint]`` table on a
        Python without :mod:`tomllib` yields defaults *with a stderr
        warning* — silently ignoring explicit config is worse than noise.
        """
        here = (start or Path.cwd()).resolve()
        if here.is_file():
            here = here.parent
        for candidate in (here, *here.parents):
            pyproject = candidate / "pyproject.toml"
            if pyproject.is_file():
                return cls.from_pyproject(pyproject)
        return cls()

    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "LintConfig":
        if tomllib is None:
            _warn_tomllib_missing(pyproject)
            return cls(root=pyproject.parent)
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
        table = data.get("tool", {}).get("repro", {}).get("lint", {})
        known = tuple(rule.id for rule in ALL_RULES)
        select = tuple(table.get("select", known))
        ignore = tuple(table.get("ignore", ()))
        per_path = {
            pattern: tuple(rules)
            for pattern, rules in table.get("per-path-ignores", {}).items()
        }
        return cls(
            select=select,
            ignore=ignore,
            per_path_ignores=per_path,
            root=pyproject.parent,
        )

    def active_rules(self) -> list[Rule]:
        """Instantiate the enabled rules, honouring select/ignore."""
        chosen = set(self.select) - set(self.ignore)
        return [rule() for rule in ALL_RULES if rule.id in chosen]

    def path_ignored_rules(self, path: str) -> set[str]:
        """Rule ids suppressed for ``path`` by ``per-path-ignores``."""
        candidates = {Path(path).as_posix()}
        if self.root is not None:
            try:
                candidates.add(
                    Path(path).resolve().relative_to(self.root.resolve()).as_posix()
                )
            except ValueError:
                pass
        ignored: set[str] = set()
        for pattern, rules in self.per_path_ignores.items():
            if any(
                fnmatch.fnmatch(candidate, pattern) for candidate in candidates
            ):
                ignored.update(rules)
        return ignored


def _warn_tomllib_missing(pyproject: Path) -> None:
    """Warn (once per process) when explicit lint config cannot be read."""
    try:
        text = pyproject.read_text(encoding="utf-8")
    except OSError:  # pragma: no cover - racing filesystem
        return
    if "[tool.repro.lint" in text:
        print(
            f"warning: {pyproject} has a [tool.repro.lint] table but this "
            "Python lacks tomllib (needs >= 3.11); falling back to default "
            "lint configuration",
            file=sys.stderr,
        )


def _suppressed(lines: Sequence[str], lineno: int, rule_id: str) -> bool:
    """Whether the physical line carries a matching ``# repro: noqa``."""
    if not 1 <= lineno <= len(lines):
        return False
    match = _NOQA.search(lines[lineno - 1])
    if match is None:
        return False
    listed = match.group("rules")
    if listed is None:
        return True  # blanket ``# repro: noqa``
    rules = {item.strip() for item in listed.split(",") if item.strip()}
    return rule_id in rules


def _check_noqa_ids(lines: Sequence[str], path: str) -> list[Violation]:
    """REP000 diagnostics for unknown rule ids inside noqa comments.

    A typo'd id (``noqa[REP001x]``) would otherwise read as a *working*
    suppression to a human while suppressing nothing — or,
    worse, a stale id keeps riding along forever.  These diagnostics are
    never themselves suppressible.
    """
    violations: list[Violation] = []
    for lineno, line in enumerate(lines, start=1):
        match = _NOQA.search(line)
        if match is None or match.group("rules") is None:
            continue
        listed = [
            item.strip()
            for item in match.group("rules").split(",")
            if item.strip()
        ]
        for rule_id in listed:
            if rule_id not in _KNOWN_RULE_IDS:
                violations.append(
                    Violation(
                        rule_id="REP000",
                        message=(
                            f"unknown rule id '{rule_id}' in noqa comment "
                            "(see --list-rules)"
                        ),
                        path=path,
                        line=lineno,
                        col=match.start(),
                    )
                )
    return violations


def lint_source(
    source: str, path: str, config: LintConfig | None = None
) -> list[Violation]:
    """Lint one source string; returns the unsuppressed violations."""
    config = config if config is not None else LintConfig()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Violation(
                rule_id="REP000",
                message=f"syntax error: {error.msg}",
                path=path,
                line=error.lineno or 1,
                col=error.offset or 0,
            )
        ]
    lines = tuple(source.splitlines())
    ctx = FileContext(path=path)
    path_ignored = config.path_ignored_rules(path)
    violations: list[Violation] = _check_noqa_ids(lines, path)
    for rule in config.active_rules():
        if rule.id in path_ignored:
            continue
        for violation in rule.check(tree, ctx):
            if not _suppressed(lines, violation.line, violation.rule_id):
                violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``.py`` files."""
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(
    paths: Iterable[str | Path], config: LintConfig | None = None
) -> list[Violation]:
    """Lint every ``.py`` file under ``paths``, in sorted file order."""
    from repro import obs
    from repro.obs import instruments

    config = config if config is not None else LintConfig()
    with obs.span("lint.run"):
        files = [str(path) for path in iter_python_files(paths)]
        violations: list[Violation] = []
        for path in files:
            source = Path(path).read_text(encoding="utf-8")
            violations.extend(lint_source(source, path, config))
        instruments.LINT_FILES.inc(len(files))
        instruments.LINT_VIOLATIONS.inc(len(violations))
    return violations


def _print_rule_catalogue() -> None:
    for rule in ALL_RULES:
        doc = (rule.__doc__ or "").strip().splitlines()[0]
        print(f"{rule.id}  {rule.summary}")
        print(f"        {doc}")


def _print_one_explanation(rule: type[Rule]) -> None:
    print(f"{rule.id} — {rule.summary}")
    print()
    doc = (rule.__doc__ or "").strip()
    for line in doc.splitlines():
        print(line.strip() if line.strip() else "")
    if rule.example_bad:
        print()
        print("Bad:")
        for line in rule.example_bad.rstrip("\n").splitlines():
            print(f"    {line}")
    if rule.example_good:
        print()
        print("Good:")
        for line in rule.example_good.rstrip("\n").splitlines():
            print(f"    {line}")


def _explain_rule(rule_id: str) -> int:
    """Print one rule's rationale, or all of them for ``--explain all``."""
    if rule_id.lower() == "all":
        for index, rule in enumerate(
            sorted(ALL_RULES, key=lambda rule: rule.id)
        ):
            if index:
                print()
                print("-" * 72)
                print()
            _print_one_explanation(rule)
        return 0
    for rule in ALL_RULES:
        if rule.id == rule_id:
            _print_one_explanation(rule)
            return 0
    hints = difflib.get_close_matches(
        rule_id, sorted(_KNOWN_RULE_IDS), n=3, cutoff=0.6
    )
    suggestion = f"; did you mean {', '.join(hints)}?" if hints else ""
    print(
        f"error: unknown rule id {rule_id!r}{suggestion} (see --list-rules)",
        file=sys.stderr,
    )
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.devtools.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro.devtools.lint",
        description="Repo-specific AST lint pass (rule ids: --list-rules)",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or dirs")
    parser.add_argument(
        "--select", help="comma-separated rule ids to enable (overrides config)"
    )
    parser.add_argument(
        "--ignore", help="comma-separated rule ids to disable (overrides config)"
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="skip pyproject.toml discovery; run with built-in defaults",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "--explain",
        metavar="REPxxx",
        help=(
            "print one rule's rationale with a bad/good example pair "
            "('all' prints the whole catalogue in id order)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rule_catalogue()
        return 0
    if args.explain:
        return _explain_rule(args.explain.strip())
    if args.no_config:
        config = LintConfig()
    else:
        first = Path(args.paths[0]) if args.paths else Path.cwd()
        config = LintConfig.load(first.resolve())
    if args.select:
        config = dataclasses.replace(
            config,
            select=tuple(
                s.strip() for s in args.select.split(",") if s.strip()
            ),
        )
    if args.ignore:
        config = dataclasses.replace(
            config,
            ignore=tuple(
                s.strip() for s in args.ignore.split(",") if s.strip()
            ),
        )
    missing = [entry for entry in args.paths if not Path(entry).exists()]
    if missing:
        for entry in missing:
            print(f"error: no such file or directory: {entry}", file=sys.stderr)
        return 2

    violations = lint_paths(args.paths, config)
    document = render(violations, args.format, rules=config.active_rules())
    if args.output:
        Path(args.output).write_text(document, encoding="utf-8")
        if violations:
            print(
                f"{len(violations)} violation(s) found (report: {args.output})"
            )
    else:
        sys.stdout.write(document)
        if violations and args.format == "text":
            print(f"{len(violations)} violation(s) found")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
