"""Custom AST lint pass with repo-specific correctness rules.

The generic linters the ecosystem ships cannot know that this codebase
must be seed-reproducible end to end and owns a hand-rolled graph
substrate whose private adjacency dicts may only be *mutated* inside
:mod:`repro.graph`.  This module encodes the four per-statement rules
that protect those contracts: REP001 (seed hygiene), REP002 (substrate
ownership), REP003 (iteration safety) and REP006 (swallowed errors).
Every rule sees one statement tree of one file at a time; hazards that
need data flow or cross files are guarded by runtime checks and tests
instead (the evidence table in ``docs/LINTING.md``).

Usage::

    python -m repro.devtools.lint src/            # lint a tree
    python -m repro.devtools.lint --list-rules    # the rule catalogue
    python -m repro.devtools.lint src --format sarif --output lint.sarif

Every rule is a class with a stable id (``REP001`` …), a one-line
``summary``, and a docstring explaining the rationale.  Violations can be
suppressed per line with ``# repro: noqa[REP001]`` (several ids comma
separated) or blanket ``# repro: noqa``; unknown ids inside a noqa are
themselves diagnosed as ``REP000``.  There is no configuration: every
rule runs on every file, and a rule that must not apply somewhere says
so itself (REP002 exempts the graph package that owns the adjacency).

The linter exits non-zero when any unsuppressed violation remains, so it
can gate PRs (see ``scripts/check.sh``).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from repro.devtools._base import FileContext, Rule, Violation
from repro.devtools.report import format_sarif, format_text

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "UnseededRandomRule",
    "GraphPrivateMutationRule",
    "MutateWhileIterateRule",
    "BroadExceptRule",
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
    invisibly.  Files under ``repro/graph/`` (subpackages included) own
    the structures and are exempt.
    """

    id = "REP002"
    summary = "mutation of Graph._adj/_succ/_pred outside repro.graph"

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        if "/repro/graph/" in f"/{Path(ctx.path).as_posix()}":
            return
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


class BroadExceptRule(Rule):
    """No bare ``except:`` and no ``except Exception:`` in library code.

    Broad handlers swallow :class:`KeyboardInterrupt` (bare form) or mask
    substrate bugs as recoverable conditions.  Catch the specific
    :mod:`repro.exceptions` class, or let the error propagate.
    """

    id = "REP006"
    summary = "bare or overly broad except clause"

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


ALL_RULES: tuple[type[Rule], ...] = (
    UnseededRandomRule,
    GraphPrivateMutationRule,
    MutateWhileIterateRule,
    BroadExceptRule,
)

_KNOWN_RULE_IDS = frozenset(rule.id for rule in ALL_RULES)


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


def lint_source(source: str, path: str) -> list[Violation]:
    """Lint one source string; returns the unsuppressed violations."""
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
    violations: list[Violation] = _check_noqa_ids(lines, path)
    for rule in ALL_RULES:
        for violation in rule().check(tree, ctx):
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


def lint_paths(paths: Iterable[str | Path]) -> list[Violation]:
    """Lint every ``.py`` file under ``paths``, in sorted file order."""
    from repro import obs
    from repro.obs import instruments

    with obs.span("lint.run"):
        files = [str(path) for path in iter_python_files(paths)]
        violations: list[Violation] = []
        for path in files:
            source = Path(path).read_text(encoding="utf-8")
            violations.extend(lint_source(source, path))
        instruments.LINT_FILES.inc(len(files))
        instruments.LINT_VIOLATIONS.inc(len(violations))
    return violations


def _print_rule_catalogue() -> None:
    for rule in ALL_RULES:
        doc = (rule.__doc__ or "").strip().splitlines()[0]
        print(f"{rule.id}  {rule.summary}")
        print(f"        {doc}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.devtools.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro.devtools.lint",
        description="Repo-specific AST lint pass (rule ids: --list-rules)",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or dirs")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "--format",
        choices=("text", "sarif"),
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
    missing = [entry for entry in args.paths if not Path(entry).exists()]
    if missing:
        for entry in missing:
            print(f"error: no such file or directory: {entry}", file=sys.stderr)
        return 2

    violations = lint_paths(args.paths)
    if args.format == "sarif":
        document = format_sarif(violations, [rule() for rule in ALL_RULES])
    else:
        document = format_text(violations)
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
