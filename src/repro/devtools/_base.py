"""Shared vocabulary of the lint engine.

:class:`Violation`, :class:`FileContext` and the :class:`Rule` base class
live here (rather than in :mod:`repro.devtools.lint`) so that both the
stateless per-statement rules (REP0xx, in ``lint.py``) and the
flow-sensitive rules (REP1xx/REP2xx, in ``rules_flow.py``) can subclass
them without a circular import: ``lint.py`` aggregates every rule family
into ``ALL_RULES`` and therefore imports ``rules_flow``, which only ever
imports this module.

The frozen tables below (mutator names, materializers, global-random
functions) are the single source of truth shared by both rule families —
REP201 reuses REP003's graph-mutator table, for instance.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

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

#: Graph methods that mutate structure (REP003 and REP201 share this).
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

#: ``random.Random`` / ``numpy.random.Generator`` methods that *consume*
#: randomness from an ordered argument (REP101's sinks).
_RNG_CONSUMERS = frozenset(
    {"choice", "choices", "sample", "shuffle", "permutation", "permuted"}
)


@dataclass(frozen=True)
class Violation:
    """One lint finding, addressable as ``path:line:col``."""

    rule_id: str
    message: str
    path: str
    line: int
    col: int

    def format(self) -> str:
        """Render in the conventional ``path:line:col: ID message`` shape."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (``--format json`` / baselines)."""
        return {
            "rule": self.rule_id,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


@dataclass(frozen=True)
class FileContext:
    """Per-file information shared by every rule.

    ``options`` carries config-derived knobs rules may honour (currently
    ``value_objects`` for REP203); rules must tolerate missing keys.
    """

    path: str
    lines: tuple[str, ...]
    options: Mapping[str, object] = field(default_factory=dict)

    @property
    def path_parts(self) -> tuple[str, ...]:
        return Path(self.path).parts

    @property
    def module_basename(self) -> str:
        return Path(self.path).name


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` / :attr:`summary` and implement
    :meth:`check`, yielding :class:`Violation` objects.  The docstring of
    each subclass is its rationale and is printed by ``--list-rules`` and
    ``--explain``; :attr:`example_bad` / :attr:`example_good` are the
    minimal counter-example pair shown by ``--explain``.
    """

    id: str = "REP000"
    summary: str = ""
    example_bad: str = ""
    example_good: str = ""

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule_id=self.id,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )
