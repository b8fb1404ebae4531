"""Shared vocabulary of the lint engine: findings, file context, rules.

:class:`Violation`, :class:`FileContext` and the :class:`Rule` base class
live here (rather than in :mod:`repro.devtools.lint`) because
:mod:`repro.devtools.report` renders violations and rule metadata, and
``lint.py`` imports the report module to render its output.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass


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


@dataclass(frozen=True)
class FileContext:
    """The file a rule is checking."""

    path: str


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id` / :attr:`summary` and implement
    :meth:`check`, yielding :class:`Violation` objects.  The docstring of
    each subclass is its rationale: ``--list-rules`` prints its first
    line and the SARIF rule catalogue carries all of it.
    """

    id: str = "REP000"
    summary: str = ""

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
