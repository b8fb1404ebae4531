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
from pathlib import Path


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
        """JSON-ready representation (``--format json``)."""
        return {
            "rule": self.rule_id,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


@dataclass(frozen=True)
class FileContext:
    """The file a rule is checking."""

    path: str

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
