"""Correctness tooling for the repro codebase.

Three layers keep the reproduction's headline numbers trustworthy as the
codebase grows:

* **Static analysis** — :mod:`repro.devtools.lint` is a per-file AST
  lint pass with four per-statement rules (REP001, REP002, REP003 and
  REP006).  :mod:`repro.devtools.report` renders its text and SARIF
  output.  Run it as ``python -m repro.devtools.lint src``.  The rule
  catalogue lives in ``docs/LINTING.md``, next to the tests and runtime
  checks that guard the hazards no lint rule covers.
* :mod:`repro.devtools.invariants` — structural validators for
  :class:`~repro.graph.Graph` / :class:`~repro.graph.DiGraph` /
  :class:`~repro.graph.CSRGraph` and the engine's ``AnalysisContext``.
* :mod:`repro.devtools.determinism` — runs registered stochastic
  pipelines twice under the same seed and diffs canonical serializations,
  catching order-dependent iteration and unseeded randomness at runtime.
  Run it as ``python -m repro.devtools.determinism [--fast]``.

The paper's outputs themselves are pinned by a SHA-256 ledger
(``tests/golden/ledger.csv``, regenerated by ``scripts/reproduce_all.sh``).
The library proper never imports :mod:`repro.devtools`; the tooling
depends on the library, not the other way around.
"""

from __future__ import annotations

__all__ = [
    "lint",
    "report",
    "invariants",
    "determinism",
]
