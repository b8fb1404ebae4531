"""Correctness tooling for the repro codebase.

Three layers keep the reproduction's headline numbers trustworthy as the
codebase grows:

* **Static analysis** — :mod:`repro.devtools.lint` is a per-file AST
  lint pass: the stateless per-statement rules (REP001–REP006) and the
  docstring rule (REP301).  :mod:`repro.devtools.report` renders its
  text/JSON/SARIF output.  Runnable as ``python -m repro.devtools.lint
  src/`` or ``repro lint``.  The rule catalogue lives in
  ``docs/LINTING.md``, next to the tests and runtime checks that guard
  the hazards no lint rule covers.
* :mod:`repro.devtools.invariants` — runtime structural validation of
  :class:`~repro.graph.Graph` / :class:`~repro.graph.DiGraph` /
  :class:`~repro.graph.CSRGraph`, with an opt-in
  ``REPRO_CHECK_INVARIANTS=1`` mode that post-checks every mutating
  substrate operation.
* :mod:`repro.devtools.determinism` — runs registered stochastic
  pipelines twice under the same seed and diffs canonical serializations,
  catching order-dependent iteration and unseeded randomness at runtime.

The paper's outputs themselves are pinned by a SHA-256 ledger
(``tests/golden/ledger.csv``, regenerated by ``scripts/reproduce_all.sh``).
The library proper never imports :mod:`repro.devtools` (except for the
lazy, opt-in invariant installation); the tooling depends on the
library, not the other way around.
"""

from __future__ import annotations

__all__ = [
    "lint",
    "report",
    "invariants",
    "determinism",
]
