"""Correctness tooling for the repro codebase.

Three layers keep the reproduction's headline numbers trustworthy as the
codebase grows:

* **Static analysis** — :mod:`repro.devtools.lint` is the front end of a
  flow-sensitive, per-file lint engine: the stateless per-statement rules
  (REP001–REP006) and the docstring rule (REP301) live in ``lint.py``;
  :mod:`repro.devtools.dataflow` provides per-function scope tables, a
  CFG with def-use chains and origin tagging (RNG / graph / frozen /
  set-ordered values); and :mod:`repro.devtools.rules_flow` builds the
  RNG-discipline (REP1xx) and freeze-once-contract (REP2xx) rule
  families on top of it.  :mod:`repro.devtools.report` renders
  text/JSON/SARIF output and :mod:`repro.devtools.baseline` implements
  the ``.repro-lint-baseline.json`` ratchet.  Runnable as
  ``python -m repro.devtools.lint src/`` or ``repro lint``.  The rule
  catalogue lives in ``docs/LINTING.md``, next to the tests and runtime
  checks that guard the hazards no lint rule covers.
* :mod:`repro.devtools.invariants` — runtime structural validation of
  :class:`~repro.graph.Graph` / :class:`~repro.graph.DiGraph` /
  :class:`~repro.graph.CSRGraph`, with an opt-in
  ``REPRO_CHECK_INVARIANTS=1`` mode that post-checks every mutating
  substrate operation.
* :mod:`repro.devtools.determinism` — runs registered stochastic
  pipelines twice under the same seed and diffs canonical serializations,
  catching order-dependent iteration and unseeded randomness at runtime.

The library proper never imports :mod:`repro.devtools` (except for the
lazy, opt-in invariant installation); the tooling depends on the
library, not the other way around.
"""

from __future__ import annotations

__all__ = [
    "lint",
    "dataflow",
    "rules_flow",
    "report",
    "baseline",
    "invariants",
    "determinism",
]
