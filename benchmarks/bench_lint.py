#!/usr/bin/env python
"""Lint-engine benchmark: single-process vs ``--jobs N`` over ``src/``.

The flow-sensitive rules (CFG construction, reaching definitions, origin
fixpoints) made the lint pass meaningfully heavier than the PR-1
per-statement visitors, which is why ``lint_paths`` grew a multiprocessing
path.  This benchmark records the wall time of both paths over the real
``src/`` tree so the parallel path has a perf trail, and asserts they
produce identical findings (the determinism contract behind
``--jobs``-byte-identical output).  Emits a JSON report::

    python benchmarks/bench_lint.py              # full, prints JSON
    python benchmarks/bench_lint.py --jobs 8     # explicit worker count
    python benchmarks/bench_lint.py --repeat 5
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path

from repro.devtools.lint import LintConfig, iter_python_files, lint_paths

ROOT = Path(__file__).resolve().parents[1]


def _time_lint(paths, config, *, jobs: int, repeat: int) -> tuple[float, list]:
    best = float("inf")
    findings: list = []
    for _ in range(repeat):
        start = time.perf_counter()
        findings = lint_paths(paths, config, jobs=jobs)
        best = min(best, time.perf_counter() - start)
    return best, findings


def _bench_full(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    config = LintConfig.from_pyproject(ROOT / "pyproject.toml")
    files = list(iter_python_files([src]))

    serial_seconds, serial_findings = _time_lint(
        [src], config, jobs=1, repeat=args.repeat
    )
    parallel_seconds, parallel_findings = _time_lint(
        [src], config, jobs=args.jobs, repeat=args.repeat
    )

    identical = [v.format() for v in serial_findings] == [
        v.format() for v in parallel_findings
    ]
    report = {
        "files": len(files),
        "rules": len(config.active_rules()),
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "jobs": args.jobs,
        "speedup": round(serial_seconds / max(parallel_seconds, 1e-9), 2),
        "findings": len(serial_findings),
        "identical_output": identical,
    }
    print(json.dumps(report, indent=2))
    if not identical:
        print("FAIL: parallel findings differ from serial", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs",
        type=int,
        default=min(4, multiprocessing.cpu_count()),
        help="worker count for the parallel run",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="runs per path; best is kept"
    )
    args = parser.parse_args(argv)
    return _bench_full(args)


if __name__ == "__main__":
    sys.exit(main())
