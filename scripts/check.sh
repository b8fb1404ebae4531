#!/usr/bin/env bash
# One-command correctness gate: custom lint pass (parallel, baseline-aware,
# with a machine-readable SARIF artifact), seed-determinism check on the
# fast pipelines under two hash seeds (outputs must match), engine-vs-legacy
# identity smoke, observability overhead smoke (with a sample trace
# artifact), then the tier-1 test suite.
# Exits non-zero on the first failure so it can gate PRs.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# The gate's benchmark receipts go to a scratch directory (gitignored,
# uploaded by CI): the committed BENCH_*.json files are full recorded
# runs that a smoke run must never overwrite.
BENCH_OUT=bench-smoke
mkdir -p "$BENCH_OUT"

echo "== repro lint (REP001-REP607, 2 jobs) =="
python -m repro.devtools.lint src --jobs 2

echo "== repro lint baseline ratchet (no stale entries) =="
python -m repro.devtools.lint src --check-baseline

echo "== repro lint SARIF artifact (lint.sarif) =="
python -m repro.devtools.lint src --format sarif --output lint.sarif

echo "== interprocedural lint benchmark (warm cache, serial vs parallel) =="
python benchmarks/bench_lint.py --interproc --repeat 2

echo "== scale-soundness lint benchmark (REP601-606, warm cache) =="
python benchmarks/bench_lint.py --tier3 --repeat 2

echo "== determinism check (fast pipelines, PYTHONHASHSEED=5 vs 47) =="
# One run cannot see a set iterated before an RNG draw; the same draws
# under two hash seeds can, so both runs must print the same fingerprints.
for hash_seed in 5 47; do
    PYTHONHASHSEED=$hash_seed python -m repro.devtools.determinism --fast \
        | tee "$BENCH_OUT/determinism-$hash_seed.txt"
done
diff "$BENCH_OUT/determinism-5.txt" "$BENCH_OUT/determinism-47.txt"

echo "== engine scoring smoke (bit-identity vs legacy) =="
python benchmarks/bench_engine_scoring.py --smoke

echo "== parallel scoring smoke (Fig. 5 serial vs --jobs 2, CSV byte diff) =="
python benchmarks/bench_parallel_scoring.py --smoke --jobs 2 \
    --csv-dir bench-parallel-csv --output bench-parallel.json

echo "== observability overhead smoke (trace artifact: trace-sample.jsonl) =="
python benchmarks/bench_obs_overhead.py --smoke --trace-out trace-sample.jsonl

echo "== out-of-core smoke (1e6-edge freeze+score, RSS/time budgets) =="
python benchmarks/bench_parallel_scoring.py --scale 1000000 --jobs 2 \
    --rss-budget-mb 900 --time-budget 120 --output "$BENCH_OUT/BENCH_scale.json"

echo "== service smoke (ephemeral port, query burst: 2xx + warm 304s, >=5x warm p50) =="
python benchmarks/bench_service_qps.py --smoke --time-budget 120 \
    --output "$BENCH_OUT/BENCH_service.json"

echo "== columnar scoring bench (10k groups, bitwise identity, >=3x) =="
python benchmarks/bench_columnar_scoring.py --output "$BENCH_OUT/BENCH_columnar.json"

echo "== bench trajectory gate (>20% regression vs benchmarks/BASELINES.json) =="
python scripts/bench_trajectory.py --root "$BENCH_OUT"

echo "== tier-1 tests =="
python -m pytest -x -q
