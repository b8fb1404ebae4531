#!/usr/bin/env bash
# Regenerate the paper's outputs into DIR and check them against the
# committed SHA-256 ledger, tests/golden/ledger.csv:
#
#   scripts/reproduce_all.sh DIR
#
# At --seed 3 it writes the 11 CSVs of `repro export` (DIR/export/) and
# the stdout of score, compare, robustness, overlap, degree-fit,
# classify, ego-view, detect and `characterize google_plus`
# (DIR/stdout/). It then freezes a `--scale 20000` store (DIR/store/) and
# scores it with `score --mmap-dir` (DIR/stdout/score-mmap.txt). Every
# command runs inside DIR on relative paths, so no output names DIR.
# DIR/ledger.csv gets one `output,sha256` row per file, and the script
# exits 1, printing the rows that differ, unless it equals the committed
# ledger.
#
# To re-record after an intended output change, copy DIR/ledger.csv over
# tests/golden/ledger.csv and name each changed row, with its reason, in
# CHANGES.md. scripts/check.sh runs this under two PYTHONHASHSEEDs; the
# store rows are also checked by tests/test_ledger.py.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -ne 1 ]; then
    echo "usage: scripts/reproduce_all.sh DIR" >&2
    exit 2
fi
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
# An inherited store would replace the dataset `repro score` builds.
unset REPRO_MMAP_DIR

repro() { python -m repro.cli "$@"; }

mkdir -p stdout
repro --seed 3 export -o export > /dev/null
for command in score compare robustness overlap degree-fit classify \
        ego-view detect; do
    repro --seed 3 "$command" > "stdout/$command.txt"
done
repro --seed 3 characterize google_plus > stdout/characterize-google_plus.txt
repro freeze --scale 20000 -o store --force > /dev/null
repro score --mmap-dir store > stdout/score-mmap.txt

python - <<'EOF'
import hashlib
from pathlib import Path

rows = ["output,sha256"]
for folder in ("export", "stdout", "store"):
    for path in sorted(Path(folder).iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        rows.append(f"{path.as_posix()},{digest}")
Path("ledger.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
EOF
diff "$root/tests/golden/ledger.csv" ledger.csv
echo "ledger.csv matches tests/golden/ledger.csv"
