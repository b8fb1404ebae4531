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
# All commands run through repro.cli.main in one Python process, and
# each seed-3 corpus is built once and shared by every command that
# reads it. No command may change a corpus it is given: if a row ever
# differs from the ledger, a command leaked state into a shared corpus,
# and the fix belongs in that command or in this script, never in the
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

python - <<'EOF'
import contextlib
import functools
import hashlib
import os
import sys
from pathlib import Path

from repro import cli

cli._BUILDERS = {
    name: functools.cache(build) for name, build in cli._BUILDERS.items()
}


def repro(argv, stdout):
    """Run one `repro` command with its stdout written to `stdout`."""
    with open(stdout, "w", encoding="utf-8") as sink:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    if code:
        sys.exit(f"repro {' '.join(argv)} exited with status {code}")


Path("stdout").mkdir(exist_ok=True)
repro(["--seed", "3", "export", "-o", "export"], os.devnull)
for command in ("score", "compare", "robustness", "overlap", "degree-fit",
                "classify", "ego-view", "detect"):
    repro(["--seed", "3", command], f"stdout/{command}.txt")
repro(["--seed", "3", "characterize", "google_plus"],
      "stdout/characterize-google_plus.txt")
repro(["freeze", "--scale", "20000", "-o", "store", "--force"], os.devnull)
repro(["score", "--mmap-dir", "store"], "stdout/score-mmap.txt")

rows = ["output,sha256"]
for folder in ("export", "stdout", "store"):
    for path in sorted(Path(folder).iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        rows.append(f"{path.as_posix()},{digest}")
Path("ledger.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
EOF
diff "$root/tests/golden/ledger.csv" ledger.csv
echo "ledger.csv matches tests/golden/ledger.csv"
