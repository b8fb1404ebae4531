"""The small-store rows of the output ledger, regenerated in-process.

``tests/golden/ledger.csv`` pins a SHA-256 for every output that
``scripts/reproduce_all.sh`` regenerates.  The slow rows (``repro
export`` and the seed-3 drivers) run in ``scripts/check.sh``; the rows
of the ``freeze --scale 20000`` store and its ``score --mmap-dir``
stdout take well under a second, so they are checked here.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

from repro import cli

LEDGER = Path(__file__).resolve().parent / "golden" / "ledger.csv"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_small_store_rows_match_the_ledger(tmp_path, monkeypatch, capsys):
    with open(LEDGER, newline="", encoding="utf-8") as handle:
        ledger = {row["output"]: row["sha256"] for row in csv.DictReader(handle)}
    expected = {
        output: digest
        for output, digest in ledger.items()
        if output.startswith("store/") or output == "stdout/score-mmap.txt"
    }
    # The script runs inside its output directory on relative paths.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["freeze", "--scale", "20000", "-o", "store", "--force"]) == 0
    capsys.readouterr()
    assert cli.main(["score", "--mmap-dir", "store"]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")

    regenerated = {
        f"store/{path.name}": _sha256(path.read_bytes())
        for path in (tmp_path / "store").iterdir()
    }
    regenerated["stdout/score-mmap.txt"] = _sha256(stdout)
    assert regenerated == expected
