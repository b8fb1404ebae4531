"""Command-line behaviour of the custom linter, which reads no
configuration: every rule runs on every file it is given."""

from __future__ import annotations

import re

import pytest

from repro.devtools.lint import lint_paths, main

VIOLATING = (
    "import random\n"
    "\n"
    "def f(xs):\n"
    "    return random.choice(xs)\n"
)  # REP001 (global random)


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "a.py").write_text(VIOLATING)
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "b.py").write_text(VIOLATING)
    findings = lint_paths([tmp_path])
    assert [v.rule_id for v in findings] == ["REP001", "REP001"]


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATING)
    good = tmp_path / "good.py"
    good.write_text('"""Doc."""\n__all__ = []\n')
    assert main([str(good)]) == 0
    assert main([str(bad)]) == 1
    output = capsys.readouterr().out
    assert "REP001" in output and "violation(s) found" in output


def test_main_rejects_missing_path(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    listed = re.findall(r"^(REP\d{3})\b", output, flags=re.MULTILINE)
    assert listed == ["REP001", "REP002", "REP003", "REP006"]


@pytest.mark.parametrize(
    "flag",
    [
        ["--jobs", "2"],
        ["--baseline", "b.json"],
        ["--write-baseline"],
        ["--check-baseline"],
        ["--select", "REP001"],
        ["--ignore", "REP001"],
        ["--no-config"],
        ["--explain", "REP001"],
    ],
    ids=lambda flag: flag[0],
)
def test_main_rejects_retired_flags(capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        main(["--list-rules", *flag])
    assert exit_info.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_main_rejects_json_format(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--list-rules", "--format", "json"])
    assert exit_info.value.code == 2
    assert "'json'" in capsys.readouterr().err


def test_repo_tree_is_lint_clean():
    """The acceptance gate: src/ has zero unsuppressed violations."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    findings = lint_paths([root / "src"])
    assert findings == [], "\n".join(v.format() for v in findings)
