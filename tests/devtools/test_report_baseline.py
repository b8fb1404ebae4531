"""Tests for the lint output formats (text and SARIF) and the SARIF
report written by the command line."""

from __future__ import annotations

import json
import textwrap

from repro.devtools._base import Violation
from repro.devtools.lint import ALL_RULES, main
from repro.devtools.report import format_sarif, format_text


def violation(rule="REP001", path="src/m.py", line=3, col=4, msg="boom"):
    return Violation(rule_id=rule, message=msg, path=path, line=line, col=col)


BAD_SOURCE = textwrap.dedent(
    """
    import random
    __all__ = ["f"]

    def f(xs):
        return random.choice(xs)
    """
).lstrip()


def write_tree(tmp_path, sources):
    files = []
    for name, text in sources.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        files.append(target)
    return files


# -- formats -----------------------------------------------------------------


def test_text_format_one_line_per_violation():
    out = format_text([violation(), violation(line=9)])
    lines = out.splitlines()
    assert lines == [
        "src/m.py:3:4: REP001 boom",
        "src/m.py:9:4: REP001 boom",
    ]


def test_sarif_shape_validates_minimal_2_1_0_schema():
    rules = [rule() for rule in ALL_RULES]
    document = json.loads(format_sarif([violation()], rules))
    assert document["version"] == "2.1.0"
    assert document["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    ids = [descriptor["id"] for descriptor in driver["rules"]]
    assert ids == sorted(ids)
    assert ids == ["REP001", "REP002", "REP003", "REP006"]
    for descriptor in driver["rules"]:
        assert descriptor["shortDescription"]["text"]
    (result,) = run["results"]
    assert result["ruleId"] == "REP001"
    assert result["level"] == "error"
    assert result["message"]["text"] == "boom"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/m.py"
    # SARIF regions are 1-based; AST columns are 0-based.
    assert location["region"] == {"startLine": 3, "startColumn": 5}


# -- command-line surface ----------------------------------------------------


def test_main_sarif_output_file(tmp_path, capsys):
    write_tree(tmp_path, {"a.py": BAD_SOURCE})
    sarif_path = tmp_path / "lint.sarif"
    code = main(
        [
            str(tmp_path),
            "--format",
            "sarif",
            "--output",
            str(sarif_path),
        ]
    )
    assert code == 1
    document = json.loads(sarif_path.read_text(encoding="utf-8"))
    assert document["version"] == "2.1.0"
    assert document["runs"][0]["results"]
    assert str(sarif_path) in capsys.readouterr().out
