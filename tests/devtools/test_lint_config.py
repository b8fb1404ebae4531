"""Configuration and CLI behaviour of the custom linter."""

from __future__ import annotations

import textwrap

from repro.devtools.lint import (
    ALL_RULES,
    LintConfig,
    lint_paths,
    lint_source,
    main,
)

VIOLATING = (
    "import random\n"
    "\n"
    "def f(xs):\n"
    "    return random.choice(xs)\n"
)  # REP001 (global random) + REP005 (no __all__)


def test_default_config_enables_every_rule():
    config = LintConfig()
    assert [rule.id for rule in config.active_rules()] == [
        rule.id for rule in ALL_RULES
    ]


def test_select_narrows_rules():
    config = LintConfig(select=("REP001",))
    findings = lint_source(VIOLATING, "src/repro/x.py", config)
    assert [v.rule_id for v in findings] == ["REP001"]


def test_ignore_removes_rules():
    config = LintConfig(ignore=("REP001",))
    findings = lint_source(VIOLATING, "src/repro/x.py", config)
    assert [v.rule_id for v in findings] == ["REP005"]


def test_per_path_ignores_scope_by_glob():
    config = LintConfig(
        per_path_ignores={"src/repro/graph/*": ("REP001", "REP005")}
    )
    inside = lint_source(VIOLATING, "src/repro/graph/x.py", config)
    outside = lint_source(VIOLATING, "src/repro/other/x.py", config)
    assert inside == []
    assert {v.rule_id for v in outside} == {"REP001", "REP005"}


def test_from_pyproject_reads_lint_table(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        textwrap.dedent(
            """
            [tool.repro.lint]
            select = ["REP001", "REP005"]
            ignore = ["REP005"]

            [tool.repro.lint.per-path-ignores]
            "pkg/legacy/*" = ["REP001"]
            """
        )
    )
    config = LintConfig.from_pyproject(pyproject)
    assert config.select == ("REP001", "REP005")
    assert config.ignore == ("REP005",)
    assert config.per_path_ignores == {"pkg/legacy/*": ("REP001",)}
    assert config.root == tmp_path


def test_load_walks_up_to_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.lint]\nselect = [\"REP006\"]\n"
    )
    nested = tmp_path / "src" / "pkg"
    nested.mkdir(parents=True)
    config = LintConfig.load(nested)
    assert config.select == ("REP006",)


def test_load_without_pyproject_gives_defaults(tmp_path):
    config = LintConfig.load(tmp_path)
    assert config.select == tuple(rule.id for rule in ALL_RULES)


def test_per_path_ignores_resolve_relative_to_config_root(tmp_path):
    """Patterns match paths relative to the pyproject directory, so the
    linter behaves identically no matter where it is invoked from."""
    (tmp_path / "pkg").mkdir()
    target = tmp_path / "pkg" / "x.py"
    target.write_text(VIOLATING)
    config = LintConfig(
        per_path_ignores={"pkg/*": ("REP001", "REP005")}, root=tmp_path
    )
    assert lint_paths([target], config) == []


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "a.py").write_text(VIOLATING)
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "b.py").write_text(VIOLATING)
    findings = lint_paths([tmp_path], LintConfig())
    assert len(findings) == 4  # 2 files x (REP001 + REP005)


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATING)
    good = tmp_path / "good.py"
    good.write_text('"""Doc."""\n__all__ = []\n')
    assert main(["--no-config", str(good)]) == 0
    assert main(["--no-config", str(bad)]) == 1
    output = capsys.readouterr().out
    assert "REP001" in output and "violation(s) found" in output


def test_main_rejects_missing_path(tmp_path, capsys):
    assert main(["--no-config", str(tmp_path / "nope.py")]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_main_select_flag_overrides(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(VIOLATING)
    assert main(["--no-config", "--select", "REP006", str(bad)]) == 0


def test_main_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in output


def test_missing_tomllib_warns_when_lint_table_exists(tmp_path, capsys, monkeypatch):
    """Python < 3.11 has no tomllib: explicit [tool.repro.lint] config must
    produce a loud stderr warning, never a silent fall-back to defaults."""
    from repro.devtools import lint as lint_module

    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[tool.repro.lint]\nselect = ["REP006"]\n')
    monkeypatch.setattr(lint_module, "tomllib", None)
    config = LintConfig.from_pyproject(pyproject)
    err = capsys.readouterr().err
    assert "tomllib" in err and "[tool.repro.lint]" in err
    # Defaults still apply (all rules), but the root is preserved.
    assert config.select == tuple(rule.id for rule in ALL_RULES)
    assert config.root == tmp_path


def test_missing_tomllib_stays_quiet_without_lint_table(
    tmp_path, capsys, monkeypatch
):
    from repro.devtools import lint as lint_module

    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[project]\nname = "x"\n')
    monkeypatch.setattr(lint_module, "tomllib", None)
    LintConfig.from_pyproject(pyproject)
    assert capsys.readouterr().err == ""


def test_repo_tree_is_lint_clean():
    """The acceptance gate: src/ has zero unsuppressed violations under
    the repo's own pyproject configuration."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    config = LintConfig.from_pyproject(root / "pyproject.toml")
    findings = lint_paths([root / "src"], config)
    assert findings == [], "\n".join(v.format() for v in findings)
