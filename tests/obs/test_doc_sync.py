"""Doc-sync gates: the docs must list exactly what the code registers.

Two contracts:

* every metric in the live registry has a row in the
  ``docs/OBSERVABILITY.md`` catalogue table (and no stale rows linger);
* every lint rule in ``ALL_RULES`` (plus the REP000 meta diagnostic) has
  a row in the ``docs/LINTING.md`` catalogue table, and vice versa, and
  a ``kept`` row in its evidence table, whose other rows are ``deleted``.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro import obs
from repro.devtools.lint import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_observability_doc_lists_every_registered_metric():
    from repro.obs import instruments  # noqa: F401  (import registers)

    doc = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    catalogue = doc.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    documented = set(
        re.findall(r"^\| `([a-z_.]+)` \|", catalogue, flags=re.MULTILINE)
    )
    registered = set(obs.REGISTRY.names())

    missing = registered - documented
    stale = documented - registered
    assert not missing, f"metrics missing from docs/OBSERVABILITY.md: {sorted(missing)}"
    assert not stale, f"stale metric rows in docs/OBSERVABILITY.md: {sorted(stale)}"


def _linting_section(heading: str) -> str:
    doc = (REPO_ROOT / "docs" / "LINTING.md").read_text(encoding="utf-8")
    return doc.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_linting_doc_lists_every_lint_rule():
    documented = set(
        re.findall(
            r"^\| (REP\d{3}) \|", _linting_section("Catalogue"), flags=re.MULTILINE
        )
    )
    registered = {rule.id for rule in ALL_RULES} | {"REP000"}

    missing = registered - documented
    stale = documented - registered
    assert not missing, f"rules missing from docs/LINTING.md: {sorted(missing)}"
    assert not stale, f"stale rule rows in docs/LINTING.md: {sorted(stale)}"


def test_linting_evidence_table_has_a_kept_row_per_rule():
    """Every live rule id has an evidence row marked ``kept``; every
    other row is ``deleted`` and names its covering check."""
    status: dict[str, str] = {}
    table = _linting_section("Evidence")
    for row in re.findall(r"^\|(.+)\|$", table, flags=re.MULTILINE):
        cells = [cell.strip() for cell in row.split("|")]
        for rule_id in re.findall(r"REP\d{3}", cells[0]):
            status[rule_id] = cells[1]
            if cells[1] == "deleted":
                assert not cells[3].startswith("none"), (
                    f"deleted rule {rule_id} names no covering check"
                )
    registered = {rule.id for rule in ALL_RULES} | {"REP000"}

    kept = {rule_id for rule_id, value in status.items() if value == "kept"}
    deleted = {rule_id for rule_id, value in status.items() if value == "deleted"}
    assert kept | deleted == set(status), f"unknown status in {status}"
    assert kept == registered, (
        f"evidence rows marked kept {sorted(kept)} differ from the "
        f"registered rules {sorted(registered)}"
    )


def test_linting_doc_examples_match_rule_registry():
    """The per-rule sections carry each rule's summary verbatim."""
    doc = (REPO_ROOT / "docs" / "LINTING.md").read_text(encoding="utf-8")
    headings = set(
        re.findall(r"^### (REP\d{3}) —", doc, flags=re.MULTILINE)
    )
    registered = {rule.id for rule in ALL_RULES}
    missing = registered - headings
    assert not missing, f"rules without a detail section: {sorted(missing)}"


def test_sarif_help_uris_anchor_into_linting_doc():
    """Every SARIF helpUri must land on a real LINTING.md heading.

    ``rule_help_uri`` slugs ``### REPNNN — summary``; the anchor only
    resolves if the doc heading carries the rule's summary *verbatim*,
    so that stronger property is what this asserts.
    """
    from repro.devtools.report import LINT_DOC_URI, rule_help_uri

    doc = (REPO_ROOT / "docs" / "LINTING.md").read_text(encoding="utf-8")
    for rule_cls in ALL_RULES:
        rule = rule_cls()
        heading = f"### {rule.id} — {rule.summary}"
        assert heading in doc, (
            f"docs/LINTING.md heading for {rule.id} does not match the "
            f"rule summary verbatim; expected {heading!r}"
        )
        uri = rule_help_uri(rule)
        assert uri.startswith(f"{LINT_DOC_URI}#rep"), uri
