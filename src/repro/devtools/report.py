"""Lint output formats: plain text and SARIF 2.1.0.

Every formatter is a pure function from a sorted violation list to a
string, so the same findings always render to the same bytes.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from repro.devtools._base import Rule, Violation

__all__ = [
    "LINT_DOC_URI",
    "rule_help_uri",
    "format_text",
    "format_sarif",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Base the per-rule ``helpUri`` anchors into the in-repo catalogue.
LINT_DOC_URI = "docs/LINTING.md"


def rule_help_uri(rule: Rule) -> str:
    """Anchor URI of ``rule``'s section in ``docs/LINTING.md``.

    Mirrors GitHub's heading slugger over the ``### REPNNN — summary``
    headings: lowercase, punctuation dropped, spaces become dashes (the
    em-dash itself is dropped, leaving the double dash GitHub produces).
    """
    heading = f"{rule.id} — {rule.summary}"
    slug = []
    for char in heading.lower():
        if char.isalnum() or char in "-_":
            slug.append(char)
        elif char == " ":
            slug.append("-")
        # All other punctuation is dropped, as GitHub's slugger does.
    return f"{LINT_DOC_URI}#{''.join(slug)}"


def format_text(violations: Sequence[Violation]) -> str:
    """One ``path:line:col: ID message`` line per violation."""
    return "".join(f"{violation.format()}\n" for violation in violations)


def format_sarif(
    violations: Sequence[Violation],
    rules: Iterable[Rule] = (),
) -> str:
    """A minimal SARIF 2.1.0 log with one run and the rule catalogue.

    Rule metadata is emitted for every rule passed in (not only those
    with results) so downstream viewers can render the full catalogue.
    """
    rule_descriptors = [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {
                "text": (rule.__doc__ or rule.summary).strip()
            },
            "helpUri": rule_help_uri(rule),
        }
        for rule in sorted(rules, key=lambda rule: rule.id)
    ]
    results = [
        {
            "ruleId": violation.rule_id,
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": violation.path},
                        "region": {
                            "startLine": violation.line,
                            # SARIF columns are 1-based; AST cols 0-based.
                            "startColumn": violation.col + 1,
                        },
                    }
                }
            ],
        }
        for violation in violations
    ]
    log = {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro/devtools"
                        ),
                        "rules": rule_descriptors,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True) + "\n"
