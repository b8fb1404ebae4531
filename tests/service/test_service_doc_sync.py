"""Doc-sync gates for the service runbook.

``docs/SERVICE.md`` promises (in its own prose) that its endpoint
catalogue is diffed against :data:`repro.service.ROUTES` and its metric
table against the live instruments.  These tests are that diff —
adding a route, a ``service.*`` metric, or a doc without updating the
runbook (or vice versa) fails the suite.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro import obs
from repro.obs import instruments  # noqa: F401  (import registers)
from repro.service import ROUTES

REPO_ROOT = Path(__file__).resolve().parents[2]
SERVICE_DOC = REPO_ROOT / "docs" / "SERVICE.md"


def _section(doc: str, heading: str) -> str:
    return doc.split(heading, 1)[1].split("\n## ", 1)[0]


def test_endpoint_table_matches_routes_exactly():
    """Every registered route has a catalogue row and no stale rows
    linger; method, path and handler id must all match."""
    doc = SERVICE_DOC.read_text(encoding="utf-8")
    catalogue = _section(doc, "## Endpoint catalogue")
    rows = re.findall(
        r"^\| (GET|POST|PUT|DELETE) \| `([^`]+)` \| `([a-z_]+)` \|",
        catalogue,
        flags=re.MULTILINE,
    )
    documented = {(method, path, handler) for method, path, handler in rows}
    registered = {
        (route.method, route.pattern, route.handler) for route in ROUTES
    }

    missing = registered - documented
    stale = documented - registered
    assert not missing, f"routes missing from docs/SERVICE.md: {sorted(missing)}"
    assert not stale, f"stale route rows in docs/SERVICE.md: {sorted(stale)}"


def test_endpoint_rows_carry_route_descriptions():
    """The 'what it serves' column is the route's registered
    description, verbatim — the table cannot drift into paraphrase."""
    doc = SERVICE_DOC.read_text(encoding="utf-8")
    catalogue = _section(doc, "## Endpoint catalogue")
    for route in ROUTES:
        row = (
            f"| {route.method} | `{route.pattern}` "
            f"| `{route.handler}` | {route.description} |"
        )
        assert row in catalogue, (
            f"docs/SERVICE.md row for {route.method} {route.pattern} does "
            f"not match the registered description; expected {row!r}"
        )


def test_metric_table_matches_service_instruments():
    """The runbook's observability table lists exactly the ``service.*``
    metrics and the ``cache.*`` metrics of the result cache (the
    service's tier 2) the registry holds, with matching kinds."""
    doc = SERVICE_DOC.read_text(encoding="utf-8")
    section = _section(doc, "## Observability")
    rows = re.findall(
        r"^\| `((?:service|cache)\.[a-z_.]+)` \| (counter|gauge|histogram) \|",
        section,
        flags=re.MULTILINE,
    )
    documented = dict(rows)
    registered = {
        name: obs.REGISTRY.get(name).kind
        for name in obs.REGISTRY.names()
        if name.startswith(("service.", "cache."))
    }

    assert set(documented) == set(registered), (
        f"missing: {sorted(set(registered) - set(documented))}, "
        f"stale: {sorted(set(documented) - set(registered))}"
    )
    for name, kind in registered.items():
        assert documented[name] == kind, (
            f"docs/SERVICE.md lists `{name}` as {documented[name]}, "
            f"registry says {kind}"
        )


def test_service_metrics_also_in_observability_catalogue():
    """The central OBSERVABILITY.md catalogue covers the service rows
    too (the obs doc-sync test enforces the full-set diff; this one
    pins the service subset explicitly)."""
    doc = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(
        encoding="utf-8"
    )
    for name in obs.REGISTRY.names():
        if name.startswith("service."):
            assert f"`{name}`" in doc, f"{name} missing from OBSERVABILITY.md"


def test_docs_index_lists_every_doc():
    """docs/README.md links every markdown file under docs/ and links
    nothing that does not exist."""
    index_path = REPO_ROOT / "docs" / "README.md"
    index = index_path.read_text(encoding="utf-8")
    linked = set(re.findall(r"\[`?([A-Z]+\.md)`?\]\(([A-Z]+\.md)\)", index))
    linked_names = {target for _, target in linked}
    actual = {
        path.name
        for path in (REPO_ROOT / "docs").glob("*.md")
        if path.name != "README.md"
    }

    missing = actual - linked_names
    stale = linked_names - actual
    assert not missing, f"docs missing from docs/README.md: {sorted(missing)}"
    assert not stale, f"dead links in docs/README.md: {sorted(stale)}"


def test_runbook_names_this_test_file():
    """SERVICE.md claims its tables are enforced by this file; keep the
    pointer honest if the test moves."""
    doc = SERVICE_DOC.read_text(encoding="utf-8")
    assert "tests/service/test_service_doc_sync.py" in doc
