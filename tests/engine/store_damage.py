"""Damaged CSR store metadata, shared by the store, CLI and service tests.

Each entry of :data:`STORE_DAMAGES` damages one on-disk store written by
``AnalysisContext.save`` in place and returns the file name the open
error must mention.
"""

from __future__ import annotations

import json
from pathlib import Path


def _rewrite_meta(change):
    def damage(store: Path) -> str:
        path = store / "meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(change(meta), encoding="utf-8")
        return "meta.json"

    return damage


def _with(**changes):
    def change(meta: dict) -> str:
        meta.update(changes)
        return json.dumps(meta)

    return change


def _without(key: str):
    def change(meta: dict) -> str:
        del meta[key]
        return json.dumps(meta)

    return change


def _array_entry(**changes):
    def change(meta: dict) -> str:
        meta["arrays"]["union.indices"].update(changes)
        return json.dumps(meta)

    return change


def _missing_array(store: Path) -> str:
    (store / "union.indices.bin").unlink()
    return "union.indices.bin"


STORE_DAMAGES = {
    "missing-array-file": _missing_array,
    "truncated-meta": _rewrite_meta(lambda meta: json.dumps(meta)[:-30]),
    "meta-not-object": _rewrite_meta(lambda meta: json.dumps([meta])),
    "no-arrays": _rewrite_meta(_without("arrays")),
    "no-directed": _rewrite_meta(_without("directed")),
    "string-version": _rewrite_meta(_with(version="1")),
    "int-nodes": _rewrite_meta(_with(nodes=5)),
    "string-median": _rewrite_meta(_with(median_degree="3.0")),
    "null-count": _rewrite_meta(_array_entry(count=None)),
    "list-file": _rewrite_meta(_array_entry(file=["union.indices.bin"])),
}


def damage_store(store: Path, damage: str) -> str:
    """Apply ``damage`` to the store at ``store``; return the file name
    its open error must mention."""
    return STORE_DAMAGES[damage](store)
