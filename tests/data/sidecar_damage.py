"""Damaged ``groups.json`` sidecars, shared by the loader, CLI and service
tests.

Each entry of :data:`DAMAGES` rewrites a valid sidecar payload into the
text of one kind of damage.  Every damage except ``truncated`` hits the
first group, so the error must name the file and that group.
"""

from __future__ import annotations

import json
from pathlib import Path


def _first_group(payload: dict, **changes) -> str:
    record = payload["groups"][0]
    record.update(changes)
    return json.dumps(payload)


def _without_members(payload: dict) -> str:
    del payload["groups"][0]["members"]
    return json.dumps(payload)


def _extra_member(member: object):
    def damage(payload: dict) -> str:
        record = payload["groups"][0]
        return _first_group(payload, members=record["members"] + [member])

    return damage


DAMAGES = {
    "truncated": lambda payload: json.dumps(payload)[:-40],
    "no-members": _without_members,
    "list-member": _extra_member([1, 2]),
    "empty-members": lambda payload: _first_group(payload, members=[]),
    "string-members": lambda payload: _first_group(payload, members="12"),
    "float-member": _extra_member(0.5),
    "bool-member": _extra_member(True),
    "list-owner": lambda payload: _first_group(payload, owner=[5, 6]),
}


def damage_sidecar(path: Path, damage: str) -> str:
    """Rewrite the sidecar at ``path`` with ``damage``; return the name
    of the group it hits (``""`` when the damage is file-wide)."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    name = "" if damage == "truncated" else payload["groups"][0]["name"]
    path.write_text(DAMAGES[damage](payload), encoding="utf-8")
    return name
