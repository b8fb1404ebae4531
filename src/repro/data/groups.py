"""Vertex-group data model: circles, communities and collections thereof.

The paper analyses two kinds of vertex groups (its symbol ``C``):

* **Circles** — owner-created contact containers in Google+ (and Twitter
  "lists").  A circle has an owner and only contains alters from the
  owner's ego network.
* **Communities** — member-joined interest groups of classical OSNs
  (LiveJournal, Orkut).

Both are structurally just vertex sets; the distinction is carried so that
analyses can report per-kind and so synthetic generators can encode the
different construction processes.
"""

from __future__ import annotations

import json
import os
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import EmptyGroupError, FormatError

Node = Hashable

__all__ = [
    "VertexGroup",
    "Circle",
    "Community",
    "GroupSet",
    "save_groups",
    "load_groups",
]


@dataclass(frozen=True)
class VertexGroup:
    """An immutable named set of vertices — the unit scoring functions act on.

    Attributes
    ----------
    name:
        Human-readable identifier, unique within a :class:`GroupSet`.
    members:
        The vertex set :math:`C`.
    """

    name: str
    members: frozenset[Node]

    kind = "group"

    def __post_init__(self) -> None:
        if not self.members:
            raise EmptyGroupError(f"group {self.name!r} has no members")
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.members)

    def __contains__(self, node: object) -> bool:
        return node in self.members

    def overlap(self, other: "VertexGroup") -> frozenset[Node]:
        """Return the vertices shared with ``other``."""
        return self.members & other.members

    def jaccard(self, other: "VertexGroup") -> float:
        """Jaccard similarity of the two member sets."""
        union = self.members | other.members
        if not union:
            return 0.0
        return len(self.members & other.members) / len(union)


@dataclass(frozen=True)
class Circle(VertexGroup):
    """A selective-sharing circle: owner-created, drawn from an ego network.

    ``owner`` is the creating user.  Following the SNAP ego data sets the
    owner is *not* a member of the circle (members are alters).
    """

    owner: Node | None = None

    kind = "circle"


@dataclass(frozen=True)
class Community(VertexGroup):
    """A classical member-joined community (interest group)."""

    kind = "community"


@dataclass
class GroupSet:
    """An ordered collection of vertex groups belonging to one data set.

    Provides the small amount of bookkeeping the experiments need: size
    filtering, top-k selection, and uniqueness of names.
    """

    groups: list[VertexGroup] = field(default_factory=list)
    name: str = ""
    #: Names of ``groups``, kept in step by :meth:`add` so the uniqueness
    #: check is O(1) and loading ``G`` groups stays linear.
    _names: set[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._names = set()
        for group in self.groups:
            if group.name in self._names:
                raise ValueError(
                    f"group set {self.name!r} has duplicate group name "
                    f"{group.name!r}"
                )
            self._names.add(group.name)

    def __len__(self) -> int:
        return len(self.groups)

    def __iter__(self) -> Iterator[VertexGroup]:
        return iter(self.groups)

    def __getitem__(self, index: int) -> VertexGroup:
        return self.groups[index]

    def add(self, group: VertexGroup) -> None:
        """Append ``group``, enforcing name uniqueness."""
        if group.name in self._names:
            raise ValueError(f"duplicate group name {group.name!r}")
        self._names.add(group.name)
        self.groups.append(group)

    def sizes(self) -> list[int]:
        """Member counts of all groups, in collection order."""
        return [len(group) for group in self.groups]

    def filter_by_size(self, minimum: int = 1, maximum: int | None = None) -> "GroupSet":
        """Return a new :class:`GroupSet` keeping groups with
        ``minimum <= |C| <= maximum``."""
        kept = [
            group
            for group in self.groups
            if len(group) >= minimum and (maximum is None or len(group) <= maximum)
        ]
        return GroupSet(groups=kept, name=self.name)

    def top_k(self, k: int) -> "GroupSet":
        """Return the ``k`` largest groups (ties broken by name), as the
        paper does for the LiveJournal/Orkut top-5000 communities."""
        ranked = sorted(self.groups, key=lambda g: (-len(g), g.name))[:k]
        return GroupSet(groups=ranked, name=self.name)

    def restrict_to(self, nodes: Iterable[Node]) -> "GroupSet":
        """Intersect every group with ``nodes``, dropping emptied groups.

        Used when a group file references vertices outside the loaded graph
        (common in sampled/synthetic settings).
        """
        universe = frozenset(nodes)
        kept: list[VertexGroup] = []
        for group in self.groups:
            members = group.members & universe
            if members:
                kept.append(type(group)(**{**_group_fields(group), "members": members}))
        return GroupSet(groups=kept, name=self.name)

    def member_universe(self) -> frozenset[Node]:
        """The union of all group member sets."""
        universe: set[Node] = set()
        for group in self.groups:
            universe |= group.members
        return frozenset(universe)


def _group_fields(group: VertexGroup) -> dict:
    """Return constructor kwargs of a group (dataclass fields by name)."""
    fields = {"name": group.name, "members": group.members}
    if isinstance(group, Circle):
        fields["owner"] = group.owner
    return fields


_GROUP_KINDS = {"group": VertexGroup, "circle": Circle, "community": Community}

#: Format marker of the sidecar written next to on-disk CSR stores so
#: ``repro score --mmap-dir`` can rescore stored groups without the
#: generator that produced them.
GROUPS_FORMAT = "repro-groups"
GROUPS_VERSION = 1


def save_groups(groups: GroupSet, path: str | Path) -> Path:
    """Serialize a :class:`GroupSet` as a JSON sidecar file.

    Members must be JSON-representable labels (int or str — the labels
    an on-disk CSR store can carry).  The write is atomic (scratch file
    + ``os.replace``) so a crashed freeze never leaves a torn sidecar.
    """
    path = Path(path)
    records = []
    for group in groups:
        for member in group.members:
            if not isinstance(member, (int, str)) or isinstance(member, bool):
                raise FormatError(
                    f"group {group.name!r} has non-JSON member "
                    f"{member!r} ({type(member).__name__})"
                )
        record: dict = {
            "kind": group.kind,
            "name": group.name,
            "members": sorted(group.members, key=lambda v: (str(type(v)), v)),
        }
        if isinstance(group, Circle) and group.owner is not None:
            record["owner"] = group.owner
        records.append(record)
    payload = {
        "format": GROUPS_FORMAT,
        "version": GROUPS_VERSION,
        "name": groups.name,
        "groups": records,
    }
    scratch = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    os.replace(scratch, path)
    return path


def load_groups(path: str | Path) -> GroupSet:
    """Load a :class:`GroupSet` written by :func:`save_groups`."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != GROUPS_FORMAT:
        raise FormatError(f"{path}: not a {GROUPS_FORMAT} file")
    if int(payload.get("version", 0)) > GROUPS_VERSION:
        raise FormatError(
            f"{path}: version {payload['version']} is newer than "
            f"supported ({GROUPS_VERSION})"
        )
    groups = GroupSet(name=str(payload.get("name", "")))
    for record in payload["groups"]:
        kind = _GROUP_KINDS.get(record.get("kind", "group"))
        if kind is None:
            raise FormatError(f"{path}: unknown group kind {record['kind']!r}")
        fields: dict = {
            "name": record["name"],
            "members": frozenset(record["members"]),
        }
        if kind is Circle:
            fields["owner"] = record.get("owner")
        groups.add(kind(**fields))
    return groups
