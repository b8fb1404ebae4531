"""Vertex-group data model tests."""

import pytest

from repro.data.groups import Circle, Community, GroupSet, VertexGroup
from repro.engine.delta import ContextDelta
from repro.exceptions import EmptyGroupError


class TestVertexGroup:
    def test_basic_protocols(self):
        group = VertexGroup(name="g", members=frozenset({1, 2, 3}))
        assert len(group) == 3
        assert 2 in group
        assert set(group) == {1, 2, 3}

    def test_members_coerced_to_frozenset(self):
        group = VertexGroup(name="g", members={1, 2})  # type: ignore[arg-type]
        assert isinstance(group.members, frozenset)

    def test_empty_rejected(self):
        with pytest.raises(EmptyGroupError):
            VertexGroup(name="empty", members=frozenset())

    def test_overlap_and_jaccard(self):
        a = VertexGroup(name="a", members=frozenset({1, 2, 3}))
        b = VertexGroup(name="b", members=frozenset({2, 3, 4}))
        assert a.overlap(b) == frozenset({2, 3})
        assert a.jaccard(b) == pytest.approx(2 / 4)

    def test_jaccard_disjoint(self):
        a = VertexGroup(name="a", members=frozenset({1}))
        b = VertexGroup(name="b", members=frozenset({2}))
        assert a.jaccard(b) == 0.0

    def test_kinds(self):
        assert Circle(name="c", members=frozenset({1}), owner=9).kind == "circle"
        assert Community(name="m", members=frozenset({1})).kind == "community"
        assert VertexGroup(name="g", members=frozenset({1})).kind == "group"

    def test_circle_owner(self):
        circle = Circle(name="c", members=frozenset({1, 2}), owner=42)
        assert circle.owner == 42


class TestGroupSet:
    def _sample(self) -> GroupSet:
        return GroupSet(
            groups=[
                Community(name="a", members=frozenset(range(10))),
                Community(name="b", members=frozenset(range(4))),
                Community(name="c", members=frozenset(range(7))),
            ],
            name="sample",
        )

    def test_sequence_protocols(self):
        groups = self._sample()
        assert len(groups) == 3
        assert groups[1].name == "b"
        assert [g.name for g in groups] == ["a", "b", "c"]

    def test_duplicate_names_rejected_at_init(self):
        with pytest.raises(ValueError, match="duplicate group name 'x'"):
            GroupSet(
                groups=[
                    Community(name="y", members=frozenset({1})),
                    Community(name="x", members=frozenset({1})),
                    Community(name="x", members=frozenset({2})),
                    Community(name="y", members=frozenset({3})),
                ]
            )

    def test_add_enforces_uniqueness(self):
        groups = self._sample()
        with pytest.raises(ValueError):
            groups.add(Community(name="a", members=frozenset({1})))
        groups.add(Community(name="d", members=frozenset({1})))
        assert len(groups) == 4
        with pytest.raises(ValueError, match="duplicate group name 'd'"):
            groups.add(Community(name="d", members=frozenset({2})))
        assert [g.name for g in groups] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize(
        "derive",
        [
            lambda groups: groups.filter_by_size(minimum=5),
            lambda groups: groups.top_k(2),
            lambda groups: groups.restrict_to(range(5)),
            lambda groups: ContextDelta(
                add_members=(("b", 8),)
            ).apply_groups(groups),
        ],
        ids=["filter_by_size", "top_k", "restrict_to", "apply_groups"],
    )
    def test_derived_sets_enforce_uniqueness(self, derive):
        derived = derive(self._sample())
        kept = derived[0].name
        with pytest.raises(ValueError, match=f"duplicate group name {kept!r}"):
            derived.add(Community(name=kept, members=frozenset({1})))
        derived.add(Community(name="fresh", members=frozenset({1})))
        assert derived[-1].name == "fresh"

    def test_sizes(self):
        assert self._sample().sizes() == [10, 4, 7]

    def test_filter_by_size(self):
        filtered = self._sample().filter_by_size(minimum=5)
        assert [g.name for g in filtered] == ["a", "c"]
        bounded = self._sample().filter_by_size(minimum=1, maximum=6)
        assert [g.name for g in bounded] == ["b"]

    def test_top_k(self):
        top = self._sample().top_k(2)
        assert [g.name for g in top] == ["a", "c"]

    def test_top_k_tie_break_by_name(self):
        groups = GroupSet(
            groups=[
                Community(name="z", members=frozenset({1, 2})),
                Community(name="a", members=frozenset({3, 4})),
            ]
        )
        assert [g.name for g in groups.top_k(1)] == ["a"]

    def test_restrict_to_drops_and_intersects(self):
        restricted = self._sample().restrict_to(range(5))
        by_name = {g.name: g for g in restricted}
        assert set(by_name) == {"a", "b", "c"}
        assert by_name["a"].members == frozenset(range(5))
        fully = self._sample().restrict_to([100])
        assert len(fully) == 0

    def test_restrict_preserves_circle_owner(self):
        groups = GroupSet(
            groups=[Circle(name="c", members=frozenset({1, 2}), owner=9)]
        )
        restricted = groups.restrict_to([1])
        assert isinstance(restricted[0], Circle)
        assert restricted[0].owner == 9

    def test_member_universe(self):
        assert self._sample().member_universe() == frozenset(range(10))


class TestGroupsJsonRoundTrip:
    def _sample_set(self) -> GroupSet:
        return GroupSet(
            name="sidecar",
            groups=[
                VertexGroup(name="plain", members=frozenset({3, 1, 2})),
                Circle(name="ring", members=frozenset({"a", "b"}), owner="me"),
                Circle(name="anon", members=frozenset({"x"})),
                Community(name="comm", members=frozenset({5, 6})),
            ],
        )

    def test_round_trip_preserves_kinds_names_and_members(self, tmp_path):
        from repro.data import load_groups, save_groups

        path = save_groups(self._sample_set(), tmp_path / "groups.json")
        loaded = load_groups(path)
        assert loaded.name == "sidecar"
        by_name = {group.name: group for group in loaded}
        assert type(by_name["plain"]) is VertexGroup
        assert type(by_name["ring"]) is Circle
        assert type(by_name["comm"]) is Community
        assert by_name["ring"].owner == "me"
        assert by_name["anon"].owner is None
        for original in self._sample_set():
            assert by_name[original.name].members == original.members

    def test_non_json_member_rejected(self, tmp_path):
        from repro.data import save_groups
        from repro.exceptions import FormatError

        bad = GroupSet(
            groups=[VertexGroup(name="g", members=frozenset({(1, 2)}))]
        )
        with pytest.raises(FormatError, match="non-JSON member"):
            save_groups(bad, tmp_path / "groups.json")

    def test_load_rejects_foreign_files(self, tmp_path):
        from repro.data import load_groups
        from repro.exceptions import FormatError

        path = tmp_path / "groups.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(FormatError, match="not a repro-groups"):
            load_groups(path)

    def test_load_rejects_repeated_names(self, tmp_path):
        import json

        from repro.data import load_groups, save_groups

        path = save_groups(self._sample_set(), tmp_path / "groups.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["groups"].append(dict(payload["groups"][1], members=["z"]))
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="duplicate group name 'ring'"):
            load_groups(path)

    def test_load_rejects_newer_versions(self, tmp_path):
        import json

        from repro.data import load_groups, save_groups
        from repro.exceptions import FormatError

        path = save_groups(self._sample_set(), tmp_path / "groups.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match="newer"):
            load_groups(path)
