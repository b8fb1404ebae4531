"""End-to-end API tests: routes, error mapping, ETag/304, caching tiers.

Each test starts a real service on an ephemeral port (``service_runner``
fixture) and talks real HTTP over a real socket.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import instruments
from repro.service import CircleService, ServiceConfig
from repro.service.http import Request
from tests.data.sidecar_damage import DAMAGES, damage_sidecar
from tests.engine.store_damage import STORE_DAMAGES, damage_store
from tests.service.conftest import freeze_dataset


class TestSimpleEndpoints:
    def test_health_lists_datasets(self, service_runner):
        async def scenario(service, client):
            return await client.get_json("/v1/health")

        status, _, payload = service_runner(scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["datasets"] == ["alpha", "beta"]
        assert payload["resident"] == []

    def test_datasets_and_residency(self, service_runner):
        async def scenario(service, client):
            await client.get_json("/v1/datasets/alpha")
            return await client.get_json("/v1/datasets")

        status, _, payload = service_runner(scenario)
        assert status == 200
        assert {"name": "alpha", "resident": True} in payload["datasets"]
        assert {"name": "beta", "resident": False} in payload["datasets"]

    def test_dataset_detail_carries_fingerprint(self, service_runner):
        async def scenario(service, client):
            return await client.get_json("/v1/datasets/alpha")

        status, _, payload = service_runner(scenario)
        assert status == 200
        assert payload["name"] == "alpha"
        assert payload["vertices"] > 0 and payload["edges"] > 0
        assert len(payload["fingerprint"]) == 16

    def test_groups_listing(self, service_runner):
        async def scenario(service, client):
            return await client.get_json("/v1/datasets/alpha/groups")

        status, _, payload = service_runner(scenario)
        assert status == 200
        assert payload["dataset"] == "alpha"
        assert all(g["size"] > 0 for g in payload["groups"])
        assert all(g["kind"] == "community" for g in payload["groups"])

    def test_metrics_endpoint_snapshots_registry(self, service_runner):
        async def scenario(service, client):
            return await client.get_json("/v1/metrics")

        status, _, payload = service_runner(scenario)
        assert status == 200
        assert "service.requests" in payload


def _dispatch_broken_routes(root):
    """Dispatch every dataset route of the store ``broken`` under
    ``root`` to a fresh service; return the responses."""
    body = json.dumps(
        {"groups": [{"name": "adhoc", "members": [0, 1, 2]}]}
    ).encode("utf-8")
    requests = [
        ("GET", "/v1/datasets/broken", b""),
        ("GET", "/v1/datasets/broken/groups", b""),
        ("GET", "/v1/datasets/broken/score", b""),
        ("POST", "/v1/datasets/broken/score", body),
    ]

    async def harness():
        service = CircleService(ServiceConfig(root=root, port=0, cache=False))
        await service.start()
        try:
            return [
                await service.dispatch(
                    Request(method, path, path, {}, {}, payload)
                )
                for method, path, payload in requests
            ]
        finally:
            await service.shutdown()

    return asyncio.run(harness())


class TestErrorMapping:
    def test_unknown_dataset_404(self, service_runner):
        async def scenario(service, client):
            return await client.get_json("/v1/datasets/nope/score")

        status, _, payload = service_runner(scenario)
        assert status == 404
        assert "unknown dataset" in payload["error"]["message"]

    def test_path_traversal_404(self, service_runner):
        async def scenario(service, client):
            return await client.request("GET", "/v1/datasets/%2e%2e/score")

        status, _, _ = service_runner(scenario)
        assert status == 404

    def test_unknown_group_404(self, service_runner):
        async def scenario(service, client):
            return await client.get_json(
                "/v1/datasets/alpha/score?groups=ghost"
            )

        status, _, payload = service_runner(scenario)
        assert status == 404
        assert "ghost" in payload["error"]["message"]

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_sidecar_is_an_unknown_dataset(self, tmp_path, damage):
        """A store whose groups.json is damaged answers 404 on every
        dataset route, like any other unusable store."""
        freeze_dataset(tmp_path, "broken", seed=11)
        damage_sidecar(tmp_path / "broken" / "groups.json", damage)
        for response in _dispatch_broken_routes(tmp_path):
            assert response.status == 404
            message = json.loads(response.body)["error"]["message"]
            assert "unknown dataset" in message and "groups.json" in message

    @pytest.mark.parametrize("damage", sorted(STORE_DAMAGES))
    def test_damaged_store_metadata_is_an_unknown_dataset(
        self, tmp_path, damage
    ):
        """A missing array file or a damaged ``meta.json`` answers 404
        naming the file on every dataset route, not a 500."""
        freeze_dataset(tmp_path, "broken", seed=11)
        name = damage_store(tmp_path / "broken", damage)
        for response in _dispatch_broken_routes(tmp_path):
            assert response.status == 404
            message = json.loads(response.body)["error"]["message"]
            assert "unknown dataset" in message and name in message

    def test_malformed_group_list_400(self, service_runner):
        async def scenario(service, client):
            return await client.get_json(
                "/v1/datasets/alpha/score?groups=a,,b"
            )

        status, _, payload = service_runner(scenario)
        assert status == 400
        assert "malformed" in payload["error"]["message"]

    def test_unknown_function_400(self, service_runner):
        async def scenario(service, client):
            return await client.get_json(
                "/v1/datasets/alpha/score?functions=bogus"
            )

        status, _, payload = service_runner(scenario)
        assert status == 400
        assert "unknown scoring function" in payload["error"]["message"]

    def test_unmatched_path_404(self, service_runner):
        async def scenario(service, client):
            return await client.get_json("/v2/whatever")

        status, _, _ = service_runner(scenario)
        assert status == 404

    def test_malformed_target_400(self, service_runner):
        """An unparseable target is answered, not a dropped connection."""

        async def scenario(service, client):
            return await client.raw(b"GET //[ HTTP/1.1\r\nHost: x\r\n\r\n")

        status, headers, body = service_runner(scenario)
        assert status == 400
        assert headers["connection"] == "close"
        assert b"malformed request target" in body

    def test_wrong_method_405(self, service_runner):
        async def scenario(service, client):
            return await client.request(
                "POST", "/v1/health", body=b"{}"
            )

        status, _, _ = service_runner(scenario)
        assert status == 405

    def test_compare_needs_two_datasets(self, service_runner):
        async def scenario(service, client):
            first = await client.get_json("/v1/compare")
            second = await client.get_json("/v1/compare?datasets=alpha")
            return first, second

        (s1, _, _), (s2, _, _) = service_runner(scenario)
        assert s1 == 400 and s2 == 400


class TestPostValidation:
    def post(self, service_runner, payload):
        async def scenario(service, client):
            return await client.request(
                "POST",
                "/v1/datasets/alpha/score",
                body=json.dumps(payload).encode(),
            )

        status, headers, body = service_runner(scenario)
        return status, json.loads(body) if body else None

    def test_adhoc_groups_score(self, service_runner):
        status, payload = self.post(
            service_runner,
            {"groups": [{"name": "mine", "members": [0, 1, 2, 3]}]},
        )
        assert status == 200
        assert payload["groups"][0]["name"] == "mine"
        assert payload["groups"][0]["size"] == 4

    def test_member_not_in_graph_400(self, service_runner):
        status, payload = self.post(
            service_runner,
            {"groups": [{"name": "g", "members": [999999]}]},
        )
        assert status == 400
        assert "not in dataset" in payload["error"]["message"]

    def test_non_object_body_400(self, service_runner):
        async def scenario(service, client):
            return await client.request(
                "POST", "/v1/datasets/alpha/score", body=b"[1,2]"
            )

        status, _, _ = service_runner(scenario)
        assert status == 400

    def test_malformed_members_400(self, service_runner):
        for bad in (
            {"groups": []},
            {"groups": [{"name": "g", "members": []}]},
            {"groups": [{"name": "", "members": [1]}]},
            {"groups": [{"name": "g", "members": [1.5]}]},
            {"groups": [{"name": "g", "members": [True]}]},
            {"groups": [
                {"name": "g", "members": [1]},
                {"name": "g", "members": [2]},
            ]},
        ):
            status, _ = self.post(service_runner, bad)
            assert status == 400, bad


class TestEtagAndCaching:
    def test_etag_revalidation_304(self, service_runner):
        async def scenario(service, client):
            status, headers, payload = await client.get_json(
                "/v1/datasets/alpha/score"
            )
            etag = headers["etag"]
            status2, headers2, body2 = await client.request(
                "GET",
                "/v1/datasets/alpha/score",
                headers={"If-None-Match": etag},
            )
            return status, etag, payload, status2, headers2, body2

        status, etag, payload, status2, headers2, body2 = service_runner(
            scenario
        )
        assert status == 200
        assert etag == f'"{payload["etag"]}"' if "etag" in payload else etag
        assert status2 == 304
        assert body2 == b""
        assert headers2["etag"] == etag

    def test_repeat_query_hits_memory_cache(self, service_runner):
        async def scenario(service, client):
            await client.get_json("/v1/datasets/alpha/score")
            before = instruments.SERVICE_MEMORY_HITS.total()
            _, _, repeat = await client.get_json("/v1/datasets/alpha/score")
            return before, instruments.SERVICE_MEMORY_HITS.total(), repeat

        before, after, _ = service_runner(scenario)
        assert after == before + 1

    def test_cache_io_histograms_time_a_disk_hit_and_a_write(
        self, service_runner, tmp_path
    ):
        cache_dir = tmp_path / "cache"

        async def warm(service, client):
            return await client.request("GET", "/v1/datasets/alpha/score")

        assert service_runner(warm, cache=cache_dir)[0] == 200

        async def scenario(service, client):
            _, _, before = await client.get_json("/v1/metrics")
            hit = await client.request("GET", "/v1/datasets/alpha/score")
            post = await client.request(
                "POST",
                "/v1/datasets/alpha/score",
                body=json.dumps(
                    {"groups": [{"name": "mine", "members": [0, 1, 2, 3]}]}
                ).encode(),
            )
            _, _, after = await client.get_json("/v1/metrics")
            return hit[0], post[0], before, after

        hit, post, before, after = service_runner(scenario, cache=cache_dir)
        assert hit == 200 and post == 200
        for name in ("cache.read", "cache.write"):
            histogram = after[name]
            assert histogram["kind"] == "histogram"
            assert histogram["unit"] == "ms"
            assert histogram["edges"][0] == 0.01
            assert histogram["edges"][-1] == 1000
            # One read (the disk hit; the POST's miss finds no file) and
            # one write (the POST's computed table).
            assert histogram["count"] - before[name]["count"] == 1, name

    def test_distinct_queries_distinct_etags(self, service_runner):
        async def scenario(service, client):
            _, _, listing = await client.get_json(
                "/v1/datasets/alpha/groups"
            )
            names = [g["name"] for g in listing["groups"]]
            _, h1, _ = await client.get_json(
                f"/v1/datasets/alpha/score?groups={names[0]}"
            )
            _, h2, _ = await client.get_json(
                f"/v1/datasets/alpha/score?groups={names[1]}"
            )
            _, h3, _ = await client.get_json(
                "/v1/datasets/alpha/score?functions=conductance"
            )
            _, h4, _ = await client.get_json("/v1/datasets/alpha/score")
            return [h["etag"] for h in (h1, h2, h3, h4)]

        etags = service_runner(scenario)
        assert len(set(etags)) == 4

    def test_compare_summaries_and_304(self, service_runner):
        async def scenario(service, client):
            status, headers, payload = await client.get_json(
                "/v1/compare?datasets=alpha,beta"
            )
            status2, _, _ = await client.request(
                "GET",
                "/v1/compare?datasets=alpha,beta",
                headers={"If-None-Match": headers["etag"]},
            )
            return status, payload, status2

        status, payload, status2 = service_runner(scenario)
        assert status == 200
        assert [d["name"] for d in payload["datasets"]] == ["alpha", "beta"]
        assert all("summary" in d for d in payload["datasets"])
        assert status2 == 304


def _concurrent_one_group_scores(service_runner, client_class, **config):
    """Six one-group score queries sent at once over six connections;
    returns their responses and the batches flushed meanwhile."""

    async def scenario(service, client):
        _, _, listing = await client.get_json("/v1/datasets/alpha/groups")
        names = [g["name"] for g in listing["groups"]]
        clients = [client_class(*service.address) for _ in range(6)]
        for extra in clients:
            await extra.connect()
        before = instruments.SERVICE_BATCHES.total()
        try:
            results = await asyncio.gather(
                *(
                    extra.get_json(f"/v1/datasets/alpha/score?groups={name}")
                    for extra, name in zip(clients, names)
                )
            )
        finally:
            for extra in clients:
                await extra.close()
        flushed = instruments.SERVICE_BATCHES.total() - before
        return results, flushed

    results, flushed = service_runner(scenario, **config)
    assert all(status == 200 for status, _, _ in results)
    for status, _, payload in results:
        assert len(payload["groups"]) == 1
    return flushed


class TestConcurrency:
    def test_concurrent_requests_micro_batch(self, service_runner, client_class):
        """Parallel identical-shape queries coalesce into few batches."""
        flushed = _concurrent_one_group_scores(
            service_runner, client_class, batch_window=0.05
        )
        # Six concurrent one-group queries inside one 50 ms window must
        # not cost six engine invocations.
        assert 1 <= flushed < 6

    def test_concurrent_requests_micro_batch_at_default_window(
        self, service_runner, client_class
    ):
        """With no window, queries parsed in one loop turn or queued
        behind a computing batch still share an engine invocation."""
        flushed = _concurrent_one_group_scores(service_runner, client_class)
        assert 1 <= flushed < 6
