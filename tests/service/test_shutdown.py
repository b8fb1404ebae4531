"""Graceful-shutdown contracts: drain answers what was queued, drain
refuses what was not, and no shared-memory segment survives teardown."""

from __future__ import annotations

import asyncio
import json
from multiprocessing import shared_memory

import pytest

from repro.engine import AnalysisContext, GroupIds
from repro.scoring import PAPER_FUNCTION_NAMES, make_function
from repro.service import (
    CircleService,
    MicroBatcher,
    ResidentDataset,
    ServiceConfig,
)
from repro.service.http import Request
from tests.service.conftest import SERVICE_TEST_CONFIG

from repro.synth.community_graph import generate_community_graph


def _score_request(dataset: str) -> Request:
    return Request(
        method="GET",
        target=f"/v1/datasets/{dataset}/score",
        path=f"/v1/datasets/{dataset}/score",
        query={},
        headers={},
        body=b"",
    )


def test_shutdown_mid_batch_drains_and_closes_executors(service_root):
    """Shut down while a parallel batch is still queued: the queued
    request completes, and every resident executor is torn down."""

    async def harness():
        service = CircleService(
            ServiceConfig(
                root=service_root,
                port=0,
                jobs=2,
                cache=False,
                batch_window=0.2,
            )
        )
        await service.start()
        response = await service.dispatch(_score_request("alpha"))
        assert response.status == 200
        entry = service.registry.acquire("alpha")
        service.registry.release(entry)
        assert entry.executor() is not None

        # Leave a second batch queued (long window) and shut down while
        # it is still pending: drain must flush it before teardown.
        pending = asyncio.ensure_future(
            service.dispatch(_score_request("beta"))
        )
        await asyncio.sleep(0)  # let the request reach the batcher
        await service.shutdown()
        late = await pending
        return entry, late

    entry, late = asyncio.run(harness())
    assert late.status == 200
    assert entry._executor is None  # registry.close() reached it


def test_mid_batch_teardown_leaves_no_shm_orphans():
    """ISSUE criterion, exercised where shared memory is actually used.

    Stores opened from disk export CSR buffers as *file references*
    (zero segments — nothing to orphan); a RAM-resident context is the
    path that creates kernel-backed segments.  Submit through the real
    micro-batcher, drain mid-window, tear the entry down the way
    ``DatasetRegistry.close`` does, and prove every segment name is
    unlinked."""

    graph, groups = generate_community_graph(
        SERVICE_TEST_CONFIG, seed=33, name="ram"
    )
    entry = ResidentDataset(
        "ram", AnalysisContext(graph), groups, jobs=2
    )
    functions = [make_function(name) for name in PAPER_FUNCTION_NAMES]
    group = next(iter(entry.groups))
    members = sorted(group.members)
    ids = GroupIds.from_labels(entry.context, [members], names=[group.name])

    async def harness():
        executor = entry.executor()
        assert executor is not None
        executor._ensure_pool()
        names = [seg.name for seg in executor._shared._segments]
        assert names, "RAM-resident arrays must export via shm segments"

        batcher = MicroBatcher(window=0.5, max_batch=64)
        pending = asyncio.ensure_future(
            batcher.submit(
                ("ram", tuple(PAPER_FUNCTION_NAMES), entry.fingerprint),
                entry.context,
                functions,
                executor,
                ids,
            )
        )
        await asyncio.sleep(0)
        await batcher.drain()  # mid-window: flushes, does not drop
        sizes, rows = await pending
        assert sizes == [len(set(members))]
        assert len(rows[0]) == len(PAPER_FUNCTION_NAMES)
        entry.evicted = True
        entry.close()  # what DatasetRegistry.close() runs per entry
        return names

    names = asyncio.run(harness())
    assert names
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_drain_answers_queued_requests(service_root):
    """Requests accepted before shutdown complete with real payloads
    even when shutdown starts inside their batch window."""

    async def harness():
        service = CircleService(
            ServiceConfig(
                root=service_root, port=0, cache=False, batch_window=0.2
            )
        )
        await service.start()
        queued = [
            asyncio.ensure_future(service.dispatch(_score_request("alpha")))
            for _ in range(3)
        ]
        await asyncio.sleep(0)
        await service.shutdown()  # well inside the 200 ms window
        return await asyncio.gather(*queued)

    responses = asyncio.run(harness())
    assert [r.status for r in responses] == [200, 200, 200]
    for response in responses:
        payload = json.loads(response.body)
        assert payload["groups"]


def test_draining_service_returns_503(service_root):
    async def harness():
        service = CircleService(
            ServiceConfig(root=service_root, port=0, cache=False)
        )
        await service.start()
        service._draining = True
        try:
            return await service.dispatch(_score_request("alpha"))
        finally:
            service._draining = False
            await service.shutdown()

    response = asyncio.run(harness())
    assert response.status == 503
    assert b"shutting down" in response.body


def test_shutdown_is_idempotent(service_root):
    async def harness():
        service = CircleService(
            ServiceConfig(root=service_root, port=0, cache=False)
        )
        await service.start()
        await service.dispatch(_score_request("alpha"))
        await service.shutdown()
        await service.shutdown()  # second call must be a clean no-op
        return service.registry.resident_names()

    assert asyncio.run(harness()) == []
