"""Group-commit micro-batching: when a batch starts, what it holds, and
how a failure or a drain reaches every request waiting on it.

A key's next batch starts once no batch of that key is computing and its
oldest request has waited the batcher's window (0 by default); requests
that arrive while a batch computes form the next batch, and a batch of
``max_batch`` groups starts at once.  The scorer is replaced by
:class:`GatedScorer`, which holds the first batch on a
:class:`threading.Event`, so each test decides exactly what arrives while
a batch computes.  Every answered slice is compared bitwise with
:func:`repro.scoring.score_groups` over the request's own groups.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading

import numpy as np
import pytest

import repro.service.batching as batching
from repro import obs
from repro.data.groups import load_groups
from repro.engine import AnalysisContext, GroupIds
from repro.obs import instruments
from repro.scoring import PAPER_FUNCTION_NAMES, make_function, score_groups
from repro.service import CircleService, MicroBatcher, ServiceConfig
from repro.service.http import Request

#: Seconds any test waits on another thread or on a batch before failing.
TIMEOUT = 10.0
KEY = ("alpha", tuple(PAPER_FUNCTION_NAMES), "fingerprint")
FUNCTIONS = [make_function(name) for name in PAPER_FUNCTION_NAMES]


@pytest.fixture(scope="module")
def alpha(service_root):
    """The ``alpha`` store and its stored groups as one ``GroupIds``."""
    store = service_root / "alpha"
    context = AnalysisContext.open(store)
    groups = load_groups(store / "groups.json")
    ids = GroupIds.from_labels(
        context,
        [group.members for group in groups],
        names=[group.name for group in groups],
        restrict=True,
    )
    assert len(ids) >= 5
    return context, ids


@pytest.fixture
def metrics():
    obs.disable()
    obs.REGISTRY.reset()
    obs.enable_metrics()
    yield
    obs.disable()
    obs.REGISTRY.reset()


class GatedScorer:
    """Stands in for the batcher's scorer ``score_ids``: records each
    call's group count, holds the first call until :attr:`release` is
    set, and optionally makes that first call raise."""

    def __init__(self, *, fail_first: bool = False) -> None:
        self.real = batching.score_ids
        self.fail_first = fail_first
        self.calls: list[int] = []
        self.first_entered = threading.Event()
        self.second_entered = threading.Event()
        self.release = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, context, groups, functions, executor):
        with self._lock:
            self.calls.append(len(groups))
            first = len(self.calls) == 1
        if not first:
            self.second_entered.set()
        else:
            self.first_entered.set()
            if not self.release.wait(TIMEOUT):
                raise TimeoutError("the held batch was never released")
            if self.fail_first:
                raise RuntimeError("scorer failed")
        return self.real(context, groups, functions, executor)


@pytest.fixture
def gated(monkeypatch):
    def install(**kwargs) -> GatedScorer:
        scorer = GatedScorer(**kwargs)
        monkeypatch.setattr(batching, "score_ids", scorer)
        return scorer

    return install


def _part(ids: GroupIds, start: int, stop: int) -> GroupIds:
    """Groups ``start .. stop - 1`` of ``ids``, names kept."""
    keep = np.zeros(len(ids), dtype=bool)
    keep[start:stop] = True
    return ids.select(keep)


async def _wait_event(event: threading.Event) -> bool:
    return await asyncio.get_running_loop().run_in_executor(
        None, event.wait, TIMEOUT
    )


def _assert_matches_score_groups(context, ids: GroupIds, result) -> None:
    sizes, rows = result
    table = score_groups(context, ids, FUNCTIONS, cache=False)
    assert list(sizes) == table.group_sizes
    assert rows.shape == (len(ids), len(FUNCTIONS))
    for j, function in enumerate(FUNCTIONS):
        served = np.ascontiguousarray(rows[:, j])
        assert served.tobytes() == table.columns[function.name].tobytes()


@pytest.mark.parametrize("window", [math.inf, math.nan, -0.1])
def test_non_finite_or_negative_window_is_rejected(service_root, window):
    """An infinite window used to hold every uncached request forever."""
    with pytest.raises(ValueError, match="window"):
        MicroBatcher(window=window)
    with pytest.raises(ValueError, match="window"):
        CircleService(
            ServiceConfig(root=service_root, cache=False, batch_window=window)
        )


def test_lone_request_starts_on_next_turn_at_default_window(
    alpha, monkeypatch
):
    """With the loop's clock stopped no timer of positive delay can fire,
    so a lone request's batch must start without waiting on one."""
    context, ids = alpha
    one = _part(ids, 0, 1)
    called = threading.Event()
    real = batching.score_ids

    def recording(*args):
        called.set()
        return real(*args)

    monkeypatch.setattr(batching, "score_ids", recording)

    async def scenario():
        loop = asyncio.get_running_loop()
        batcher = MicroBatcher()
        frozen = loop.time()
        loop.time = lambda: frozen
        try:
            task = asyncio.ensure_future(
                batcher.submit(KEY, context, FUNCTIONS, None, one)
            )
            started = await _wait_event(called)
        finally:
            del loop.time
        return batcher.window, started, await asyncio.wait_for(task, TIMEOUT)

    window, started, result = asyncio.run(scenario())
    assert started, "the batch waited on a timer"
    assert window == 0
    _assert_matches_score_groups(context, one, result)


def test_requests_queued_behind_a_batch_form_one_batch(alpha, gated, metrics):
    context, ids = alpha
    scorer = gated()
    first = _part(ids, 0, 1)
    queued = [_part(ids, 1, 2), _part(ids, 2, 3), _part(ids, 3, 5)]

    async def scenario():
        batcher = MicroBatcher()
        head = asyncio.ensure_future(
            batcher.submit(KEY, context, FUNCTIONS, None, first)
        )
        try:
            assert await _wait_event(scorer.first_entered)
            before = instruments.SERVICE_BATCHES.total()
            tails = []
            for groups in queued:
                tails.append(
                    asyncio.ensure_future(
                        batcher.submit(KEY, context, FUNCTIONS, None, groups)
                    )
                )
                await asyncio.sleep(0)
            await asyncio.sleep(0.05)
            assert scorer.calls == [1], "a queued request started early"
        finally:
            scorer.release.set()
        results = await asyncio.wait_for(
            asyncio.gather(head, *tails), TIMEOUT
        )
        return results, instruments.SERVICE_BATCHES.total() - before

    results, flushed = asyncio.run(scenario())
    assert flushed == 1
    assert scorer.calls == [1, 4]
    for groups, result in zip([first, *queued], results):
        _assert_matches_score_groups(context, groups, result)
    wait = instruments.SERVICE_BATCH_WAIT.snapshot()
    assert wait["count"] == 4
    edges = wait["edges"]
    # The queued requests waited out the 50 ms hold, well past 20 ms.
    assert sum(wait["counts"][edges.index(20) + 1 :]) >= 3
    assert instruments.SERVICE_BATCH_SIZE.snapshot()["count"] == 2


def test_full_batch_starts_while_another_computes(alpha, gated):
    context, ids = alpha
    scorer = gated()
    first = _part(ids, 0, 1)
    pending = [_part(ids, 1, 3), _part(ids, 3, 4)]

    async def scenario():
        batcher = MicroBatcher(max_batch=3)
        head = asyncio.ensure_future(
            batcher.submit(KEY, context, FUNCTIONS, None, first)
        )
        try:
            assert await _wait_event(scorer.first_entered)
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(
                        batcher.submit(KEY, context, FUNCTIONS, None, groups)
                        for groups in pending
                    )
                ),
                TIMEOUT,
            )
            head_done = head.done()
        finally:
            scorer.release.set()
        return head_done, await asyncio.wait_for(head, TIMEOUT), results

    head_done, head_result, results = asyncio.run(scenario())
    assert not head_done
    assert scorer.calls == [1, 3]
    _assert_matches_score_groups(context, first, head_result)
    for groups, result in zip(pending, results):
        _assert_matches_score_groups(context, groups, result)


def _score_request(dataset: str, group: str) -> Request:
    return Request(
        method="GET",
        target=f"/v1/datasets/{dataset}/score?groups={group}",
        path=f"/v1/datasets/{dataset}/score",
        query={"groups": group},
        headers={},
        body=b"",
    )


def test_failed_batch_fails_its_requests_and_the_next_batch_scores(
    service_root, alpha, gated
):
    context, ids = alpha
    scorer = gated(fail_first=True)
    names = list(ids.names)

    async def scenario():
        service = CircleService(ServiceConfig(root=service_root, cache=False))
        try:
            failing = [
                asyncio.ensure_future(
                    service.dispatch(_score_request("alpha", name))
                )
                for name in names[:2]
            ]
            try:
                assert await _wait_event(scorer.first_entered)
                behind = asyncio.ensure_future(
                    service.dispatch(_score_request("alpha", names[2]))
                )
                await asyncio.sleep(0)
            finally:
                scorer.release.set()
            return await asyncio.wait_for(
                asyncio.gather(*failing, behind), TIMEOUT
            )
        finally:
            await service.shutdown()

    *failed, answered = asyncio.run(scenario())
    assert scorer.calls == [2, 1]
    for response in failed:
        assert response.status == 500
        assert b"RuntimeError: scorer failed" in response.body
    assert answered.status == 200
    payload = json.loads(answered.body)
    table = score_groups(context, _part(ids, 2, 3), FUNCTIONS, cache=False)
    [group] = payload["groups"]
    assert group["name"] == names[2]
    assert group["size"] == table.group_sizes[0]
    for function in FUNCTIONS:
        served = np.float64(group["scores"][function.name])
        assert served.tobytes() == table.columns[function.name].tobytes()


def test_drain_answers_requests_queued_behind_a_computing_batch(
    alpha, gated
):
    context, ids = alpha
    scorer = gated()
    first = _part(ids, 0, 1)
    queued = [_part(ids, 1, 2), _part(ids, 2, 4)]

    async def scenario():
        batcher = MicroBatcher()
        head = asyncio.ensure_future(
            batcher.submit(KEY, context, FUNCTIONS, None, first)
        )
        try:
            assert await _wait_event(scorer.first_entered)
            tails = [
                asyncio.ensure_future(
                    batcher.submit(KEY, context, FUNCTIONS, None, groups)
                )
                for groups in queued
            ]
            await asyncio.sleep(0)
            drain = asyncio.ensure_future(batcher.drain())
            # The drain starts the queued batch at once, while the held
            # batch still computes.
            started_early = await _wait_event(scorer.second_entered)
        finally:
            scorer.release.set()
        await asyncio.wait_for(drain, TIMEOUT)
        assert started_early
        assert all(task.done() for task in (head, *tails))
        return [task.result() for task in (head, *tails)]

    results = asyncio.run(scenario())
    assert scorer.calls == [1, 3]
    for groups, result in zip([first, *queued], results):
        _assert_matches_score_groups(context, groups, result)


def test_metrics_endpoint_reports_batch_wait(service_runner):
    async def scenario(service, client):
        status, _, _ = await client.get_json("/v1/datasets/alpha/score")
        assert status == 200
        _, _, snapshot = await client.get_json("/v1/metrics")
        return snapshot

    wait = service_runner(scenario)["service.batch_wait"]
    assert wait["kind"] == "histogram"
    assert wait["unit"] == "ms"
    assert wait["edges"][0] == 0.1 and wait["edges"][-1] == 1000
    assert wait["count"] >= 1
