"""Micro-batching: coalesce concurrent score requests into one kernel pass.

Under concurrent load many requests ask the same dataset for scores
within the same few milliseconds.  Scoring them one by one would pay
the batch kernel's setup per request; the engine is fastest when it
sees *many groups at once*.  The :class:`MicroBatcher` therefore queues
requests per ``(dataset, functions)`` coalescing key and runs the union
of a batch's groups — each request's canonical
:class:`~repro.engine.ids.GroupIds`, joined end to end — through one
:func:`repro.scoring.registry.score_ids` call, serial or across the
dataset's worker pool.  Each request then receives exactly its own slice
of the combined sizes and ``(G, F)`` score matrix.

Batches form by *group commit*: a key's next batch starts once no batch
of that key is computing and its oldest pending request has waited
``window`` seconds.  Requests that arrive while a batch computes queue
up and form the next batch, which that batch's completion starts; a
pending batch that reaches ``max_batch`` groups starts at once, even
beside a computing one.  With the default ``window`` of 0 an idle key
starts its batch on the next event-loop turn, so a lone request waits
for no siblings, while requests parsed in the same turn, or queued
behind a computing batch, still share one invocation.

Scoring runs on a worker thread (``loop.run_in_executor``) so the event
loop keeps accepting connections while a batch computes.  Results are
byte-identical to a serial :func:`repro.scoring.registry.score_groups`
call because ``score_groups`` scores its misses through the same
:func:`~repro.scoring.registry.score_ids`.
"""

from __future__ import annotations

import asyncio
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine import AnalysisContext, GroupIds, ParallelExecutor
from repro.obs import instruments
from repro.scoring.base import ScoringFunction
from repro.scoring.registry import score_ids

__all__ = ["MicroBatcher", "ScoreRequest"]


@dataclass
class ScoreRequest:
    """One request's share of a micro-batch: its groups, its future and
    its submission time on the event loop's clock."""

    groups: GroupIds
    future: asyncio.Future = field(repr=False)
    submitted: float


@dataclass
class _BatchState:
    """Pending requests for one coalescing key plus their start timer."""

    context: AnalysisContext
    functions: Sequence[ScoringFunction]
    executor: ParallelExecutor | None
    pending: list[ScoreRequest] = field(default_factory=list)
    handle: asyncio.TimerHandle | None = None


class MicroBatcher:
    """Request coalescer over the engine's batch scoring entry points.

    One instance serves every dataset; batches never mix coalescing
    keys, so a key is ``(dataset name, functions signature)`` — two
    requests scoring different function sets stay in separate kernel
    invocations (their stats-pass options differ).  ``window`` is
    the least time a batch's oldest request waits before the batch may
    start (see the module docstring for the group-commit rule).
    """

    def __init__(self, *, window: float = 0.0, max_batch: int = 64) -> None:
        if not (math.isfinite(window) and window >= 0):
            raise ValueError(
                f"window must be a finite number of seconds >= 0, got {window}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window = window
        self.max_batch = max_batch
        self._states: dict[tuple, _BatchState] = {}
        self._running: dict[tuple, int] = {}
        self._inflight: set[asyncio.Task] = set()

    async def submit(
        self,
        key: tuple,
        context: AnalysisContext,
        functions: Sequence[ScoringFunction],
        executor: ParallelExecutor | None,
        groups: GroupIds,
    ) -> tuple[list[int], np.ndarray]:
        """Queue one request under ``key``; await its slice of the batch."""
        loop = asyncio.get_running_loop()
        state = self._states.get(key)
        if state is None:
            state = _BatchState(
                context=context, functions=functions, executor=executor
            )
            self._states[key] = state
        request = ScoreRequest(
            groups=groups, future=loop.create_future(), submitted=loop.time()
        )
        state.pending.append(request)
        if sum(len(r.groups) for r in state.pending) >= self.max_batch:
            self._start(key)
        elif key not in self._running:
            self._arm(key)
        return await request.future

    def _arm(self, key: tuple) -> None:
        """Start ``key``'s pending batch once its oldest request has
        waited ``window`` (on the next loop turn if it already has)."""
        state = self._states[key]
        if state.handle is None:
            state.handle = asyncio.get_running_loop().call_at(
                state.pending[0].submitted + self.window, self._start, key
            )

    def _start(self, key: tuple) -> None:
        state = self._states.pop(key)
        if state.handle is not None:
            state.handle.cancel()
        self._running[key] = self._running.get(key, 0) + 1
        task = asyncio.get_running_loop().create_task(
            self._run_batch(key, state)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _finish(self, key: tuple) -> None:
        """Retire one computing batch; the last one arms the next."""
        running = self._running.pop(key) - 1
        if running:
            self._running[key] = running
        elif key in self._states:
            self._arm(key)

    async def _run_batch(self, key: tuple, state: _BatchState) -> None:
        requests = state.pending
        loop = asyncio.get_running_loop()
        started = loop.time()
        instruments.SERVICE_BATCHES.inc()
        instruments.SERVICE_BATCH_SIZE.observe(len(requests))
        instruments.SERVICE_BATCH_WAIT.observe_many(
            (started - request.submitted) * 1e3 for request in requests
        )
        try:
            groups = GroupIds.concat([request.groups for request in requests])
            # ``score_ids`` is read from this module's namespace at call
            # time, so tests can hold a batch by replacing it.
            sizes, rows = await loop.run_in_executor(
                None,
                score_ids,
                state.context,
                groups,
                state.functions,
                state.executor,
            )
        except BaseException as exc:  # repro: noqa[REP006] - fan the failure out to every waiter
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
        else:
            offset = 0
            for request in requests:
                stop = offset + len(request.groups)
                if not request.future.done():
                    request.future.set_result(
                        (sizes[offset:stop], rows[offset:stop])
                    )
                offset = stop
        finally:
            self._finish(key)

    async def drain(self) -> None:
        """Start every pending batch and wait until none is in flight.

        The graceful-shutdown path: requests already queued still get
        answers, including those queued behind a computing batch;
        nothing new may be submitted afterwards.
        """
        while self._states or self._inflight:
            for key in list(self._states):
                self._start(key)
            if self._inflight:
                await asyncio.gather(
                    *list(self._inflight), return_exceptions=True
                )

    def __repr__(self) -> str:
        queued = sum(len(s.pending) for s in self._states.values())
        return (
            f"<MicroBatcher window={self.window} queued={queued} "
            f"inflight={len(self._inflight)}>"
        )
