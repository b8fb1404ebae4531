"""Micro-batching: coalesce concurrent score requests into one kernel pass.

Under concurrent load many requests ask the same dataset for scores
within the same few milliseconds.  Scoring them one by one would pay
the batch kernel's setup per request; the engine is fastest when it
sees *many groups at once*.  The :class:`MicroBatcher` therefore queues
requests per ``(dataset, functions)`` coalescing key, waits up to
``window`` seconds for siblings to arrive (flushing early at
``max_batch``), and runs the union of all pending groups — each
request's canonical :class:`~repro.engine.ids.GroupIds`, joined end to
end — through a single columnar
:func:`~repro.scoring.columnar.score_stats_columns` /
:meth:`~repro.engine.ParallelExecutor.score_groups` invocation.  Each
request then receives exactly its own slice of the combined sizes and
``(G, F)`` score matrix.

Scoring runs on a worker thread (``loop.run_in_executor``) so the event
loop keeps accepting connections while a batch computes.  Results are
byte-identical to a serial :func:`repro.scoring.registry.score_groups`
call because the serial/parallel split and the per-function evaluation
mirror that code path exactly.
"""

from __future__ import annotations

import asyncio
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine import AnalysisContext, GroupIds, ParallelExecutor
from repro.obs import instruments
from repro.scoring.base import ScoringFunction
from repro.scoring.columnar import score_stats_columns
from repro.scoring.internal import (
    FractionOverMedianDegree,
    TriangleParticipationRatio,
)

__all__ = ["MicroBatcher", "ScoreRequest", "score_member_lists"]


def score_member_lists(
    context: AnalysisContext,
    groups: GroupIds,
    functions: Sequence[ScoringFunction],
    executor: ParallelExecutor | None = None,
) -> tuple[list[int], np.ndarray]:
    """Score canonical id groups exactly like ``score_groups`` would.

    Returns per-group deduplicated sizes and the ``(G, F)`` float64
    score matrix (one column per function, in function order).  Serial
    and parallel alike take the ids: the shared columnar helper
    (:func:`~repro.scoring.columnar.score_stats_columns`) or the
    executor — the same split :func:`repro.scoring.registry.score_groups`
    makes, which is what keeps service responses byte-identical to CLI
    output.
    """
    median = (
        context.median_degree
        if any(isinstance(f, FractionOverMedianDegree) for f in functions)
        else None
    )
    include_adjacency = any(
        isinstance(f, TriangleParticipationRatio) for f in functions
    )
    if executor is not None and executor.active and len(groups):
        return executor.score_groups(
            groups,
            functions,
            graph_median_degree=median,
            include_internal_adjacency=include_adjacency,
        )
    return score_stats_columns(
        context,
        groups,
        functions,
        graph_median_degree=median,
        include_internal_adjacency=include_adjacency,
    )


@dataclass
class ScoreRequest:
    """One request's share of a micro-batch: its groups and its future."""

    groups: GroupIds
    future: asyncio.Future = field(repr=False)


@dataclass
class _BatchState:
    """Pending requests for one coalescing key plus the flush timer."""

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
    invocations (their GroupStats requirements differ).
    """

    def __init__(
        self, *, window: float = 0.005, max_batch: int = 64
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.window = window
        self.max_batch = max_batch
        self._states: dict[tuple, _BatchState] = {}
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
        request = ScoreRequest(groups=groups, future=loop.create_future())
        state.pending.append(request)
        if sum(len(r.groups) for r in state.pending) >= self.max_batch:
            self._flush(key)
        elif state.handle is None:
            state.handle = loop.call_later(
                self.window, self._flush, key
            )
        return await request.future

    def _flush(self, key: tuple) -> None:
        state = self._states.pop(key, None)
        if state is None or not state.pending:
            return
        if state.handle is not None:
            state.handle.cancel()
            state.handle = None
        task = asyncio.get_running_loop().create_task(
            self._run_batch(state)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(self, state: _BatchState) -> None:
        requests = state.pending
        instruments.SERVICE_BATCHES.inc()
        instruments.SERVICE_BATCH_SIZE.observe(len(requests))
        groups = GroupIds.concat([request.groups for request in requests])
        loop = asyncio.get_running_loop()
        try:
            sizes, rows = await loop.run_in_executor(
                None,
                score_member_lists,
                state.context,
                groups,
                state.functions,
                state.executor,
            )
        except BaseException as exc:  # repro: noqa[REP006] - fan the failure out to every waiter
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        offset = 0
        for request in requests:
            stop = offset + len(request.groups)
            if not request.future.done():
                request.future.set_result(
                    (sizes[offset:stop], rows[offset:stop])
                )
            offset = stop

    async def drain(self) -> None:
        """Flush every queue and wait for all in-flight batches.

        The graceful-shutdown path: requests already queued still get
        answers; nothing new may be submitted afterwards.
        """
        for key in list(self._states):
            self._flush(key)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    def __repr__(self) -> str:
        queued = sum(len(s.pending) for s in self._states.values())
        return (
            f"<MicroBatcher window={self.window} queued={queued} "
            f"inflight={len(self._inflight)}>"
        )
