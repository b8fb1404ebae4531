"""HTTP load generator for the serve-mix workload.

:func:`run_phase` is an open loop: requests arrive on a seeded schedule
whatever the server does, and each latency is timed from the request's
due time, so a stall also charges the requests queued behind it.  At
most ``CONNECTIONS`` keep-alive connections carry the load; a request
that finds both busy waits in the generator's queue, which is the
backlog.  :func:`run_closed` keeps both connections busy back to back,
which measures the highest rate the server sustains over them.

The generator also measures itself: ``lag`` is how late its own timer
woke up for a due request.  Timer jitter is harmless, since latencies
are timed from due times, but a generator that is late as a rule measured
itself, not the server, and its run is marked invalid.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

CONNECTIONS = 2
#: A phase is invalid when the generator's median lag exceeds this (ms).
#: An idle 2-vCPU VM wakes asyncio timers about 0.8 ms late at the median
#: and 8 ms late at p99.
MAX_LAG_P50_MS = 2.0


@dataclass
class Job:
    due: float  # seconds after the phase start
    kind: str  # get | revalidate | post
    dataset: str
    raw: bytes  # full request bytes
    expect: int
    etag: str | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    job: Job
    latency: float
    status: int
    etag: str | None
    body: bytes


class Connection:
    """One keep-alive HTTP/1.1 connection, opened on first use."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def request(self, raw: bytes) -> tuple[int, dict, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        self.writer.write(raw)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(b" ", 2)[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if not line.strip():
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await self.reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, body

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None


async def run_phase(host: str, port: int, jobs: list[Job], *, timeout: float = 30.0) -> dict:
    """Send ``jobs`` on schedule; return outcomes, lags and backlog."""
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[Outcome] = []
    failures: list[str] = []
    lags: list[float] = []
    state = {"outstanding": 0, "backlog_max": 0, "last_done": 0.0}
    start = time.perf_counter() + 0.01

    async def generator() -> None:
        for job in jobs:
            delay = start + job.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, time.perf_counter() - (start + job.due)))
            state["outstanding"] += 1
            state["backlog_max"] = max(state["backlog_max"], state["outstanding"])
            queue.put_nowait(job)
        for _ in range(CONNECTIONS):
            queue.put_nowait(None)

    async def worker() -> None:
        connection = Connection(host, port)
        try:
            while (job := await queue.get()) is not None:
                try:
                    status, headers, body = await asyncio.wait_for(
                        connection.request(job.raw), timeout
                    )
                except (OSError, ConnectionError, asyncio.TimeoutError, ValueError) as exc:
                    failures.append(f"{job.kind} {job.dataset}: {type(exc).__name__}: {exc}")
                    await connection.close()
                    status, headers, body = -1, {}, b""
                done = time.perf_counter()
                state["outstanding"] -= 1
                state["last_done"] = max(state["last_done"], done)
                outcomes.append(
                    Outcome(job, done - (start + job.due), status, headers.get("etag"), body)
                )
        finally:
            await connection.close()

    await asyncio.gather(generator(), *(worker() for _ in range(CONNECTIONS)))
    last_due = start + (jobs[-1].due if jobs else 0.0)
    return {
        "outcomes": outcomes,
        "failures": failures,
        "lags": lags,
        "backlog_max": state["backlog_max"],
        "drain_s": max(0.0, state["last_done"] - last_due),
        "elapsed_s": state["last_done"] - start,
    }


async def run_closed(
    host: str, port: int, jobs: list[Job], seconds: float, *, connections: int = CONNECTIONS
) -> dict:
    """Send ``jobs`` back to back over ``connections`` connections for ``seconds``."""
    outcomes: list[Outcome] = []
    failures: list[str] = []
    pending = iter(jobs)
    start = time.perf_counter()

    async def worker() -> None:
        connection = Connection(host, port)
        try:
            for job in pending:
                if time.perf_counter() - start >= seconds:
                    return
                sent = time.perf_counter()
                try:
                    status, headers, body = await connection.request(job.raw)
                except (OSError, ConnectionError, ValueError) as exc:
                    failures.append(f"{job.kind} {job.dataset}: {type(exc).__name__}: {exc}")
                    await connection.close()
                    status, headers, body = -1, {}, b""
                outcomes.append(
                    Outcome(job, time.perf_counter() - sent, status, headers.get("etag"), body)
                )
        finally:
            await connection.close()

    await asyncio.gather(*(worker() for _ in range(connections)))
    return {
        "outcomes": outcomes,
        "failures": failures,
        "elapsed_s": time.perf_counter() - start,
    }
