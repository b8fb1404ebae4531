#!/usr/bin/env python
"""Service QPS/latency benchmark (the service tentpole's receipt).

Freezes a synthetic Google+ corpus into a ``repro-csr-dir`` store,
starts an in-process :class:`repro.service.CircleService` on an
ephemeral port, and drives it with a concurrent asyncio load generator
over persistent connections, in three phases:

* **cold** — every request is a *distinct* query (a different stored
  group subset), so each one reaches the engine through the micro
  batcher;
* **warm** — the same queries again: answered from the in-memory
  rendered-response cache / on-disk result cache, no engine work;
* **revalidate** — the same queries once more with ``If-None-Match``
  set to the cold run's ETags: all 304s, no bodies.

The report records per-phase QPS and p50/p99 latency plus the
``warm_speedup_p50`` ratio.  Two assertions have no escape hatch:

* every response has the expected status (200 / 200 / 304);
* the service's score columns are **bitwise identical** to a direct
  :func:`repro.scoring.registry.score_groups` call over the same store
  (JSON float round-trip is exact, so this is a real receipt).

The warm phase is also counted, from ``/v1/metrics`` snapshots taken
around it (``warm_counts``): it must start no micro-batch
(``service.batches_flushed`` unchanged) and every warm response must be
a memory hit (``service.memory_hits`` up by the warm request count).
Unlike the latency ratio, these counts do not move with host speed.

The acceptance gate — warm p50 at least ``MIN_WARM_SPEEDUP``× lower
than cold p50 — is asserted in full mode and in ``--smoke`` mode (the
``scripts/check.sh`` configuration: small corpus, fewer requests)::

    python benchmarks/bench_service_qps.py                  # full
    python benchmarks/bench_service_qps.py --smoke -o BENCH_service.json
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: Required cold-p50 / warm-p50 ratio (the PR's acceptance criterion).
MIN_WARM_SPEEDUP = 5.0

#: Load-generator connections (each one a persistent keep-alive socket).
DEFAULT_WORKERS = 8

#: Counters snapshotted around the warm phase (see ``warm_counts``).
WARM_COUNTERS = ("service.batches_flushed", "service.memory_hits")

SEED = 0


def _build_store(root: Path, smoke: bool) -> str:
    """Freeze a synthetic Google+ corpus (with sidecar) under ``root``."""
    from repro.data.groups import save_groups
    from repro.engine import AnalysisContext
    from repro.synth.paper_datasets import GOOGLE_PLUS_CONFIG, build_google_plus

    config = dataclasses.replace(
        GOOGLE_PLUS_CONFIG, num_egos=16 if smoke else 40
    )
    dataset = build_google_plus(config=config)
    context = AnalysisContext(dataset.graph)
    store = context.save(root / "gplus")
    save_groups(dataset.groups, store / "groups.json")
    return "gplus"


class _Client:
    """Minimal pipelining-free HTTP/1.1 client over one keep-alive socket."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.reader = self.writer = None

    async def request(
        self, path: str, headers: dict[str, str] | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        if self.writer is None:
            await self.connect()
        assert self.reader is not None and self.writer is not None
        lines = [f"GET {path} HTTP/1.1", f"Host: {self.host}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        self.writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await self.writer.drain()

        status_line = await self.reader.readline()
        status = int(status_line.split(b" ", 2)[1])
        response_headers: dict[str, str] = {}
        while True:
            raw = await self.reader.readline()
            if not raw.strip():
                break
            name, _, value = raw.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0"))
        body = await self.reader.readexactly(length) if length else b""
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        return status, response_headers, body


async def _run_phase(
    host: str,
    port: int,
    jobs: list[tuple[str, dict[str, str]]],
    expect_status: int,
    workers: int,
) -> tuple[dict, list[tuple[str, dict[str, str], bytes]]]:
    """Drive ``jobs`` through ``workers`` persistent connections."""
    queue: asyncio.Queue = asyncio.Queue()
    for job in jobs:
        queue.put_nowait(job)
    latencies: list[float] = []
    responses: list[tuple[str, dict[str, str], bytes]] = []

    async def worker() -> None:
        client = _Client(host, port)
        await client.connect()
        try:
            while True:
                try:
                    path, headers = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                start = time.perf_counter()
                status, response_headers, body = await client.request(
                    path, headers
                )
                latencies.append(time.perf_counter() - start)
                if status != expect_status:
                    raise AssertionError(
                        f"{path}: expected {expect_status}, got {status}: "
                        f"{body[:200]!r}"
                    )
                responses.append((path, response_headers, body))
        finally:
            await client.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(workers)))
    elapsed = time.perf_counter() - started
    ordered = sorted(latencies)
    report = {
        "requests": len(jobs),
        "seconds": round(elapsed, 4),
        "qps": round(len(jobs) / elapsed, 2),
        "p50_ms": round(statistics.median(ordered) * 1e3, 3),
        "p99_ms": round(ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))] * 1e3, 3),
    }
    return report, responses


def _assert_bitwise_identity(store_dir: Path, payload: dict) -> None:
    """The service's full-groupset scores must equal ``score_groups``'s."""
    from repro.data.groups import load_groups
    from repro.engine import AnalysisContext
    from repro.scoring.registry import score_groups

    context = AnalysisContext.open(store_dir)
    groups = load_groups(store_dir / "groups.json")
    table = score_groups(context, groups, cache=False)
    by_name = {g["name"]: g for g in payload["groups"]}
    assert list(by_name) == table.group_names, "group order/name mismatch"
    for function_name in table.function_names():
        reference = table.columns[function_name]
        served = np.array(
            [
                float("nan")
                if by_name[name]["scores"][function_name] == "nan"
                else float(by_name[name]["scores"][function_name])
                for name in table.group_names
            ],
            dtype=np.float64,
        )
        assert reference.tobytes() == served.tobytes(), (
            f"column {function_name!r} differs from score_groups"
        )


async def _bench(args: argparse.Namespace, root: Path) -> dict:
    from repro.service import CircleService, ServiceConfig

    dataset = _build_store(root, args.smoke)
    service = CircleService(
        ServiceConfig(
            root=root,
            port=0,
            cache=str(root / "cache"),
            jobs=1,
        )
    )
    await service.start()
    assert service.address is not None
    host, port = service.address
    try:
        probe = _Client(host, port)
        status, _, body = await probe.request(
            f"/v1/datasets/{dataset}/groups"
        )
        assert status == 200, body
        group_names = [g["name"] for g in json.loads(body)["groups"]]
        await probe.close()

        # Distinct queries: sliding windows over the stored group names.
        # Wide windows keep the cold phase engine-bound (scoring work per
        # request well above the event loop's ~ms round-trip floor), so
        # the warm-speedup gate measures caching, not loop scheduling.
        # ... but never so wide that the sliding starts stop producing
        # `requests` distinct queries (repeats would hit the warm cache
        # mid-cold-phase and fake a low cold p50).
        count = args.requests
        window = max(2, len(group_names) // 2)
        window = min(window, max(2, len(group_names) - count))
        queries = []
        for i in range(count):
            start = i % max(1, len(group_names) - window)
            subset = ",".join(group_names[start : start + window])
            queries.append(f"/v1/datasets/{dataset}/score?groups={subset}")

        cold, cold_responses = await _run_phase(
            host, port, [(q, {}) for q in queries], 200, args.workers
        )
        etags = {path: headers["etag"] for path, headers, _ in cold_responses}
        before = await _counters(host, port)
        warm, _ = await _run_phase(
            host, port, [(q, {}) for q in queries], 200, args.workers
        )
        after = await _counters(host, port)
        warm_counts = {
            "requests": len(queries),
            **{name: after[name] - before[name] for name in WARM_COUNTERS},
        }
        revalidate, _ = await _run_phase(
            host,
            port,
            [(q, {"If-None-Match": etags[q]}) for q in queries],
            304,
            args.workers,
        )

        full = _Client(host, port)
        status, _, body = await full.request(f"/v1/datasets/{dataset}/score")
        assert status == 200, body
        await full.close()
        _assert_bitwise_identity(root / dataset, json.loads(body))

        status, _, metrics_body = await _metrics(host, port)
        assert status == 200
    finally:
        await service.shutdown()

    speedup = cold["p50_ms"] / warm["p50_ms"] if warm["p50_ms"] else float("inf")
    return {
        "mode": "smoke" if args.smoke else "full",
        "dataset": dataset,
        "workers": args.workers,
        "phases": {"cold": cold, "warm": warm, "revalidate": revalidate},
        "warm_speedup_p50": round(speedup, 2),
        "warm_counts": warm_counts,
        "identity": "bitwise-identical to score_groups",
        "metrics": json.loads(metrics_body),
    }


async def _metrics(host: str, port: int):
    client = _Client(host, port)
    try:
        return await client.request("/v1/metrics")
    finally:
        await client.close()


async def _counters(host: str, port: int) -> dict[str, int]:
    """Totals of the :data:`WARM_COUNTERS` in a ``/v1/metrics`` snapshot."""
    status, _, body = await _metrics(host, port)
    assert status == 200, body
    snapshot = json.loads(body)
    return {
        name: sum(snapshot[name]["values"].values()) for name in WARM_COUNTERS
    }


def _warm_count_failures(counts: dict[str, int]) -> list[str]:
    """What the warm phase did that a cached phase must not do."""
    failures = []
    if counts["service.batches_flushed"] != 0:
        failures.append(
            f"warm phase started {counts['service.batches_flushed']} "
            "micro-batches (expected 0)"
        )
    if counts["service.memory_hits"] != counts["requests"]:
        failures.append(
            f"warm phase had {counts['service.memory_hits']} memory hits "
            f"for {counts['requests']} requests"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small corpus and request count (the check.sh gate)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help="requests per phase (default: 40 smoke, 200 full)",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS, metavar="N"
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail if the whole benchmark exceeds this wall time",
    )
    parser.add_argument("-o", "--output", metavar="FILE", default=None)
    args = parser.parse_args(argv)
    if args.requests is None:
        args.requests = 40 if args.smoke else 200

    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-service-bench-") as tmp:
        report = asyncio.run(_bench(args, Path(tmp)))
    report["wall_seconds"] = round(time.perf_counter() - started, 2)

    rendered = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    print(rendered)

    failures = _warm_count_failures(report["warm_counts"])
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if report["warm_speedup_p50"] < MIN_WARM_SPEEDUP:
        print(
            f"FAIL: warm p50 speedup {report['warm_speedup_p50']}x "
            f"< required {MIN_WARM_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    if args.time_budget and report["wall_seconds"] > args.time_budget:
        print(
            f"FAIL: wall time {report['wall_seconds']}s "
            f"> budget {args.time_budget}s",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
