#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads run against the program.

    python3 perfbench/run.py --workload score-cli --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``score-cli``   one fresh ``repro score --mmap-dir STORE --no-cache`` process
                per operation over a store frozen in set-up;
``fig5-store``  ``circles_vs_random(sampler="random_walk", jobs=2)`` over an
                opened store, in one benchmark child;
``delta-edit``  one seeded ``ContextDelta`` applied and rescored per
                operation, each building on the last;
``serve-mix``   a request mix against a ``repro serve`` process: an open
                loop at two fixed rates, then closed loops over one and
                two connections.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of ``perfbench/layers.json`` from a separate traced run.
Any failed correctness check makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from urllib.parse import quote

from common import (
    HERE,
    SRC,
    WORK,
    ChildFailed,
    HostClock,
    build,
    child_env,
    machine_block,
    median,
    quantile,
    repro_cli,
    run_child,
    run_rusage,
    tree_bytes,
)

WORKLOADS = ("score-cli", "fig5-store", "delta-edit", "serve-mix")

#: BENCHMARK.json is the one place that names the metrics and their units.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
#: End-to-end metrics, reported by every workload: (name, unit).
END_TO_END = tuple((metric["name"], metric["unit"]) for metric in SPEC["end_to_end"])

#: Program set-up is repeated this many times per run; set-up reports the median.
SETUP_REPEATS = 3

#: Input sizes, as edge draws of the planted-partition stream.
SCORE_CLI_DRAWS = 2_000_000
FIG5_DRAWS = 800_000
DELTA_DRAWS = 160_000
SERVE_DRAWS = 400_000
SERVE_GPLUS_EGOS = 24
#: The google_plus corpus is the same for every workload seed: its size
#: swings by half from one generator seed to the next, which would make
#: the latency of one seed incomparable with another's.  The workload seed
#: still draws the planted store, the query catalogue and every request.
SERVE_GPLUS_SEED = 7
#: Distinct GET queries per dataset; both together exceed the service's
#: 1024-entry rendered-response LRU.
SERVE_QUERIES = 768
#: Zipf exponent of query popularity.  Breslau et al., "Web Caching and
#: Zipf-like Distributions: Evidence and Implications" (INFOCOM 1999),
#: measured exponents of 0.64 to 0.83 on web proxy traces; 0.8 lies in
#: that range.  No traffic of this service has been measured yet.
SERVE_ZIPF = 0.8
#: Fixed offered rates (requests/s).  On a 2-vCPU Xeon the open loop's p99
#: crossed the 50 ms limit at about 230/s when the host was busy and 460/s
#: when it was idle; 150/s is two thirds of the busy figure, so the high
#: phase stays below the knee whatever the neighbours do.  The rates are
#: fixed rather than a share of the measured max_rate_rps: a rate that
#: followed capacity would load two versions of the program differently,
#: and their latencies would not compare.
SERVE_LOW_RPS = 30
SERVE_HIGH_RPS = 150
#: Shares of the run: low rate, high rate, a closed loop over one
#: connection that measures op_p99_ms, then a closed loop over both that
#: measures max_rate_rps.
SERVE_PHASES = (0.15, 0.35, 0.25, 0.25)
SERVE_LIMIT_P99_MS = 50.0
#: op_p99_ms is the median of the p99s of consecutive blocks of this many
#: operations; a run of fewer than two blocks has one.  A stall of the
#: shared host spoils the block it falls into, and the median passes over
#: it, while the p99 of a whole run read whether a stall fell into that
#: run: on serve-mix the middle half of ten seeds spread by 73% of the
#: median.
P99_BLOCK = 200
#: Request mix: share of plain GETs, of If-None-Match GETs; the rest POST.
SERVE_GET, SERVE_REVALIDATE = 0.55, 0.25


def _freeze(draws: int, seed: int, out: Path) -> tuple[float, dict]:
    """Freeze a planted-partition stream through the CLI; return (wall, sizes)."""
    wall, rc, _, _ = run_rusage(
        repro_cli("--seed", seed, "freeze", "--scale", draws, "-o", out, "--force")
    )
    if rc != 0:
        raise ChildFailed(f"repro freeze --scale {draws} exited {rc}")
    meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
    groups = json.loads((out / "groups.json").read_text(encoding="utf-8"))["groups"]
    return wall, {
        "draws": draws,
        "n": meta["n"],
        "m": meta["m"],
        "groups": len(groups),
        "members": sum(len(g["members"]) for g in groups),
        "store_bytes": tree_bytes(out),
    }


def _extra_setups(store: Path, *, baseline: bool) -> list[float]:
    """Set-up repeated in fresh children, in reference-host seconds.

    The workload's own child adds one more.
    """
    runs = [
        run_child({"task": "setup", "store": str(store), "baseline": baseline})
        for _ in range(SETUP_REPEATS - 1)
    ]
    return [run["setup_s"] / run["factor"] for run in runs]


def _blocked_p99(latencies: list[float]) -> float:
    """Median of the p99s of consecutive blocks of ``P99_BLOCK`` operations."""
    size = len(latencies)
    blocks = max(1, size // P99_BLOCK)
    return median([
        quantile(latencies[i * size // blocks:(i + 1) * size // blocks], 0.99)
        for i in range(blocks)
    ])


def _latency_metrics(latencies: list[float], groups_per_op: int, factor: float) -> dict:
    """Operation metrics in reference-host units (see ``HostClock``)."""
    p50 = median(latencies) / factor
    return {
        "op_p50_ms": p50 * 1e3,
        "op_p99_ms": _blocked_p99(latencies) / factor * 1e3,
        "groups_per_s": groups_per_op / p50,
        "max_rate_rps": len(latencies) / sum(latencies) * factor,
    }


def _stage_ms(table: dict, name: str, field: str = "total_ms") -> float:
    return table["stages"].get(name, {}).get(field, 0.0)


# -- score-cli ----------------------------------------------------------------


def _check_cli_summary(stdout: str, reference: dict) -> list[str]:
    """The CLI's printed summary must match an in-process score_groups."""
    failures = []
    lines = stdout.splitlines()
    scored = [l for l in lines if l.split(":")[0].strip() == "groups scored"]
    if not scored or int(scored[0].split(":")[1]) != reference["groups"]:
        failures.append("CLI 'groups scored' differs from score_groups")
    summary = reference["summary"]
    header = next((l.split() for l in lines if l.split()[:1] == ["function"]), None)
    if header is None:
        return failures + ["CLI printed no score summary table"]
    for function, stats in summary.items():
        row = next((l.split() for l in lines if l.split()[:1] == [function]), None)
        if row is None:
            failures.append(f"CLI summary has no row for {function}")
            continue
        for column, printed in zip(header[1:], row[1:]):
            expected = stats[column]
            # The printed value must be the expected one rounded to the
            # significant digits it shows.
            digits = len(printed.lower().split("e")[0].lstrip("+-").replace(".", "").lstrip("0"))
            tolerance = 0.5 * 10.0 ** (1 - max(digits, 1)) * abs(expected) + 1e-300
            if abs(float(printed) - expected) > tolerance:
                failures.append(f"CLI {function}.{column} {printed} != {expected!r}")
    return failures


def workload_score_cli(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    store = work / "store"
    clock = HostClock()
    setups = []
    for i in range(SETUP_REPEATS):
        target = store if i == 0 else work / f"store-{i}"
        wall, sizes = _freeze(SCORE_CLI_DRAWS, seed, target)
        clock.sample(5)
        setups.append(wall)
        if i == 0:
            inputs = sizes
        else:
            same = (target / "meta.json").read_bytes() == (store / "meta.json").read_bytes()
            shutil.rmtree(target)
            if not same:
                raise ChildFailed("two freezes of the same seed produced different stores")
    inputs["seed"] = seed
    score_argv = ["score", "--mmap-dir", str(store), "--no-cache"]
    failures: list[str] = []
    outputs: list[bytes] = []
    latencies: list[float] = []
    rss: list[int] = []
    traced: list[dict] = []

    def one(traced_run: bool) -> None:
        if traced_run:
            spans_path = work / f"spans-{len(traced)}.json"
            argv = [sys.executable, str(HERE / "cli_shim.py"), str(spans_path), "--", *score_argv]
        else:
            argv = repro_cli(*score_argv)
        wall, rc, out, maxrss = run_rusage(argv)
        clock.sample(5)
        if rc != 0:
            failures.append(f"repro score exited {rc}")
            return
        outputs.append(out)
        if traced_run:
            record = json.loads(spans_path.read_text(encoding="utf-8"))
            record["cli_wall_s"] = wall - record["probe_s"] - record["install_s"]
            traced.append(record)
        else:
            latencies.append(wall)
            rss.append(maxrss)

    # A traced run alternates plain and traced CLI runs, so the tracing
    # overhead is measured under the same conditions as its baseline.
    start = time.perf_counter()
    while (
        len(latencies) < 3
        or (trace and len(traced) < 3)
        or time.perf_counter() - start < seconds
    ):
        one(trace and len(traced) < len(latencies))
        if failures:
            break
    attempted = len(latencies) + len(traced) + len(failures)
    if any(out != outputs[0] for out in outputs):
        failures.append("repro score printed different output across runs")
    reference = run_child({"task": "score_summary", "store": str(store)})
    failures += _check_cli_summary(outputs[0].decode("utf-8", "replace") if outputs else "", reference)

    factor = clock.factor()
    metrics = _latency_metrics(latencies, inputs["groups"], factor)
    metrics["setup_s"] = median(setups) / factor
    metrics["peak_rss_mb"] = max(rss) / 1024.0
    result = {
        "metrics": metrics,
        "attempted": attempted + 1,
        "failed": len(failures),
        "failures": failures,
        "inputs": inputs,
        "samples": {"ops": len(latencies), "setup": setups},
        "host_factor": factor,
    }
    if trace:
        result.update(_score_cli_layers(traced, inputs, seed, work, latencies))
    return result


def _score_cli_layers(traced, inputs, seed, work, latencies) -> dict:
    bare = []
    for _ in range(3):
        wall, _, _, _ = run_rusage([sys.executable, "-c", "pass"])
        bare.append(wall)
    python_s = median(bare)
    # One traced freeze for the freeze-stage layer metrics.
    freeze_out = work / "traced-freeze"
    spans_path = work / "spans-freeze.json"
    wall, rc, _, _ = run_rusage(
        [sys.executable, str(HERE / "cli_shim.py"), str(spans_path), "--", "--seed",
         str(seed), "freeze", "--scale", str(SCORE_CLI_DRAWS), "-o", str(freeze_out), "--force"]
    )
    if rc != 0:
        raise ChildFailed("traced repro freeze failed")
    freeze = json.loads(spans_path.read_text(encoding="utf-8"))
    freeze_s = _stage_ms(freeze["trace"], "freeze.stream") / 1e3

    def per_op(fn) -> float:
        return median([fn(record) for record in traced])

    def attributed(record) -> float:
        table = record["trace"]
        return record["main_s"] - table["residual_ms"] / 1e3

    layers = {
        "startup.python_s": python_s,
        "startup.import_s": per_op(lambda r: r["import_s"]),
        "cli.render_s": per_op(
            lambda r: (_stage_ms(r["trace"], "render.summary") + _stage_ms(r["trace"], "render.text")) / 1e3
        ),
        "cli.residual_s": per_op(
            lambda r: r["cli_wall_s"] - python_s - r["import_s"] - attributed(r)
        ),
        "context.open_s": per_op(lambda r: _stage_ms(r["trace"], "context.open") / 1e3),
        "context.first_touch_s": per_op(lambda r: r["probes"].get("first_touch_s", 0.0)),
        "context.fingerprint_s": per_op(lambda r: r["probes"].get("fingerprint_s", 0.0)),
        "groups.load_s": per_op(lambda r: _stage_ms(r["trace"], "groups.load") / 1e3),
        "groups.count": inputs["groups"],
        "score_groups.s": per_op(lambda r: _stage_ms(r["trace"], "score_groups") / 1e3),
        "score_groups.self_s": per_op(
            lambda r: _stage_ms(r["trace"], "score_groups", "self_ms") / 1e3
        ),
        "batch.columns_s": per_op(lambda r: _stage_ms(r["trace"], "batch.columns") / 1e3),
        "batch.members_per_s": per_op(
            lambda r: r["probes"].get("members", 0) / max(_stage_ms(r["trace"], "batch.columns") / 1e3, 1e-9)
        ),
        "batch.kernel.pairs": traced[0]["probes"].get("kernel.pairs", 0),
        "batch.kernel.gather": traced[0]["probes"].get("kernel.gather", 0),
        "scoring.matrix_s": per_op(lambda r: _stage_ms(r["trace"], "scoring.matrix") / 1e3),
        "freeze.edges_per_s": inputs["m"] / freeze_s if freeze_s else 0.0,
        "freeze.bytes_per_edge": inputs["store_bytes"] / inputs["m"],
        "trace.overhead_ms": (
            median([r["cli_wall_s"] + r["install_s"] for r in traced]) - median(latencies)
        ) * 1e3,
        "trace.residual_share": per_op(
            lambda r: (r["cli_wall_s"] - python_s - r["import_s"] - attributed(r)) / r["cli_wall_s"]
        ),
    }
    # The stage table of one CLI run, with start-up and residual as stages.
    record = traced[len(traced) // 2]
    stages = {
        "startup.python": {"self_ms": python_s * 1e3},
        "startup.import": {"self_ms": record["import_s"] * 1e3},
        **{k: {"self_ms": v["self_ms"], "calls": v["calls"]} for k, v in record["trace"]["stages"].items()},
        "residual": {"self_ms": (record["cli_wall_s"] - python_s - record["import_s"] - attributed(record)) * 1e3},
    }
    wall_ms = record["cli_wall_s"] * 1e3
    for entry in stages.values():
        entry["share"] = entry["self_ms"] / wall_ms
    shutil.rmtree(freeze_out, ignore_errors=True)
    return {"layers": layers, "stages": {"wall_ms": wall_ms, "stages": stages}}


# -- fig5-store and delta-edit --------------------------------------------------


def workload_fig5(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    store = work / "store"
    _, inputs = _freeze(FIG5_DRAWS, seed, store)
    inputs.update(seed=seed, jobs=2, sampler="random_walk")
    setups = _extra_setups(store, baseline=False)
    res = run_child(
        {"task": "fig5", "store": str(store), "seed": seed, "seconds": seconds,
         "trace": trace, "jobs": 2}
    )
    setups.append(res["setup"]["setup_s"] / res["factor"])
    metrics = _latency_metrics(res["latencies"], res["groups_per_op"], res["factor"])
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    result = {
        "metrics": metrics,
        "attempted": len(res["latencies"]) + res["checks"],
        "failed": len(res["failures"]),
        "failures": res["failures"],
        "inputs": inputs,
        "samples": {"ops": len(res["latencies"]), "setup": setups},
        "host_factor": res["factor"],
    }
    if trace:
        table = res["trace"]
        p50 = median(res["latencies"])
        matched = _stage_ms(table, "samplers.matched") / 1e3
        result["layers"] = {
            **_engine_layers(table, res["setup"], inputs),
            "samplers.matched_s": matched,
            "samplers.sets_per_s": res["sets_per_op"] / matched if matched else 0.0,
            "parallel.start_s": _stage_ms(table, "parallel.start") / 1e3,
            "parallel.score_s": _stage_ms(table, "parallel.score") / 1e3,
            "parallel.sample_s": _stage_ms(table, "parallel.sample") / 1e3,
            "parallel.close_s": _stage_ms(table, "parallel.close") / 1e3,
            "parallel.shards": res["counts"]["shards"],
            "parallel.speedup": res["serial_s"] / p50,
            "batch.kernel.pairs": res["counts"]["kernel.pairs"],
            "batch.kernel.gather": res["counts"]["kernel.gather"],
            "trace.overhead_ms": table["overhead_ms"],
            "trace.residual_share": table["residual_share"],
        }
        result["stages"] = table
    return result


def _engine_layers(table: dict, setup: dict, inputs: dict) -> dict:
    return {
        "startup.import_s": setup["import_s"],
        "context.open_s": setup["open_s"],
        "groups.load_s": setup["load_s"],
        "groups.count": inputs["groups"],
        "score_groups.s": _stage_ms(table, "score_groups") / 1e3,
        "score_groups.self_s": _stage_ms(table, "score_groups", "self_ms") / 1e3,
        "batch.columns_s": _stage_ms(table, "batch.columns") / 1e3,
        "scoring.matrix_s": _stage_ms(table, "scoring.matrix") / 1e3,
    }


def workload_delta(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    store = work / "store"
    _, inputs = _freeze(DELTA_DRAWS, seed, store)
    inputs["seed"] = seed
    setups = _extra_setups(store, baseline=True)
    res = run_child(
        {"task": "delta", "store": str(store), "seed": seed, "seconds": seconds, "trace": trace}
    )
    setups.append(res["setup"]["setup_s"] / res["factor"])
    inputs.update(res["delta_shape"], edges_final=res["edges_final"])
    metrics = _latency_metrics(res["latencies"], res["groups_per_op"], res["factor"])
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    result = {
        "metrics": metrics,
        "attempted": len(res["latencies"]) + res["checks"],
        "failed": len(res["failures"]),
        "failures": res["failures"],
        "inputs": inputs,
        "samples": {"ops": len(res["latencies"]), "setup": setups},
        "host_factor": res["factor"],
    }
    if trace:
        table = res["trace"]
        members = inputs["members"]
        columns = _stage_ms(table, "batch.columns") / 1e3
        dirty = median(res["dirty_counts"])
        result["layers"] = {
            **_engine_layers(table, res["setup"], inputs),
            "batch.members_per_s": members * dirty / inputs["groups"] / columns if columns else 0.0,
            "batch.kernel.pairs": res["counts"]["kernel.pairs"],
            "batch.kernel.gather": res["counts"]["kernel.gather"],
            "delta.apply_ms": _stage_ms(table, "delta.apply"),
            "delta.apply_groups_ms": _stage_ms(table, "delta.apply_groups"),
            "delta.dirty_ms": _stage_ms(table, "delta.dirty"),
            "delta.rescore_ms": _stage_ms(table, "delta.rescore"),
            "delta.matrix_ms": _stage_ms(table, "scoring.matrix"),
            "delta.dirty_ratio": dirty / inputs["groups"],
            "trace.overhead_ms": table["overhead_ms"],
            "trace.residual_share": table["residual_share"],
        }
        result["stages"] = table
    return result


# -- serve-mix ----------------------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: Path, cache: Path, log: Path) -> None:
        self.started = time.perf_counter()
        self._log = open(log, "ab")
        # -u: the address line must reach the pipe before the server idles.
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *repro_cli("serve", root, "--port", "0", "--jobs", "1",
                                              "--cache-dir", cache)[1:]],
            cwd=HERE.parent, env=child_env(), stdout=subprocess.PIPE, stderr=self._log,
        )
        line = b""
        deadline = time.monotonic() + 60
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                self.stop()
                raise ChildFailed("repro serve did not report its address")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                self.stop()
                raise ChildFailed("repro serve exited before listening")
            line += chunk
        address = line.decode().rsplit("http://", 1)[1].strip()
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def proc_stat(self) -> dict:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        hwm = next(int(l.split()[1]) for l in status.splitlines() if l.startswith("VmHWM"))
        return {"cpu_s": (int(fields[11]) + int(fields[12])) / ticks, "hwm_kb": hwm}

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


async def _get(host: str, port: int, path: str) -> tuple[int, bytes]:
    from loadgen import Connection

    connection = Connection(host, port)
    try:
        status, _, body = await connection.request(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
        )
        return status, body
    finally:
        await connection.close()


def _start_server(root: Path, cache: Path, log: Path, probes: list[str]) -> tuple[Server, float]:
    """Spawn the server; set-up ends at the first 200 score on every dataset."""
    server = Server(root, cache, log)
    try:
        for path in probes:
            status, body = asyncio.run(_get(server.host, server.port, path))
            if status != 200:
                raise ChildFailed(f"set-up probe {path} answered {status}: {body[:200]!r}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started


def _get_path(dataset: str, names: list[str]) -> str:
    return f"/v1/datasets/{dataset}/score?groups={quote(','.join(names), safe=',')}"


def _schedule(rng: random.Random, rate: float, duration: float, inputs: dict, phase: str):
    """Seeded Poisson arrivals of the request mix.

    ``phase`` only names the POSTed groups, so two calls with equal RNG
    state give the same requests under different names.
    """
    from loadgen import Job

    catalogue, circles = inputs["catalogue"], inputs["circles"]
    count = max(1, round(rate * duration))
    dues = sorted(rng.uniform(0.0, duration) for _ in range(count))
    jobs = []
    for i, due in enumerate(dues):
        # An even split between the two datasets: an assumption, as is the
        # GET size law (child.task_serve_inputs), until real traffic of
        # the service is measured.
        dataset = "planted" if rng.random() < 0.5 else "gplus"
        draw = rng.random()
        if draw < SERVE_GET + SERVE_REVALIDATE:
            rank = rng.choices(range(SERVE_QUERIES), cum_weights=inputs["zipf"])[0]
            names, etag = catalogue[dataset][rank]
            kind = "get" if draw < SERVE_GET else "revalidate"
            head = f"GET {_get_path(dataset, names)} HTTP/1.1\r\nHost: bench\r\n"
            if kind == "revalidate":
                head += f"If-None-Match: {etag}\r\n"
            jobs.append(Job(due, kind, dataset, (head + "\r\n").encode("latin-1"),
                            304 if kind == "revalidate" else 200, etag,
                            {"names": names, "phase": phase}))
        else:
            # One ad-hoc list per POST: the members of a stored group drawn
            # uniformly, so sizes and make-up follow the dataset's own
            # groups.  The fresh name gives it a query key no cache holds.
            members = circles[dataset][rng.randrange(len(circles[dataset]))]
            groups = [{"name": f"{phase}-{i}", "members": members}]
            body = json.dumps({"groups": groups}).encode("utf-8")
            head = (
                f"POST /v1/datasets/{dataset}/score HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            )
            jobs.append(Job(due, "post", dataset, head.encode("latin-1") + body, 200,
                            None, {"groups": groups, "phase": phase}))
    return jobs


def _phase_report(result: dict, failures: list[str]) -> dict:
    """Check every response of a phase and summarise its latencies.

    A phase with a growing backlog (the last response arrived more than
    the latency limit after the last request was due) misses the limit.
    """
    outcomes = result["outcomes"]
    latencies = [o.latency for o in outcomes]
    ok = [o for o in outcomes if o.status == o.job.expect]
    for o in outcomes:
        if o.status != o.job.expect:
            failures.append(f"{o.job.kind} {o.job.dataset} answered {o.status}, expected {o.job.expect}")
        elif o.job.etag is not None and o.etag != o.job.etag:
            failures.append(f"{o.job.kind} {o.job.dataset}: ETag {o.etag} != query_key {o.job.etag}")
    failures.extend(result["failures"])
    p99 = quantile(latencies, 0.99) * 1e3
    backlog = result.get("drain_s", 0.0) * 1e3 > SERVE_LIMIT_P99_MS
    return {
        "requests": len(outcomes),
        "ok": len(ok),
        "p50_ms": median(latencies) * 1e3,
        "p99_ms": p99,
        "meets_limit": p99 < SERVE_LIMIT_P99_MS and not backlog and len(ok) == len(outcomes),
        "growing_backlog": backlog,
        "achieved_rps": len(ok) / result["elapsed_s"],
        "lag_ms_p50": median(result["lags"]) * 1e3 if "lags" in result else 0.0,
        "lag_ms_p99": quantile(result["lags"], 0.99) * 1e3 if "lags" in result else 0.0,
        "backlog_max": result.get("backlog_max", 0),
    }


def workload_serve(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from loadgen import MAX_LAG_P50_MS, run_closed, run_phase

    root, cache = work / "stores", work / "cache"
    root.mkdir()
    _freeze(SERVE_DRAWS, seed, root / "planted")
    made = run_child(
        {"task": "serve_inputs", "root": str(root), "cache": str(cache), "seed": seed,
         "gplus_egos": SERVE_GPLUS_EGOS, "gplus_seed": SERVE_GPLUS_SEED,
         "queries_per_dataset": SERVE_QUERIES}
    )
    weights, total = [], 0.0
    for rank in range(SERVE_QUERIES):
        total += 1.0 / (rank + 1) ** SERVE_ZIPF
        weights.append(total)
    # Catalogue entry i has popularity rank i (Zipf).
    plan = {"catalogue": made["catalogue"], "circles": made["circles"], "zipf": weights}
    probes = [_get_path(d, made["catalogue"][d][0][0]) for d in ("planted", "gplus")]

    clock = HostClock()
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        clock.sample(10)
        server, setup = _start_server(root, cache, work / "server.log", probes)
        server.stop()
        setups.append(setup)
    clock.sample(10)
    server, setup = _start_server(root, cache, work / "server.log", probes)
    setups.append(setup)
    failures: list[str] = []
    phases: dict[str, dict] = {}
    outcomes = []
    try:
        cpu0 = server.proc_stat()["cpu_s"]
        low, high, serial, closed = (share * seconds for share in SERVE_PHASES)
        for name, rate, duration in (("low", SERVE_LOW_RPS, low), ("high", SERVE_HIGH_RPS, high)):
            jobs = _schedule(random.Random(f"{seed}-{name}"), rate, duration, plan, name)
            clock.sample(10)
            result = asyncio.run(run_phase(server.host, server.port, jobs))
            phases[name] = _phase_report(result, failures)
            outcomes += result["outcomes"]
        cpu_fixed = server.proc_stat()["cpu_s"] - cpu0
        # One connection back to back: each request's own service latency,
        # with the server neither idle nor serving another request.  Drawn
        # from the same mix; enough jobs for any host.
        jobs = _schedule(random.Random(f"{seed}-serial"), 2000, serial, plan, "serial")
        clock.sample(10)
        result = asyncio.run(run_closed(server.host, server.port, jobs, serial, connections=1))
        phases["serial"] = _phase_report(result, failures)
        serial_latencies = [o.latency for o in result["outcomes"]]
        # Both connections busy back to back: the highest rate the server
        # sustains over them, which is where an open loop's backlog starts
        # to grow.
        jobs = _schedule(random.Random(f"{seed}-max"), 2000, closed, plan, "max")
        clock.sample(10)
        result = asyncio.run(run_closed(server.host, server.port, jobs, closed))
        clock.sample(10)
        phases["max"] = _phase_report(result, failures)
        groups_sustained = sum(
            len(o.job.meta.get("names") or o.job.meta.get("groups"))
            for o in result["outcomes"] if o.status == 200
        ) / result["elapsed_s"]
        status, body = asyncio.run(_get(server.host, server.port, "/v1/metrics"))
        server_metrics = json.loads(body) if status == 200 else {}
        hwm_kb = server.proc_stat()["hwm_kb"]
    finally:
        server.stop()

    # The generator fell behind on its own only where the server kept up;
    # in a phase that misses the limit, a late timer is the overload's doing
    # and the latencies, timed from the due times, already carry it.
    for name, report in phases.items():
        if report["meets_limit"] and report["lag_ms_p50"] > MAX_LAG_P50_MS:
            failures.append(f"phase {name}: generator lag p50 {report['lag_ms_p50']:.1f} ms, run invalid")

    samples = []
    counts = {"get": 0, "post": 0}
    for o in outcomes:
        kind = o.job.kind
        if kind in counts and o.status == 200 and counts[kind] < (40 if kind == "get" else 12):
            counts[kind] += 1
            samples.append({"kind": kind, "dataset": o.job.dataset, "body": o.body.decode("utf-8"),
                            **o.job.meta})
    samples_path = work / "samples.json"
    samples_path.write_text(json.dumps(samples), encoding="utf-8")
    check = run_child({"task": "serve_check", "root": str(root), "samples": str(samples_path)})
    failures += check["failures"]

    # op_p50_ms is over the fixed-rate requests.  op_p99_ms is the one-
    # connection loop's: the fixed-rate tail tracked the neighbours' load
    # on a shared host (over ten consecutive runs of the same code the
    # 150/s p99 went from 15 to 118 ms), and with two connections a request
    # also waits out the other's, whose overlap varies from run to run.
    # Raw figures: the requests run in the server while the calibration
    # can only run in this process between phases, where it did not track
    # the server and widened the ten-seed spreads instead of narrowing them.
    latencies = [o.latency for o in outcomes]
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": hwm_kb / 1024.0,
        "groups_per_s": groups_sustained,
        "op_p50_ms": median(latencies) * 1e3,
        "op_p99_ms": _blocked_p99(serial_latencies) * 1e3,
        "max_rate_rps": phases["max"]["achieved_rps"],
    }
    attempted = sum(r["requests"] for r in phases.values()) + check["checks"]
    inputs = {
        "seed": seed,
        "planted": made["inputs"]["planted"] | {"draws": SERVE_DRAWS},
        "gplus": made["inputs"]["gplus"] | {"egos": SERVE_GPLUS_EGOS, "seed": SERVE_GPLUS_SEED},
        "key_space": 2 * SERVE_QUERIES,
        "response_lru_entries": 1024,
        "connections": 2,
        "rates_rps": {"low": SERVE_LOW_RPS, "high": SERVE_HIGH_RPS},
        "phase_seconds": [share * seconds for share in SERVE_PHASES],
        "limit_p99_ms": SERVE_LIMIT_P99_MS,
    }
    result = {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "inputs": inputs,
        "samples": {"ops": len(latencies), "serial_ops": len(serial_latencies), "setup": setups},
        "phases": phases,
        "host_factor": clock.factor(),
        "normalized": False,
    }
    if trace:
        result.update(_serve_layers(root, cache, phases, outcomes, plan, seed,
                                    server_metrics, cpu_fixed))
        result["layers"]["groups.count"] = inputs["planted"]["groups"] + inputs["gplus"]["groups"]
    return result


def _serve_layers(root, cache, phases, outcomes, plan, seed, server_metrics, cpu_fixed) -> dict:
    def class_p50(kind: str, phase: str | None = None) -> float:
        values = [o.latency for o in outcomes if o.job.kind == kind
                  and (phase is None or o.job.meta["phase"] == phase)]
        return median(values) * 1e3 if values else 0.0

    # One draw of the mix, replayed untraced and traced.  The POSTs of the
    # two passes differ only in their names, so neither finds the other's
    # cache entries.
    untraced, traced = (
        _schedule(random.Random(f"{seed}-replay"), 60, 3.0, plan, name)
        for name in ("untraced", "traced")
    )
    requests = [[a.kind, a.raw.decode("latin-1"), b.raw.decode("latin-1")]
                for a, b in zip(untraced, traced)]
    replay = run_child({"task": "serve_replay", "root": str(root), "cache": str(cache),
                        "requests": requests})

    def metric(name: str, label: str | None = None) -> float:
        entry = server_metrics.get(name, {})
        values = entry.get("values", {})
        return values.get(label, 0) if label is not None else sum(values.values())

    hits, misses = metric("cache.hits", "score"), metric("cache.misses", "score")
    score_gets = metric("service.requests", "score_get")
    batch_hist = server_metrics.get("scoring.batch_groups", {})
    requests_fixed = phases["low"]["requests"] + phases["high"]["requests"]
    calls = replay["call_ms"]
    dispatch = replay["dispatch_ms"]
    layers = {
        "context.open_s": calls.get("context.open", 0.0) / 1e3,
        "context.fingerprint_s": calls.get("context.fingerprint", 0.0) / 1e3,
        "groups.load_s": calls.get("groups.load", 0.0) / 1e3,
        "batch.columns_s": calls.get("batch.columns", 0.0) / 1e3,
        "scoring.matrix_s": calls.get("scoring.matrix", 0.0) / 1e3,
        "cache.key_ms": calls.get("cache.key", 0.0),
        "cache.get_ms": calls.get("cache.get", 0.0),
        "cache.put_ms": calls.get("cache.put", 0.0),
        "cache.disk_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.attach_s": replay["attach_s"],
        "service.dispatch_ms.get": dispatch.get("get", 0.0),
        "service.dispatch_ms.revalidate": dispatch.get("revalidate", 0.0),
        "service.dispatch_ms.post": dispatch.get("post", 0.0),
        "http.parse_us": replay["parse_us"],
        "http.render_us": calls.get("http.render", 0.0) * 1e3,
        "service.memory_hit_ratio": metric("service.memory_hits") / score_gets if score_gets else 0.0,
        "service.batch_groups_mean": (
            batch_hist.get("sum", 0.0) / batch_hist["count"] if batch_hist.get("count") else 0.0
        ),
        "service.batch_wait_ms": class_p50("post", "low") - dispatch.get("post", 0.0),
        "service.cpu_ms_per_req": cpu_fixed * 1e3 / requests_fixed,
        "serve.get_p50_ms": class_p50("get"),
        "serve.revalidate_p50_ms": class_p50("revalidate"),
        "serve.post_p50_ms": class_p50("post"),
        "serve.p50_ms.low": phases["low"]["p50_ms"],
        "serve.p99_ms.low": phases["low"]["p99_ms"],
        "serve.p50_ms.high": phases["high"]["p50_ms"],
        "serve.p99_ms.high": phases["high"]["p99_ms"],
        "loadgen.lag_ms_p99": max(phases[p]["lag_ms_p99"] for p in ("low", "high")),
        "loadgen.backlog_max": max(phases[p]["backlog_max"] for p in ("low", "high")),
        "trace.overhead_ms": replay["overhead_ms"],
        "trace.residual_share": replay["trace"]["residual_share"],
    }
    table = replay["trace"]
    table.pop("per_op", None)
    return {"layers": layers, "stages": table}


# -- command line -------------------------------------------------------------


RUNNERS = {
    "score-cli": workload_score_cli,
    "fig5-store": workload_fig5,
    "delta-edit": workload_delta,
    "serve-mix": workload_serve,
}


def _layer_units() -> dict[str, str]:
    """Per-layer units; the layer map must cover exactly these metrics."""
    units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    layer_map = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    mapped = {entry["name"] for entry in layer_map["metrics"]}
    if mapped != set(units):
        raise ValueError(
            "layers.json and BENCHMARK.json per_layer name different metrics: "
            f"{sorted(mapped ^ set(units))}"
        )
    return units


def _print_report(workload: str, args, record: dict) -> None:
    print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print("inputs:  " + json.dumps(record["inputs"], sort_keys=True, default=str))
    units = dict(END_TO_END)
    factor = record["host_factor"]
    if record.get("normalized", True):
        print(f"  host speed factor {factor:.4f} (timings below are in reference-host units;"
              f" raw = value x factor for times, / factor for rates)")
    else:
        print(f"  host speed factor {factor:.4f} (timings below are raw)")
    for name, value in record["metrics"].items():
        print(f"  {name:<14} {value:>14.6g} {units[name]}")
    samples = record["samples"]
    print(f"  samples: {samples['ops']} operations; set-up runs {samples['setup']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'error_rate':<14} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    for name, phase in record.get("phases", {}).items():
        print(f"  {'p50_ms.' + name:<14} {phase['p50_ms']:>14.6g} ms")
        print(f"  {'p99_ms.' + name:<14} {phase['p99_ms']:>14.6g} ms"
              f"  ({phase['requests']} req, {phase['achieved_rps']:.1f}/s, "
              f"{'meets' if phase['meets_limit'] else 'misses'} {SERVE_LIMIT_P99_MS:g} ms limit)")
    if "stages" in record:
        table = record["stages"]
        print(f"stage table (median op wall {table.get('wall_ms', 0):.3f} ms):")
        for name, entry in sorted(table["stages"].items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"  {name:<28} self {entry['self_ms']:>11.4f} ms  share {entry.get('share', 0):7.2%}")
        if "residual_ms" in table:
            print(f"  {'(unattributed residual)':<28} self {table['residual_ms']:>11.4f} ms"
                  f"  share {table['residual_share']:7.2%}")
    for failure in record["failures"][:20]:
        print(f"FAILED: {failure}")
    if len(record["failures"]) > 20:
        print(f"FAILED: ... {len(record['failures']) - 20} more in the run record")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        layer_units = _layer_units()
        build()
        record = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    except Exception:  # the run cannot produce a result: report and fail
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["machine"] = machine_block()
    record["workload"] = args.workload
    record["seed"] = args.seed
    record["trace"] = args.trace
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str), encoding="utf-8"
    )
    _print_report(args.workload, args, record)
    if args.trace:
        layers = {**record.get("layers", {}), "host.calibration_factor": record["host_factor"]}
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in layer_units.items()}
    else:
        metrics = {name: {"value": float(record["metrics"][name]), "unit": unit}
                   for name, unit in END_TO_END}
    ok = record["failed"] == 0
    print(json.dumps({"correct": ok, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
