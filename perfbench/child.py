"""Benchmark child: runs the program in-process for one task.

Usage: ``python perfbench/child.py SPEC.json RESULT.json``.  The spec names
a task and its inputs; the result is a JSON object.  Only the standard
library is imported before a task starts its clock, so ``import repro``
is part of what set-up measures.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from common import HostClock, median
from spans import Recorder, install, stage_table

#: Membership moves and edge changes in one delta-edit operation.
DELTA_EDGES = 12
DELTA_MOVES = 2


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _open_store(store: str, *, baseline: bool = False) -> tuple:
    """The set-up every in-process workload pays: import, open, load."""
    times = {}
    start = time.perf_counter()
    import repro  # noqa: F401  (import cost is part of set-up)
    from repro.data.groups import load_groups
    from repro.engine import AnalysisContext

    times["import_s"] = time.perf_counter() - start
    mark = time.perf_counter()
    context = AnalysisContext.open(store)
    times["open_s"] = time.perf_counter() - mark
    mark = time.perf_counter()
    groups = load_groups(Path(store) / "groups.json")
    times["load_s"] = time.perf_counter() - mark
    batch = None
    if baseline:
        from repro.engine import batch_group_stats_columns

        mark = time.perf_counter()
        batch = batch_group_stats_columns(
            context, [list(group.members) for group in groups]
        )
        times["baseline_s"] = time.perf_counter() - mark
    times["setup_s"] = time.perf_counter() - start
    return context, groups, batch, times


def task_setup(spec: dict) -> dict:
    *_, times = _open_store(spec["store"], baseline=spec.get("baseline", False))
    clock = HostClock()
    clock.sample(10)
    times["factor"] = clock.factor()
    return times


def instrument_counts(call) -> dict:
    """Run ``call`` once with the program's metrics on; return counter deltas."""
    from repro import obs
    from repro.obs import instruments

    obs.REGISTRY.reset()
    obs.enable_metrics()
    try:
        call()
    finally:
        obs.disable()
    return {
        "kernel.pairs": instruments.KERNEL_SELECTED.value("pairs"),
        "kernel.gather": instruments.KERNEL_SELECTED.value("gather"),
        "shards": instruments.PARALLEL_SHARDS.total(),
    }


def _closed_loop(one, seconds: float, *, minimum: int, clock, recorder=None, prepare=None):
    """Call ``one(i)`` back to back for ``seconds``; return latencies in s.

    ``prepare(i)``, when given, draws operation ``i``'s input before its
    clock starts; the host clock is sampled between operations.
    """
    latencies: list[float] = []
    start = time.perf_counter()
    while len(latencies) < minimum or time.perf_counter() - start < seconds:
        i = len(latencies)
        if prepare is not None:
            prepare(i)
        with recorder.operation() if recorder is not None else nullcontext():
            t = time.perf_counter()
            one(i)
            latencies.append(time.perf_counter() - t)
        clock.tick()
    return latencies


def _timed_phases(one, spec: dict, *, minimum: int, clock, prepare=None) -> dict:
    """Run the timed loop, or the interleaved loop of a traced run.

    A traced run alternates untraced and traced operations with the
    wrappers installed throughout, so the tracing overhead is measured
    under the same conditions as the operations it is compared with.  It
    needs only enough operations for medians, so it asks for a tenth of
    ``minimum`` of each kind.
    """
    seconds = float(spec["seconds"])
    if not spec["trace"]:
        return {
            "latencies": _closed_loop(
                one, seconds, minimum=minimum, clock=clock, prepare=prepare
            )
        }
    minimum = max(3, minimum // 10)
    recorder = Recorder()
    install(recorder)
    untraced: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    while min(len(untraced), len(traced)) < minimum or time.perf_counter() - start < seconds:
        target = traced if len(traced) < len(untraced) else untraced
        target += _closed_loop(
            one, 0.0, minimum=1, clock=clock, prepare=prepare,
            recorder=recorder if target is traced else None,
        )
    return {"latencies": untraced, "traced": traced, "recorder": recorder}


def _trace_summary(phases: dict) -> dict:
    table = stage_table(phases["recorder"])
    untraced = median(phases["latencies"]) * 1e3
    traced = median(phases["traced"]) * 1e3
    table["overhead_ms"] = traced - untraced
    return table


# -- fig5-store ---------------------------------------------------------------


def task_fig5(spec: dict) -> dict:
    context, groups, _, setup = _open_store(spec["store"])
    clock = HostClock()
    clock.sample(10)
    from repro.analysis.experiment import circles_vs_random

    rng = random.Random(spec["seed"])
    groups_per_op = []

    def run(seed: int, jobs: int):
        return circles_vs_random(
            (context, groups),
            context=context,
            sampler="random_walk",
            seed=seed,
            jobs=jobs,
            cache=False,
        )

    def one(_: int) -> None:
        result = run(rng.randrange(1 << 31), spec["jobs"])
        groups_per_op.append(len(result.circle_scores) + len(result.random_scores))

    # The first run pages the store in; it is the correctness check's
    # jobs=2 half and is not timed.
    check_seed = rng.randrange(1 << 31)
    parallel = run(check_seed, spec["jobs"])
    phases = _timed_phases(one, spec, minimum=3, clock=clock)
    rss = _maxrss_mb()

    # Correctness: one seed's jobs=2 result equals jobs=1.
    start = time.perf_counter()
    serial = run(check_seed, 1)
    serial_s = time.perf_counter() - start
    failures = []
    for part in ("circle_scores", "random_scores"):
        a, b = getattr(serial, part), getattr(parallel, part)
        if a.group_names != b.group_names or a.group_sizes != b.group_sizes:
            failures.append(f"{part}: names or sizes differ between jobs=1 and jobs=2")
        for name in a.function_names():
            if a.columns[name].tobytes() != b.columns[name].tobytes():
                failures.append(f"{part}.{name}: jobs=2 column differs from jobs=1")
    out = {
        "setup": setup,
        "latencies": phases["latencies"],
        "groups_per_op": median(groups_per_op),
        "sets_per_op": len(parallel.random_scores),
        "peak_rss_mb": rss,
        "failures": failures,
        "checks": 1,
        "serial_s": serial_s,
        "factor": clock.factor(),
    }
    if spec["trace"]:
        out["trace"] = _trace_summary(phases)
        out["counts"] = instrument_counts(lambda: run(check_seed, spec["jobs"]))
    return out


# -- delta-edit ---------------------------------------------------------------


def _make_delta(rng, context, groups, delta_cls):
    """A seeded delta that is valid against the current state."""
    import numpy as np

    csr = context.csr
    indptr, indices = csr.indptr, csr.indices
    n = context.num_vertices
    nodes = context.nodes

    def present(a: int, b: int) -> bool:
        row = indices[indptr[a] : indptr[a + 1]]
        k = int(np.searchsorted(row, b))
        return k < row.size and int(row[k]) == b

    removes: set[tuple[int, int]] = set()
    while len(removes) < DELTA_EDGES:
        u = rng.randrange(n)
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        if hi == lo:
            continue
        v = int(indices[rng.randrange(lo, hi)])
        removes.add((min(u, v), max(u, v)))
    adds: set[tuple[int, int]] = set()
    while len(adds) < DELTA_EDGES:
        u, v = rng.randrange(n), rng.randrange(n)
        a, b = min(u, v), max(u, v)
        if a != b and not present(a, b):
            adds.add((a, b))
    add_members, remove_members = [], []
    moved: set[str] = set()
    while len(add_members) < DELTA_MOVES:
        source = groups[rng.randrange(len(groups))]
        target = groups[rng.randrange(len(groups))]
        if source.name == target.name or source.name in moved or target.name in moved:
            continue
        if len(source) < 2:
            continue
        member = sorted(source.members)[rng.randrange(len(source))]
        if member in target.members:
            continue
        moved.update((source.name, target.name))
        remove_members.append((source.name, member))
        add_members.append((target.name, member))
    return delta_cls(
        add_edges=tuple((nodes[a], nodes[b]) for a, b in sorted(adds)),
        remove_edges=tuple((nodes[a], nodes[b]) for a, b in sorted(removes)),
        add_members=tuple(add_members),
        remove_members=tuple(remove_members),
    )


def task_delta(spec: dict) -> dict:
    context, groups, batch, setup = _open_store(spec["store"], baseline=True)
    clock = HostClock()
    clock.sample(10)
    from repro.engine import batch_group_stats_columns
    from repro.engine import delta as delta_module
    from repro.scoring import columnar
    from repro.scoring.registry import make_paper_functions

    # Module attributes, not local names: a traced run's wrappers replace
    # the module attributes after this point.
    ContextDelta = delta_module.ContextDelta

    functions = make_paper_functions()
    rng = random.Random(spec["seed"])
    state = {
        "context": context,
        "groups": groups,
        "batch": batch,
        "names": [group.name for group in groups],
        "matrix": None,
    }
    dirty_counts: list[int] = []

    def draw(_: int) -> None:
        state["pending"] = _make_delta(
            rng, state["context"], state["groups"], ContextDelta
        )

    def edit(_: int) -> None:
        delta = state.pop("pending")
        patched = delta.apply(state["context"])
        new_groups = delta.apply_groups(state["groups"])
        dirty = delta.dirty_names(new_groups)
        new_batch = delta_module.rescore_groups_columns(
            patched, new_groups, state["batch"], state["names"], dirty
        )
        state["matrix"] = columnar.score_matrix(functions, new_batch)
        state.update(context=patched, groups=new_groups, batch=new_batch)
        state["names"] = [group.name for group in new_groups]
        dirty_counts.append(len(dirty))

    # At least 1000 edits, so that ten or more lie beyond the p99.
    phases = _timed_phases(edit, spec, minimum=1000, clock=clock, prepare=draw)
    rss = _maxrss_mb()

    # Correctness: the spliced state equals a from-scratch pass.
    failures = []
    fresh = batch_group_stats_columns(
        state["context"], [list(group.members) for group in state["groups"]]
    )
    current = state["batch"]
    for column in (
        "n_C", "m_C", "c_C", "group_offsets", "member_degrees",
        "member_internal_degrees", "member_in_degrees", "member_out_degrees",
    ):
        if getattr(current, column).tobytes() != getattr(fresh, column).tobytes():
            failures.append(f"spliced column {column} differs from a fresh pass")
    if current.members != fresh.members or current.m != fresh.m:
        failures.append("spliced members or edge count differ from a fresh pass")
    if state["matrix"].tobytes() != columnar.score_matrix(functions, fresh).tobytes():
        failures.append("spliced score matrix differs from a fresh score_matrix")
    out = {
        "setup": setup,
        "latencies": phases["latencies"],
        "groups_per_op": len(state["groups"]),
        "dirty_counts": dirty_counts,
        "edges_final": state["context"].num_edges,
        "delta_shape": {"edge_adds": DELTA_EDGES, "edge_removes": DELTA_EDGES,
                        "member_moves": DELTA_MOVES},
        "peak_rss_mb": rss,
        "failures": failures,
        "checks": 1,
        "factor": clock.factor(),
    }
    if spec["trace"]:
        out["trace"] = _trace_summary(phases)

        def probe() -> None:
            draw(0)
            edit(0)

        out["counts"] = instrument_counts(probe)
    return out


# -- score-cli ----------------------------------------------------------------


def task_score_summary(spec: dict) -> dict:
    """The in-process reference for the CLI's printed summary."""
    context, groups, _, _ = _open_store(spec["store"])
    from repro.scoring.registry import score_groups

    table = score_groups(context, groups, cache=False)
    return {"groups": len(table), "summary": table.summary()}


# -- serve-mix ----------------------------------------------------------------


def task_serve_inputs(spec: dict) -> dict:
    """Build the google_plus store, the query catalogue and the disk tier."""
    import dataclasses

    import numpy as np

    from repro.data.groups import load_groups, save_groups
    from repro.engine import AnalysisContext, ResultCache, function_tokens, query_key
    from repro.scoring.registry import PAPER_FUNCTION_NAMES, make_function, score_groups
    from repro.synth.paper_datasets import GOOGLE_PLUS_CONFIG, build_google_plus

    root = Path(spec["root"])
    config = dataclasses.replace(GOOGLE_PLUS_CONFIG, num_egos=spec["gplus_egos"])
    dataset = build_google_plus(seed=spec["gplus_seed"], config=config)
    store = AnalysisContext(dataset.graph).save(root / "gplus")
    save_groups(dataset.groups, store / "groups.json")

    functions = [make_function(name) for name in PAPER_FUNCTION_NAMES]
    tokens = function_tokens(functions)
    cache = ResultCache(spec["cache"])
    rng = np.random.default_rng(spec["seed"])
    catalogue: dict[str, list] = {}
    circles: dict[str, list] = {}
    sizes_info: dict[str, dict] = {}
    for name in ("planted", "gplus"):
        context = AnalysisContext.open(root / name)
        groups = load_groups(root / name / "groups.json")
        table = score_groups(context, groups, cache=False)
        position = {g: i for i, g in enumerate(table.group_names)}
        members = {
            group.name: [node for node in group.members if node in context]
            for group in groups
        }
        group_names = table.group_names
        entries = []
        seen: set[tuple[str, ...]] = set()
        for rank in range(spec["queries_per_dataset"]):
            # Heavy-tailed request sizes of 1..100 names (a Lomax law,
            # shape 1.2), given to popularity ranks by a fixed
            # low-discrepancy sequence: every seed sees the same sizes at
            # the same popularity, and only the names drawn differ.  The
            # law is an assumption: no traffic of the service has been
            # measured, and no public trace counts names per request.
            u = ((rank + 1) * 0.6180339887498949) % 1.0
            size = min(100, len(group_names), 1 + int(2 * ((1 - u) ** (-1 / 1.2) - 1)))
            while True:
                chosen = tuple(
                    group_names[i]
                    for i in rng.choice(len(group_names), size=size, replace=False)
                )
                if chosen not in seen:
                    break
                # Small stores run out of distinct small subsets.
                size = min(size + 1, len(group_names))
            seen.add(chosen)
            id_lists = [context.vertex_ids(members[g]) for g in chosen]
            key = query_key(
                context,
                tokens=tokens,
                group_names=list(chosen),
                id_lists=id_lists,
                include_internal_adjacency=False,
            )
            rows = [position[g] for g in chosen]
            cache.store_score_table(
                key,
                list(chosen),
                [table.group_sizes[r] for r in rows],
                {f: table.columns[f][rows] for f in table.function_names()},
            )
            entries.append([list(chosen), f'"{key}"'])
        catalogue[name] = entries
        # The member lists the POSTs send: every stored group's, in order.
        circles[name] = [sorted(m, key=str) for m in members.values() if m]
        sizes_info[name] = {
            "n": context.num_vertices,
            "m": context.num_edges,
            "groups": len(groups),
            "directed": context.is_directed,
            "store_bytes": sum(
                p.stat().st_size for p in (root / name).rglob("*") if p.is_file()
            ),
        }
    return {"catalogue": catalogue, "circles": circles, "inputs": sizes_info}


def _same_column(reference, served) -> bool:
    """Bitwise equality; NaN positions must match (JSON carries no payload)."""
    import numpy as np

    nan = np.isnan(reference)
    if not np.array_equal(nan, np.isnan(served)):
        return False
    return reference[~nan].tobytes() == served[~nan].tobytes()


def task_serve_check(spec: dict) -> dict:
    """Served columns must be bitwise equal to an in-process score_groups."""
    import numpy as np

    from repro.data.groups import GroupSet, VertexGroup, load_groups
    from repro.engine import AnalysisContext
    from repro.scoring.registry import score_groups

    root = Path(spec["root"])
    samples = json.loads(Path(spec["samples"]).read_text(encoding="utf-8"))
    failures = []
    references = {}
    for name in ("planted", "gplus"):
        context = AnalysisContext.open(root / name)
        groups = load_groups(root / name / "groups.json")
        references[name] = (context, score_groups(context, groups, cache=False))
    checks = 0
    for sample in samples:
        context, full = references[sample["dataset"]]
        payload = json.loads(sample["body"])
        served_names = [g["name"] for g in payload["groups"]]
        if sample["kind"] == "post":
            groups = GroupSet(
                groups=[
                    VertexGroup(name=record["name"], members=frozenset(record["members"]))
                    for record in sample["groups"]
                ]
            )
            expected = score_groups(context, groups, cache=False)
            rows = list(range(len(expected)))
        else:
            expected = full
            index = {g: i for i, g in enumerate(full.group_names)}
            rows = [index[g] for g in sample["names"]]
        if served_names != [expected.group_names[r] for r in rows]:
            failures.append(f"{sample['kind']} {sample['dataset']}: group names differ")
            continue
        for function_name in expected.function_names():
            reference = expected.columns[function_name][rows]
            served = np.array(
                [float(g["scores"][function_name]) for g in payload["groups"]],
                dtype=np.float64,
            )
            if not _same_column(reference, served):
                failures.append(
                    f"{sample['kind']} {sample['dataset']}: {function_name} differs "
                    "bitwise from score_groups"
                )
        checks += 1
    return {"failures": failures, "checks": checks}


def task_serve_replay(spec: dict) -> dict:
    """Replay each request class in-process through CircleService.dispatch."""
    import asyncio

    from repro.service import CircleService, ServiceConfig
    from repro.service.http import read_request
    from repro.service.registry import DatasetRegistry

    root = Path(spec["root"])
    loop = asyncio.new_event_loop()

    async def parse(raw: bytes):
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    def services() -> dict:
        return {
            # POSTs replay with a zero batch window, so their dispatch time
            # is the scoring work alone and the window shows as the gap to
            # the client-side latency.
            "post": CircleService(ServiceConfig(root=root, cache=spec["cache"], jobs=1, batch_window=0.0)),
            "other": CircleService(ServiceConfig(root=root, cache=spec["cache"], jobs=1)),
        }

    def dispatch(pass_services: dict, kind: str, raw: str, recorder) -> tuple[float, float]:
        """Parse and dispatch one request; return (parse_s, dispatch_s)."""
        t = time.perf_counter()
        request = loop.run_until_complete(parse(raw.encode("latin-1")))
        parse_s = time.perf_counter() - t
        service = pass_services["post" if kind == "post" else "other"]
        with recorder.operation() if recorder is not None else nullcontext():
            t = time.perf_counter()
            with recorder.span(f"service.dispatch.{kind}") if recorder is not None else nullcontext():
                response = loop.run_until_complete(service.dispatch(request))
                response.render(keep_alive=True)
            dispatch_s = time.perf_counter() - t
        expected = 304 if kind == "revalidate" else 200
        if response.status != expected:
            raise RuntimeError(f"replayed {kind} answered {response.status}")
        return parse_s, dispatch_s

    recorder = Recorder()
    install(recorder)
    attach = []
    for name in ("planted", "gplus"):
        registry = DatasetRegistry(root, jobs=1)
        with recorder.operation():
            t = time.perf_counter()
            entry = registry.acquire(name)
            attach.append(time.perf_counter() - t)
        registry.release(entry)
        registry.close()
    # The same requests through two sets of services, untraced and traced,
    # taking turns at going first, so both passes see the same page cache.
    passes = {"untraced": services(), "traced": services()}
    times: dict[str, dict[str, list[float]]] = {
        name: {"get": [], "revalidate": [], "post": [], "all": [], "parse": []} for name in passes
    }
    for i, (kind, raw_untraced, raw_traced) in enumerate(spec["requests"]):
        order = [("untraced", raw_untraced, None), ("traced", raw_traced, recorder)]
        for name, raw, rec in order if i % 2 == 0 else order[::-1]:
            parse_s, dispatch_s = dispatch(passes[name], kind, raw, rec)
            out = times[name]
            out["parse"].append(parse_s)
            out[kind].append(dispatch_s)
            out["all"].append(dispatch_s)
    for pass_services in passes.values():
        for service in pass_services.values():
            service.registry.close()
    loop.close()
    table = stage_table(recorder)
    calls: dict[str, list[int]] = {}
    for name, start, end, _, _ in recorder.spans:
        if end:
            calls.setdefault(name, []).append(end - start)
    traced, untraced = times["traced"], times["untraced"]
    return {
        "attach_s": median(attach),
        "dispatch_ms": {k: median(v) * 1e3 for k, v in traced.items()
                        if v and k not in ("parse", "all")},
        "overhead_ms": (median(traced["all"]) - median(untraced["all"])) * 1e3,
        "parse_us": median(untraced["parse"]) * 1e6,
        "call_ms": {k: median(v) / 1e6 for k, v in calls.items()},
        "trace": table,
    }


TASKS = {
    "setup": task_setup,
    "fig5": task_fig5,
    "delta": task_delta,
    "score_summary": task_score_summary,
    "serve_inputs": task_serve_inputs,
    "serve_check": task_serve_check,
    "serve_replay": task_serve_replay,
}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = TASKS[spec["task"]](spec)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
