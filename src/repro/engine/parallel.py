"""Shared-memory multiprocess execution of the engine's batch kernels.

The Fig. 5/6 experiments are embarrassingly parallel across groups and
replicates, and a frozen :class:`~repro.engine.AnalysisContext` is
immutable by contract — so parallelism here is a pure fan-out:

* the parent exports the frozen CSR buffers (every orientation, the
  degree array, and ``label_rank`` unless ids already run in label
  order) into ``multiprocessing.shared_memory`` segments, read through
  the same :meth:`~repro.engine.context.AnalysisContext.csr_buffers`
  accessor the manifest fingerprint hashes;
* each worker attaches the segments zero-copy and rebuilds a trusted
  context over integer vertex ids
  (:meth:`~repro.engine.context.AnalysisContext.from_parts`) — node
  labels never cross the process boundary;
* group batches are sharded deterministically (contiguous ranges in
  canonical group order) and results merge back in shard order, so
  parallel output is **byte-identical** to serial;
* sampling tasks receive per-replicate child seeds derived with
  :func:`repro.sampling.seeds.spawn_child_seeds` — replicate ``i`` sees
  the same stream whichever process runs it (live RNG objects must not
  cross the boundary; lint rule ``REP105`` enforces this).

Workers run with observability disabled: a forked child would otherwise
inherit the parent's tracer and interleave writes into its trace file.
The parent records shard fan-out in ``engine.parallel_shards`` instead,
and adds up the random-walk step and restart totals each sampling chunk
returns with its id arrays (``sampler.walk_steps``/``walk_restarts``).
"""

from __future__ import annotations

import multiprocessing
import os
import random
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING

import numpy as np
from multiprocessing import shared_memory

from repro.engine.context import AnalysisContext
from repro.exceptions import ParallelError
from repro.graph.csr import CSRGraph, IdentityIndex, IdentityNodes
from repro.obs import instruments

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle-free)
    from repro.scoring.base import ScoringFunction

__all__ = ["ParallelExecutor", "resolve_jobs", "shard_ranges"]

#: Shards per worker: finer than one-per-worker so a shard of heavy
#: groups cannot leave the other workers idle at the tail of a batch.
_SHARDS_PER_JOB = 4


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit argument, ``REPRO_JOBS``, else 1.

    ``jobs=1`` (the default everywhere) means "serial, in-process" — no
    pool, no shared memory, no behaviour change.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def shard_ranges(count: int, shards: int) -> list[range]:
    """Split ``range(count)`` into at most ``shards`` contiguous ranges.

    Deterministic balanced split (sizes differ by at most one, longer
    shards first); empty input yields no shards.  Merging per-shard
    results in shard order therefore reproduces canonical input order.
    """
    if count <= 0:
        return []
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    ranges: list[range] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append(range(start, stop))
        start = stop
    return ranges


# -- shared-memory export (parent side) --------------------------------------


class _SharedContext:
    """Parent-side owner of one frozen context's shared-memory segments.

    Memmap-backed arrays (a context opened from an on-disk CSR store) are
    exported as **file references** instead of shared-memory copies: every
    worker re-maps the same file read-only, so a 10^8-edge store costs one
    page-cache residency no matter how many workers attach.  RAM-resident
    arrays still go through shared memory.
    """

    def __init__(self, context: AnalysisContext) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        exported = False
        try:
            orientations = {
                name: {
                    array_name: self._export(array)
                    for array_name, array in buffers.arrays()
                }
                for name, buffers in context.csr_buffers().items()
            }
            self.spec = {
                "n": context.num_vertices,
                "m": context.num_edges,
                "directed": context.is_directed,
                "orientations": orientations,
                "degree": self._export(context.degree_array),
                # Ids already in label order need no rank: the worker
                # contexts (identity-labelled) then never sort by it.
                "label_rank": (
                    None
                    if context.ids_in_label_order
                    else self._export(context.label_rank)
                ),
                "median_degree": context.median_degree,
            }
            exported = True
        finally:
            # A half-finished export must not leak kernel-backed segments.
            if not exported:
                self.close()

    def _export(self, array: np.ndarray) -> dict[str, object]:
        if (
            isinstance(array, np.memmap)
            and not array.flags.writeable
            and array.flags.c_contiguous
        ):
            return {
                "kind": "file",
                "path": str(array.filename),
                "dtype": array.dtype.str,
                "shape": tuple(array.shape),
                "offset": int(array.offset),
            }
        array = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        del view
        self._segments.append(segment)
        return {
            "kind": "shm",
            "name": segment.name,
            "dtype": array.dtype.str,
            "shape": tuple(array.shape),
        }

    def close(self) -> None:
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []


# -- worker side -------------------------------------------------------------


#: Per-worker state: attached segments (kept alive for the process) and
#: the rebuilt trusted context.  Set once by :func:`_worker_init`.
_WORKER: dict[str, object] = {}


def _attach(ref: dict[str, object]) -> np.ndarray:
    """Materialize one exported buffer reference as a read-only array.

    ``kind == "file"`` refs re-map the backing file (``mode="r"``);
    shared-memory refs attach the segment and mark the view read-only —
    frozen buffers must never be writable in a worker (``from_arrays``
    rejects writable views outright).
    """
    if ref.get("kind") == "file":
        return np.memmap(
            str(ref["path"]),
            dtype=np.dtype(ref["dtype"]),  # type: ignore[arg-type]
            mode="r",
            offset=int(ref["offset"]),  # type: ignore[arg-type]
            shape=tuple(ref["shape"]),  # type: ignore[arg-type]
        )
    # Attaching must not (re-)register the segment with the resource
    # tracker: the parent owns it, and a tracker that believes a worker
    # owns it would unlink it under the parent on worker exit (or choke
    # on the double unregister).  Python 3.13 has track=False for this;
    # here registration is suppressed for the duration of the attach.
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register

    def _borrowing_register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":  # pragma: no cover - not hit here
            original_register(name, rtype)

    resource_tracker.register = _borrowing_register
    try:
        segment = shared_memory.SharedMemory(name=ref["name"])
    finally:
        resource_tracker.register = original_register
    segments = _WORKER.setdefault("segments", [])
    segments.append(segment)  # type: ignore[union-attr]
    view = np.ndarray(
        tuple(ref["shape"]), dtype=np.dtype(ref["dtype"]), buffer=segment.buf
    )
    view.flags.writeable = False
    return view


def _worker_init(spec: dict[str, object]) -> None:
    """Attach the shared CSR arrays and rebuild a trusted context.

    Runs once per worker process.  Observability is force-disabled: a
    forked worker inherits the parent's tracer state and must not write
    into the parent's trace stream.
    """
    from repro.obs._runtime import STATE

    STATE.enabled = False
    STATE.tracer = None
    STATE.owns_tracemalloc = False

    orientations = {
        name: {
            array_name: _attach(ref)
            for array_name, ref in refs.items()  # type: ignore[union-attr]
        }
        for name, refs in spec["orientations"].items()  # type: ignore[union-attr]
    }
    n = int(spec["n"])  # type: ignore[arg-type]
    nodes = IdentityNodes(n)
    index_of = IdentityIndex(n)
    union = CSRGraph.from_arrays(
        orientations["union"]["indptr"],
        orientations["union"]["indices"],
        nodes,  # type: ignore[arg-type]
        index_of,
        orientation="union",
    )
    csr_out = csr_in = None
    if "out" in orientations:
        csr_out = CSRGraph.from_arrays(
            orientations["out"]["indptr"],
            orientations["out"]["indices"],
            nodes,  # type: ignore[arg-type]
            index_of,
            orientation="out",
        )
    if "in" in orientations:
        csr_in = CSRGraph.from_arrays(
            orientations["in"]["indptr"],
            orientations["in"]["indices"],
            nodes,  # type: ignore[arg-type]
            index_of,
            orientation="in",
        )
    _WORKER["context"] = AnalysisContext.from_parts(
        union,
        csr_out,
        csr_in,
        num_edges=int(spec["m"]),  # type: ignore[arg-type]
        is_directed=bool(spec["directed"]),
        degree_array=_attach(spec["degree"]),  # type: ignore[arg-type]
        median_degree=float(spec["median_degree"]),  # type: ignore[arg-type]
        label_rank=(
            _attach(spec["label_rank"])  # type: ignore[arg-type]
            if spec["label_rank"] is not None
            else None
        ),
    )


def _worker_context() -> AnalysisContext:
    context = _WORKER.get("context")
    if context is None:  # pragma: no cover - initializer always ran
        raise ParallelError("worker used before shared-context attach")
    return context  # type: ignore[return-value]


def _score_shard(
    id_lists: list[np.ndarray],
    functions: Sequence[ScoringFunction],
    graph_median_degree: float | None,
    include_internal_adjacency: bool,
) -> tuple[list[int], np.ndarray]:
    """Score one shard of groups (given as vertex-id arrays) in a worker.

    Returns the shard's deduplicated sizes and its packed ``(G, F)``
    score-matrix block — a few contiguous float64 arrays on the IPC
    channel instead of pickled per-group ``GroupStats`` objects.
    """
    from repro.scoring.columnar import score_stats_columns

    return score_stats_columns(
        _worker_context(),
        id_lists,
        functions,
        graph_median_degree=graph_median_degree,
        include_internal_adjacency=include_internal_adjacency,
    )


def _sample_chunk(
    tasks: list[tuple[str, int, int | None]],
) -> tuple[list[np.ndarray], int, int]:
    """Draw one chunk of matched sets; each task owns a child seed.

    Returns the id arrays plus the chunk's random-walk step and restart
    totals: worker metrics are off, so the parent counts them.
    """
    from repro.engine.samplers import SAMPLER_IDS, _random_walk_ids

    context = _worker_context()
    tally = [0, 0]
    results: list[np.ndarray] = []
    for sampler, size, child_seed in tasks:
        rng = random.Random(child_seed)
        if sampler == "random_walk":
            ids = _random_walk_ids(context, size, rng, tally=tally)
        else:
            ids = SAMPLER_IDS[sampler](context, size, rng)
        results.append(ids)
    return results, tally[0], tally[1]


# -- the executor ------------------------------------------------------------


def _pool_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    # fork is the cheap path (no interpreter re-exec per worker); spawn
    # works too — workers only need the importable repro package plus the
    # shared-memory segment names in the initializer spec.
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ParallelExecutor:
    """Worker pool bound to one frozen context's shared-memory export.

    Create one per (context, jobs) pair and reuse it across every batch
    of a driver run — pool startup and CSR export are paid once.  The
    pool and segments materialize lazily on first use, so an executor
    created for a run that ends up serial (tiny batch, unsafe functions)
    costs nothing.  Always :meth:`close` (or use as a context manager);
    otherwise the shared segments outlive the run.
    """

    def __init__(
        self, context: AnalysisContext, jobs: int | None = None
    ) -> None:
        self.context = AnalysisContext.ensure(context)
        self.jobs = resolve_jobs(jobs)
        self._shared: _SharedContext | None = None
        self._pool: ProcessPoolExecutor | None = None

    @property
    def active(self) -> bool:
        """Whether this executor parallelizes at all (``jobs > 1``)."""
        return self.jobs > 1

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._shared = _SharedContext(self.context)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_pool_context(),
                initializer=_worker_init,
                initargs=(self._shared.spec,),
            )
        return self._pool

    def _collect(self, futures: list) -> list:
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            self.close()
            raise ParallelError(
                f"a worker process died while executing a shard "
                f"(jobs={self.jobs}); rerun with --jobs 1 to isolate the "
                f"failing input"
            ) from exc

    def score_groups(
        self,
        id_lists: list[np.ndarray],
        functions: Sequence[ScoringFunction],
        *,
        graph_median_degree: float | None,
        include_internal_adjacency: bool,
    ) -> tuple[list[int], np.ndarray]:
        """Score groups (vertex-id arrays) across the pool.

        Returns per-group deduplicated sizes and the ``(G, F)`` score
        matrix in the input order — shards are contiguous and their
        matrix blocks concatenate back in shard order, so the result is
        byte-identical to one serial columnar pass.
        """
        shards = shard_ranges(len(id_lists), self.jobs * _SHARDS_PER_JOB)
        if not shards:
            return [], np.empty((0, len(functions)), dtype=np.float64)
        pool = self._ensure_pool()
        instruments.PARALLEL_SHARDS.inc(len(shards), label="score")
        futures = [
            pool.submit(
                _score_shard,
                [id_lists[i] for i in shard],
                functions,
                graph_median_degree,
                include_internal_adjacency,
            )
            for shard in shards
        ]
        sizes: list[int] = []
        blocks: list[np.ndarray] = []
        for shard_sizes, shard_matrix in self._collect(futures):
            sizes.extend(shard_sizes)
            blocks.append(shard_matrix)
        return sizes, np.concatenate(blocks, axis=0)

    def sample_ids(
        self,
        sampler: str,
        sizes: Sequence[int],
        child_seeds: Sequence[int | None],
    ) -> list[np.ndarray]:
        """Draw matched sets across the pool; returns vertex-id arrays.

        Replicate ``i`` consumes exactly ``child_seeds[i]``, the stream
        the serial loop would hand it, so the draws replay seed-for-seed
        regardless of which worker runs which chunk.  The random-walk
        step and restart counts the chunks return are added to this
        process's metrics, so they read as in the serial run.
        """
        tasks = [
            (sampler, int(size), child_seeds[i])
            for i, size in enumerate(sizes)
        ]
        chunks = shard_ranges(len(tasks), self.jobs * _SHARDS_PER_JOB)
        if not chunks:
            return []
        pool = self._ensure_pool()
        instruments.PARALLEL_SHARDS.inc(len(chunks), label="sample")
        futures = [
            pool.submit(_sample_chunk, [tasks[i] for i in chunk])
            for chunk in chunks
        ]
        results: list[np.ndarray] = []
        steps = restarts = 0
        for chunk_results, chunk_steps, chunk_restarts in self._collect(
            futures
        ):
            results.extend(chunk_results)
            steps += chunk_steps
            restarts += chunk_restarts
        if sampler == "random_walk":
            instruments.WALK_STEPS.inc(steps)
            instruments.WALK_RESTARTS.inc(restarts)
        return results

    def close(self) -> None:
        """Shut the pool down and release the shared-memory segments."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._shared is not None:
            self._shared.close()
            self._shared = None
