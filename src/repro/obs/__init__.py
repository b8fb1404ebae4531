"""repro.obs — zero-dependency observability: tracing, metrics, manifests.

Three instruments, one switch:

* :func:`span` — nestable timing spans collected into a tree by the
  active :class:`~repro.obs.tracer.Tracer` (wall time, optional
  ``tracemalloc`` peak delta, counters), exported as JSONL or text;
* :data:`~repro.obs.metrics.REGISTRY` — process-wide counters, gauges
  and fixed-bucket histograms incremented by the engine kernels,
  samplers, null models and the linter (catalogue:
  :mod:`repro.obs.instruments` and ``docs/OBSERVABILITY.md``);
* :class:`~repro.obs.manifest.RunManifest` — captured at every
  experiment entry point while enabled: seeds, dataset fingerprints,
  chosen kernels, package/Python versions.

Everything is **off by default** and instrumentation must never change a
result: with the switch off, :func:`span` returns a shared no-op context
manager and every metric method returns after one flag check
(``benchmarks/bench_obs_overhead.py`` holds this under 3 % of the
batch-scoring pass and asserts scores are byte-identical on vs. off).

Enable programmatically::

    from repro import obs

    tracer = obs.enable()
    result = circles_vs_random(dataset, seed=0)
    obs.disable()
    tracer.write_jsonl("trace.jsonl")

or from the shell: ``repro trace score --dataset gplus-synth`` /
``--trace-out trace.jsonl`` on any subcommand / ``REPRO_TRACE=1`` in the
environment (auto-enables at import; export via the CLI or your own
:func:`current_tracer` call).
"""

from __future__ import annotations

import os

from repro.obs._runtime import STATE
from repro.obs.manifest import (
    DatasetManifest,
    RunManifest,
    capture_manifest,
    fingerprint_context,
    read_manifests,
    write_manifests,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "Tracer",
    "DatasetManifest",
    "RunManifest",
    "capture_manifest",
    "fingerprint_context",
    "write_manifests",
    "read_manifests",
    "enabled",
    "enable",
    "enable_metrics",
    "disable",
    "current_tracer",
    "span",
    "add",
    "record_manifest",
]


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


def enabled() -> bool:
    """Return whether observability is currently on."""
    return STATE.enabled


def enable(
    tracer: Tracer | None = None, *, name: str = "run", memory: bool = False
) -> Tracer:
    """Switch observability on and install (or create) the active tracer.

    ``memory=True`` starts :mod:`tracemalloc` (if not already tracing) so
    spans record peak allocation deltas; :func:`disable` stops it again
    if this call started it.  Re-enabling replaces the previous tracer.
    """
    import tracemalloc

    if tracer is None:
        tracer = Tracer(name, memory=memory)
    elif memory:
        tracer.memory = True
    if tracer.memory and not tracemalloc.is_tracing():
        tracemalloc.start()
        STATE.owns_tracemalloc = True
    STATE.tracer = tracer
    STATE.enabled = True
    return tracer


def enable_metrics() -> None:
    """Switch observability on *without* installing a tracer.

    The long-running path (the service layer, ``repro serve``): every
    :data:`REGISTRY` instrument records, but :func:`span` keeps
    returning the shared no-op because no tracer is active — a server
    must not accumulate an unbounded span tree over its lifetime.
    :func:`disable` switches back off; calling this while a tracer is
    already enabled is a no-op (the tracer stays).
    """
    STATE.enabled = True


def disable() -> Tracer | None:
    """Switch observability off; return the tracer that was active."""
    import tracemalloc

    tracer = STATE.tracer
    if STATE.owns_tracemalloc and tracemalloc.is_tracing():
        tracemalloc.stop()
    STATE.owns_tracemalloc = False
    STATE.tracer = None
    STATE.enabled = False
    return tracer


def current_tracer() -> Tracer | None:
    """Return the active tracer, or None while observability is off."""
    return STATE.tracer


def span(name: str):
    """Open a named span on the active tracer (shared no-op when off).

    Usage at instrumented sites::

        with obs.span("engine.score_batch"):
            ...
    """
    if STATE.enabled and STATE.tracer is not None:
        return STATE.tracer.span(name)
    return _NOOP_SPAN


def add(key: str, value: float = 1) -> None:
    """Accumulate a counter on the innermost open span (no-op when off)."""
    if STATE.enabled and STATE.tracer is not None:
        STATE.tracer.add(key, value)


def record_manifest(manifest: RunManifest) -> None:
    """Attach a captured manifest to the active tracer (no-op when off)."""
    if not STATE.enabled:
        return
    from repro.obs import instruments

    instruments.MANIFESTS_RECORDED.inc()
    if STATE.tracer is not None:
        STATE.tracer.manifests.append(manifest)


# REPRO_TRACE=1 auto-enables tracing at import; nothing is written
# implicitly — export through the CLI's --trace-out or current_tracer().
if os.environ.get("REPRO_TRACE", "").strip().lower() not in (
    "",
    "0",
    "false",
    "no",
    "off",
):
    enable(name="env")
