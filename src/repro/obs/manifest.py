"""Run manifests: what exactly did this experiment run on?

Every experiment entry point (:func:`repro.scoring.registry.score_groups`,
``circles_vs_random`` / ``compare_datasets`` / ``directed_vs_undirected``,
the CLI) captures a :class:`RunManifest` while observability is enabled:
the seeds in play, one :class:`DatasetManifest` per frozen graph (vertex
and edge counts plus a content fingerprint over the CSR arrays), the
chosen engine kernels, and the package/Python/numpy versions.  Manifests
ride along in the trace JSONL (``type: manifest`` records) and in a
``*.manifest.json`` sidecar next to ``--trace-out``, so a result file can
always be traced back to its exact inputs.

Determinism note: manifests deliberately carry **no timestamps or host
names** — two identical runs must produce byte-identical manifests, which
is what the round-trip and on-vs-off identity tests assert.
"""

from __future__ import annotations

import json
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.engine.context import AnalysisContext

__all__ = [
    "DatasetManifest",
    "RunManifest",
    "fingerprint_context",
    "capture_manifest",
    "write_manifests",
    "read_manifests",
]


#: Elements digested per update (16 MiB of int64): fingerprinting a
#: memmap-backed context streams the file through the page cache in
#: bounded slices instead of materializing one giant ``tobytes`` copy.
_FINGERPRINT_CHUNK = 1 << 21


def fingerprint_context(context: "AnalysisContext") -> str:
    """Hash a frozen context's content into a short stable fingerprint.

    Digests the union-orientation CSR buffers (read through
    :meth:`~repro.engine.context.AnalysisContext.csr_buffers`, the same
    accessor the shared-memory exporter uses) plus the node labels in
    vertex order, so any change to the graph's structure or labeling
    changes the fingerprint, while re-freezing the same graph reproduces
    it exactly.  Arrays are digested in bounded chunks (byte-identical
    to hashing them whole), and an identity labelling ``0 .. n-1`` is
    hashed as a compact marker — which is how an in-RAM freeze of an
    integer-labelled graph and the same graph re-opened from an on-disk
    store produce the *same* fingerprint.  The digest is memoized on the
    context — the result cache keys every lookup on it, and a frozen
    context's bytes never change.
    """
    import hashlib

    from repro.graph.csr import is_identity_nodes

    cached = context._fingerprint  # noqa: SLF001 - memoized on the context
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for _, array in context.csr_buffers()["union"].arrays():
        for start in range(0, array.size, _FINGERPRINT_CHUNK):
            digest.update(array[start : start + _FINGERPRINT_CHUNK].tobytes())
    nodes = context.csr.nodes
    if is_identity_nodes(nodes):
        digest.update(f"identity:{len(nodes)}".encode("utf-8"))
    else:
        digest.update(repr(list(nodes)).encode("utf-8"))
    digest.update(b"directed" if context.is_directed else b"undirected")
    value = digest.hexdigest()[:16]
    context._fingerprint = value  # noqa: SLF001
    return value


@dataclass(frozen=True)
class DatasetManifest:
    """Identity of one frozen graph: name, sizes, and content fingerprint."""

    name: str
    vertices: int
    edges: int
    directed: bool
    fingerprint: str

    @classmethod
    def from_context(
        cls, context: "AnalysisContext", *, name: str | None = None
    ) -> "DatasetManifest":
        """Capture a frozen :class:`~repro.engine.AnalysisContext`."""
        # display_name covers graph-less contexts (opened from an on-disk
        # store, or rebuilt by a delta) via their stored name.
        graph_name = (
            name if name is not None else (context.display_name or "graph")
        )
        return cls(
            name=graph_name,
            vertices=context.num_vertices,
            edges=context.num_edges,
            directed=context.is_directed,
            fingerprint=fingerprint_context(context),
        )


@dataclass(frozen=True, eq=True)
class RunManifest:
    """Everything needed to re-identify one experiment invocation."""

    command: str
    datasets: tuple[DatasetManifest, ...] = ()
    seeds: dict[str, int | None] = field(default_factory=dict)
    kernels: dict[str, object] = field(default_factory=dict)
    functions: tuple[str, ...] = ()
    package_version: str = ""
    python_version: str = ""
    numpy_version: str = ""
    extra: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """Serialize to plain JSON-ready types (tuples become lists)."""
        data = asdict(self)
        data["datasets"] = [asdict(entry) for entry in self.datasets]
        data["functions"] = list(self.functions)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output (round-trip)."""
        payload = dict(data)
        payload["datasets"] = tuple(
            DatasetManifest(**entry) for entry in payload.get("datasets", [])
        )
        payload["functions"] = tuple(payload.get("functions", ()))
        return cls(**payload)

    def write(self, path: str | Path) -> Path:
        """Write this manifest as sorted-key JSON and return the path."""
        target = Path(path)
        target.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def read(cls, path: str | Path) -> "RunManifest":
        """Load one manifest written by :meth:`write`."""
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )


def capture_manifest(
    command: str,
    *,
    contexts: "dict[str, AnalysisContext] | None" = None,
    seeds: dict[str, int | None] | None = None,
    kernels: dict[str, object] | None = None,
    functions: tuple[str, ...] | list[str] = (),
    extra: dict[str, object] | None = None,
) -> RunManifest:
    """Build a :class:`RunManifest` for ``command`` from frozen contexts.

    ``contexts`` maps a dataset name to its frozen context; the name
    overrides the graph's own.  ``kernels`` defaults to a snapshot of the
    ``engine.kernel_selected`` per-kernel batch counts, recording which
    membership kernels the engine actually chose up to this point.  Call
    this only while observability is enabled — fingerprinting hashes the
    whole CSR, which is exactly the cost the disabled path must not pay.
    """
    import numpy

    import repro
    from repro.obs import instruments

    if kernels is None:
        snapshot = instruments.KERNEL_SELECTED.snapshot()
        kernels = {"score_batch": snapshot["values"]}
        cache_totals = {
            "hits": instruments.CACHE_HITS.total(),
            "misses": instruments.CACHE_MISSES.total(),
            "evictions": instruments.CACHE_EVICTIONS.total(),
        }
        if any(cache_totals.values()):
            # Surface result-cache effectiveness only when a cache was in
            # play, so cache-free manifests keep their historical shape.
            kernels["cache"] = cache_totals
    dataset_entries = tuple(
        DatasetManifest.from_context(context, name=name)
        for name, context in (contexts or {}).items()
    )
    return RunManifest(
        command=command,
        datasets=dataset_entries,
        seeds=dict(seeds or {}),
        kernels=kernels,
        functions=tuple(functions),
        package_version=repro.__version__,
        python_version=platform.python_version(),
        numpy_version=numpy.__version__,
        extra=dict(extra or {}),
    )


def write_manifests(
    manifests: "list[RunManifest]", path: str | Path
) -> Path:
    """Write several manifests as one JSON list (the trace sidecar)."""
    target = Path(path)
    target.write_text(
        json.dumps(
            [manifest.to_dict() for manifest in manifests],
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return target


def read_manifests(path: str | Path) -> "list[RunManifest]":
    """Load a manifest list written by :func:`write_manifests`."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return [RunManifest.from_dict(entry) for entry in data]
