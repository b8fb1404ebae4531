"""Plain edge-list readers and writers.

The format is the SNAP convention: one edge per line, two whitespace-
separated node ids, ``#``-prefixed comment lines ignored.  Files ending in
``.gz`` are transparently (de)compressed.
"""

from __future__ import annotations

import gzip
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.exceptions import FormatError
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

__all__ = [
    "read_edgelist",
    "write_edgelist",
    "iter_edges",
    "iter_edge_chunks",
]


def _open_text(path: Path, mode: str) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")  # type: ignore[return-value]
    return open(path, mode, encoding="utf-8")


def iter_edges(
    path: str | Path, *, node_type: Callable[[str], Any] = int
) -> Iterator[tuple[Any, Any]]:
    """Yield ``(u, v)`` pairs from an edge-list file.

    Raises :class:`~repro.exceptions.FormatError` on malformed lines so a
    truncated download fails loudly instead of silently dropping edges.
    """
    path = Path(path)
    with _open_text(path, "r") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise FormatError(
                    f"{path}:{line_number}: expected two fields, got {len(parts)}"
                )
            try:
                yield node_type(parts[0]), node_type(parts[1])
            except ValueError as exc:
                raise FormatError(f"{path}:{line_number}: {exc}") from exc


def iter_edge_chunks(
    path: str | Path, *, chunk_edges: int = 1 << 20
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(src, dst)`` int64 array chunks from an integer edge list.

    The out-of-core counterpart of :func:`iter_edges` for SNAP-style
    files whose node ids are already integers: chunks feed
    :func:`repro.synth.stream.freeze_stream` directly, so an edge list
    far larger than RAM can be frozen into an on-disk CSR store without
    a dict graph in between (see ``docs/SCALING.md``).  At most one
    chunk of ``chunk_edges`` pairs is held in memory at a time.
    """
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    us: list[int] = []
    vs: list[int] = []
    for u, v in iter_edges(path, node_type=int):
        us.append(u)
        vs.append(v)
        if len(us) >= chunk_edges:
            yield (
                np.asarray(us, dtype=np.int64),
                np.asarray(vs, dtype=np.int64),
            )
            us, vs = [], []
    if us:
        yield (
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
        )


def read_edgelist(
    path: str | Path,
    *,
    directed: bool = False,
    node_type: Callable[[str], Any] = int,
    name: str = "",
) -> Graph | DiGraph:
    """Read an edge-list file into a :class:`Graph` or :class:`DiGraph`."""
    graph: Graph | DiGraph = DiGraph(name=name) if directed else Graph(name=name)
    graph.add_edges_from(iter_edges(path, node_type=node_type))
    return graph


def write_edgelist(graph: Graph | DiGraph, path: str | Path) -> None:
    """Write ``graph`` as an edge-list file (``#`` header with metadata)."""
    path = Path(path)
    kind = "Directed" if graph.is_directed else "Undirected"
    with _open_text(path, "w") as handle:
        handle.write(f"# {kind} graph: {graph.name or 'unnamed'}\n")
        handle.write(
            f"# Nodes: {graph.number_of_nodes()} Edges: {graph.number_of_edges()}\n"
        )
        for u, v in graph.edges:
            handle.write(f"{u} {v}\n")
