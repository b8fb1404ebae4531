"""Conversions between graph representations.

The paper's robustness check (section IV-B) compares scoring results on the
directed Google+/Twitter graphs against an *undirected representation with
bidirectional edges combined to one*; :func:`to_undirected` implements
exactly that collapse.  The other helpers cover relabeling and
integer-indexing, which the CSR kernels and null models rely on.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

Node = Hashable

__all__ = [
    "to_undirected",
    "to_directed",
    "relabel_nodes",
    "integer_index",
    "from_edges",
    "stable_sorted",
]


def stable_sorted(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes into a deterministic, hash-independent order.

    Iterating a ``set`` of string nodes depends on ``PYTHONHASHSEED``, so
    any stochastic pipeline that draws from raw set order produces
    different output across processes *even with the same seed*.  Every
    sampler and null model orders candidate sets through this helper
    before consuming randomness.  Falls back to ``repr`` ordering for
    mixed-type node sets that do not support ``<``.
    """
    items = list(nodes)
    try:
        items.sort()
    except TypeError:
        items.sort(key=repr)
    return items


def to_undirected(graph: DiGraph | Graph, *, reciprocal_only: bool = False) -> Graph:
    """Return an undirected copy of ``graph``.

    Each directed edge becomes one undirected edge; a reciprocal pair
    ``u -> v`` / ``v -> u`` collapses to a single edge (the paper's
    "bidirectional edges combined to one").  With ``reciprocal_only=True``
    only reciprocated pairs are kept, dropping one-way edges entirely.

    Passing an undirected graph returns a copy (``reciprocal_only`` is
    meaningless there and must be left False).
    """
    if not graph.is_directed:
        if reciprocal_only:
            raise ValueError("reciprocal_only requires a directed graph")
        return graph.copy()
    result = Graph(name=graph.name)
    result.add_nodes_from(graph)
    for u, successors in graph.successors_adjacency():
        for v in successors:
            if reciprocal_only and not graph.has_edge(v, u):
                continue
            result.add_edge(u, v)
    return result


def to_directed(graph: Graph) -> DiGraph:
    """Return a directed copy with each undirected edge as a reciprocal pair."""
    result = DiGraph(name=graph.name)
    result.add_nodes_from(graph)
    for u, v in graph.edges:
        result.add_edge(u, v)
        result.add_edge(v, u)
    return result


def relabel_nodes(
    graph: Graph | DiGraph, mapping: Mapping[Node, Node]
) -> Graph | DiGraph:
    """Return a copy of ``graph`` with nodes renamed through ``mapping``.

    Every node must be present in ``mapping`` and the mapping must be
    injective on the node set; otherwise :class:`ValueError` is raised.
    """
    targets = [mapping[node] for node in graph]
    if len(set(targets)) != len(targets):
        raise ValueError("relabel mapping is not injective on the node set")
    if graph.is_directed:
        result: Graph | DiGraph = DiGraph(name=graph.name)
        result.add_nodes_from(targets)
        for u, v in graph.edges:
            result.add_edge(mapping[u], mapping[v])
    else:
        result = Graph(name=graph.name)
        result.add_nodes_from(targets)
        for u, v in graph.edges:
            result.add_edge(mapping[u], mapping[v])
    return result


def integer_index(graph: Graph | DiGraph) -> tuple[dict[Node, int], list[Node]]:
    """Return a stable node -> index mapping and its inverse list.

    Indices follow insertion order of the graph's node dict, so repeated
    calls on the same graph give identical mappings.
    """
    index_of: dict[Node, int] = {}
    nodes: list[Node] = []
    for i, node in enumerate(graph):
        index_of[node] = i
        nodes.append(node)
    return index_of, nodes


def from_edges(
    edges: Iterable[tuple[Node, Node]],
    *,
    directed: bool = False,
    nodes: Iterable[Node] | None = None,
    name: str = "",
) -> Graph | DiGraph:
    """Build a graph from an edge iterable (and optional isolated nodes)."""
    graph: Graph | DiGraph = DiGraph(name=name) if directed else Graph(name=name)
    if nodes is not None:
        graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph
