"""Modularity scoring with configurable null models.

The paper's fourth scoring function (eq. 4):

.. math:: f(C) = \\frac{1}{2m} (m_C - E(m_C))

where :math:`E(m_C)` is the expected number of internal edges of :math:`C`
in a null model with the same degree sequence (Newman–Girvan).  Two
expectation strategies are provided:

* **analytic** — the closed-form configuration-model expectation
  (:math:`\\sum_{u \\ne v \\in C} d_u d_v / 2m` summed over unordered pairs
  for undirected graphs, the out×in analogue for directed ones);
* **sampled** — the paper's literal procedure: generate randomized graphs
  with the same degree sequence via Viger–Latapy (undirected) or the
  directed configuration model, and average the realized :math:`m_C`.

Both strategies agree in expectation; the sampled path exists to mirror
the paper and to support the null-model ablation bench (A2 in DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

import numpy as np

from repro.graph.convert import integer_index
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph
from repro.exceptions import SamplingError
from repro.sampling.seeds import spawn_generators
from repro.scoring.columnar import GroupStatsBatch


def _generate_null_graph(
    payload: tuple[str, list[int], list[int] | None, str, float],
    seed_pair: tuple[int, int],
) -> Graph | DiGraph:
    """Realize one null-model sample from its private seed pair.

    ``seed_pair`` is (primary seed, fallback seed) drawn from the
    sample's own child stream — the fallback seed is consumed only when
    Viger-Latapy fails and ``method="auto"`` degrades to the
    configuration model, so consuming it never shifts other samples.
    The generators are imported here, on first use: analytic Modularity
    never needs them.
    """
    from repro.nullmodel.configuration import (
        configuration_model,
        directed_configuration_model,
    )
    from repro.nullmodel.viger_latapy import viger_latapy_graph

    kind, degrees, out_degrees, method, shuffle_factor = payload
    primary, fallback = seed_pair
    if kind == "directed":
        assert out_degrees is not None
        return directed_configuration_model(
            degrees, out_degrees, seed=primary
        )
    if method in ("auto", "viger_latapy"):
        try:
            return viger_latapy_graph(
                degrees, seed=primary, shuffle_factor=shuffle_factor
            )
        except SamplingError:
            if method == "viger_latapy":
                raise
            return configuration_model(degrees, seed=fallback)
    return configuration_model(degrees, seed=primary)


Node = Hashable

__all__ = ["Modularity", "NullModelEnsemble"]


def _expected_internal_edges_batch(batch: GroupStatsBatch) -> np.ndarray:
    """Closed-form configuration-model expectation of :math:`m_C`, per group.

    Undirected: each unordered pair ``{u, v}`` inside C is an edge with
    probability ``d_u d_v / 2m``.  Directed: each ordered pair ``(u, v)``
    is an edge with probability ``d_out(u) d_in(v) / m``.  The per-group
    degree sums are integer reductions (exact in any order for the
    magnitudes a graph can produce), and the closing float arithmetic
    runs elementwise, so each group's value is the one its own degree
    sums give.  Callers handle the edgeless graph (``m == 0``).
    """
    if batch.directed:
        out_sum = batch.group_sum(batch.member_out_degrees).astype(np.float64)
        in_sum = batch.group_sum(batch.member_in_degrees).astype(np.float64)
        self_pairs = batch.group_sum(
            batch.member_out_degrees * batch.member_in_degrees
        ).astype(np.float64)
        return (out_sum * in_sum - self_pairs) / batch.m
    degree_sum = batch.group_sum(batch.member_degrees).astype(np.float64)
    square_sum = batch.group_sum(
        batch.member_degrees * batch.member_degrees
    ).astype(np.float64)
    return (degree_sum * degree_sum - square_sum) / (4.0 * batch.m)


class NullModelEnsemble:
    """A cache of randomized same-degree-sequence graphs for one base graph.

    Generating null graphs is the expensive part of sampled Modularity, so
    the ensemble is built once per graph and shared across all groups
    scored against it.
    """

    def __init__(
        self,
        graph: Graph | DiGraph,
        *,
        samples: int = 3,
        method: str = "auto",
        seed: int | None = None,
        shuffle_factor: float = 1.0,
    ) -> None:
        if samples < 1:
            raise ValueError("need at least one null-model sample")
        self.method = method
        index_of, _ = integer_index(graph)
        self._index_of = index_of
        # Every sample owns an independent child stream (including any
        # Viger-Latapy -> configuration fallback draws), so one sample's
        # fallback never shifts another sample's draws.
        streams = spawn_generators(seed, samples)
        if graph.is_directed:
            if method not in ("auto", "configuration"):
                raise ValueError(
                    "directed graphs support only the configuration null model"
                )
            in_degrees = [len(graph._pred[v]) for v in graph]  # noqa: SLF001
            out_degrees = [len(graph._succ[v]) for v in graph]  # noqa: SLF001
            payload = ("directed", in_degrees, out_degrees, method, shuffle_factor)
        else:
            if method not in ("auto", "viger_latapy", "configuration"):
                raise ValueError(f"unknown null-model method {method!r}")
            degrees = [len(graph._adj[v]) for v in graph]  # noqa: SLF001
            payload = ("undirected", degrees, None, method, shuffle_factor)
        seed_pairs = [
            (int(stream.integers(2**32)), int(stream.integers(2**32)))
            for stream in streams
        ]
        self._null_graphs = [
            _generate_null_graph(payload, pair) for pair in seed_pairs
        ]

    def __len__(self) -> int:
        return len(self._null_graphs)

    def expected_internal_edges(self, members: Iterable[Node]) -> float:
        """Average :math:`m_C` of ``members`` over the sampled null graphs."""
        ids = {self._index_of[node] for node in members}
        totals = 0.0
        for null in self._null_graphs:
            if null.is_directed:
                inside = sum(
                    len(null._succ[v] & ids) for v in ids  # noqa: SLF001
                )
            else:
                inside = sum(
                    len(null._adj[v] & ids) for v in ids  # noqa: SLF001
                ) // 2
            totals += inside
        return totals / len(self._null_graphs)


class Modularity:
    """Per-group Modularity :math:`(m_C - E(m_C)) / 2m` (paper eq. 4).

    ``expectation='analytic'`` (default) uses the closed-form
    configuration-model value; ``expectation='sampled'`` requires an
    ``ensemble`` built on the same graph the scored groups live in.
    """

    name = "modularity"

    def __init__(
        self,
        expectation: str = "analytic",
        ensemble: NullModelEnsemble | None = None,
    ) -> None:
        if expectation not in ("analytic", "sampled"):
            raise ValueError(f"unknown expectation strategy {expectation!r}")
        if expectation == "sampled" and ensemble is None:
            raise ValueError("sampled expectation requires a NullModelEnsemble")
        self.expectation = expectation
        self.ensemble = ensemble

    def score_batch(self, batch: GroupStatsBatch) -> np.ndarray:
        """Score a columnar batch.

        Analytic expectations vectorize (integer degree reductions plus
        elementwise float closing arithmetic); the sampled strategy
        probes the null ensemble once per group, with the group's member
        labels.
        """
        if batch.m == 0:
            return np.zeros(len(batch), dtype=np.float64)
        if self.expectation == "analytic":
            expected = _expected_internal_edges_batch(batch)
        else:
            assert self.ensemble is not None
            expected = np.array(
                [
                    self.ensemble.expected_internal_edges(members)
                    for members in batch.members
                ],
                dtype=np.float64,
            )
        return (batch.m_C - expected) / (2.0 * batch.m)
