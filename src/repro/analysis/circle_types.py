"""Shared-circle categorization after Fang, Fabrikant & LeFevre (WebSci'12).

The paper leans on Fang et al.'s finding that shared circles fall into two
categories — it explains both the long low-score tails of Fig. 5 and the
semantics of sharing:

* **community circles** — high internal link density and high reciprocity
  with the circle owner (groups of mutually acquainted people);
* **celebrity circles** — low in-circle density, low owner reciprocity,
  but very popular members (high in-degree): curated lists of public
  figures.

:func:`circle_features` extracts the three separating features;
:func:`classify_circles` labels each circle, either by fixed thresholds or
by 2-means clustering in standardized feature space.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.data.groups import Circle, GroupSet
from repro.graph.digraph import DiGraph
from repro.graph.ugraph import Graph

Node = Hashable

__all__ = ["CircleFeatures", "CircleClassification", "circle_features", "classify_circles"]


@dataclass(frozen=True)
class CircleFeatures:
    """The three Fang-et-al. separating features of one circle."""

    name: str
    size: int
    #: fraction of possible within-circle edges present
    internal_density: float
    #: fraction of members with an edge back to the circle owner
    owner_reciprocity: float
    #: mean in-degree of the members (popularity; total degree if undirected)
    mean_member_in_degree: float

    def as_row(self) -> dict[str, object]:
        """Report row for table rendering."""
        return {
            "circle": self.name,
            "size": self.size,
            "internal_density": round(self.internal_density, 4),
            "owner_reciprocity": round(self.owner_reciprocity, 4),
            "mean_in_degree": round(self.mean_member_in_degree, 2),
        }


@dataclass
class CircleClassification:
    """Per-circle labels plus the features they were derived from."""

    features: list[CircleFeatures]
    labels: dict[str, str]
    method: str

    def of_kind(self, kind: str) -> list[str]:
        """Names of circles labelled ``kind`` (``community``/``celebrity``)."""
        return [name for name, label in self.labels.items() if label == kind]

    def summary(self) -> dict[str, object]:
        """Counts and per-category feature means."""
        rows: dict[str, object] = {"method": self.method}
        for kind in ("community", "celebrity"):
            names = set(self.of_kind(kind))
            selected = [f for f in self.features if f.name in names]
            rows[f"{kind}_count"] = len(selected)
            if selected:
                rows[f"{kind}_mean_density"] = float(
                    np.mean([f.internal_density for f in selected])
                )
                rows[f"{kind}_mean_in_degree"] = float(
                    np.mean([f.mean_member_in_degree for f in selected])
                )
        return rows


def circle_features(
    graph: Graph | DiGraph, circle: Circle
) -> CircleFeatures:
    """Extract the Fang-et-al. features of one circle within ``graph``.

    Members missing from the graph are ignored; the owner may be absent
    (owner reciprocity is then 0).
    """
    members = [node for node in circle.members if node in graph]
    if not members:
        raise ValueError(f"circle {circle.name!r} has no members in the graph")
    m_C = graph.subgraph(members).number_of_edges()
    possible = len(members) * (len(members) - 1)
    if not graph.is_directed:
        possible //= 2
    density = m_C / possible if possible else 0.0
    owner = circle.owner
    if owner is not None and owner in graph:
        if graph.is_directed:
            reciprocal = sum(1 for node in members if graph.has_edge(node, owner))
        else:
            reciprocal = sum(1 for node in members if graph.has_edge(owner, node))
        reciprocity = reciprocal / len(members)
    else:
        reciprocity = 0.0
    if graph.is_directed:
        popularity = float(
            np.mean([len(graph._pred[node]) for node in members])  # noqa: SLF001
        )
    else:
        popularity = float(np.mean([graph.degree[node] for node in members]))
    return CircleFeatures(
        name=circle.name,
        size=len(members),
        internal_density=density,
        owner_reciprocity=reciprocity,
        mean_member_in_degree=popularity,
    )


def _two_means(matrix: np.ndarray, *, seed: int, iterations: int = 50) -> np.ndarray:
    """Lloyd's algorithm with k=2 on standardized rows; returns labels 0/1."""
    standardized = (matrix - matrix.mean(axis=0)) / np.maximum(
        matrix.std(axis=0), 1e-12
    )
    rng = np.random.default_rng(seed)
    # Initialize from the two most distant points (deterministic under seed
    # only through tie-breaks; distance init is robust for two clusters).
    first = int(rng.integers(len(standardized)))
    distances = ((standardized - standardized[first]) ** 2).sum(axis=1)
    second = int(distances.argmax())
    centers = standardized[[first, second]].copy()
    labels = np.zeros(len(standardized), dtype=np.int64)
    for _ in range(iterations):
        distance_matrix = (
            (standardized[:, None, :] - centers[None, :, :]) ** 2
        ).sum(axis=2)
        new_labels = distance_matrix.argmin(axis=1)
        if (new_labels == labels).all():
            break
        labels = new_labels
        for k in (0, 1):
            members = standardized[labels == k]
            if len(members):
                centers[k] = members.mean(axis=0)
    return labels


def classify_circles(
    graph: Graph | DiGraph,
    circles: GroupSet | Iterable[Circle],
    *,
    method: str = "kmeans",
    seed: int = 0,
    density_threshold: float = 0.05,
    reciprocity_threshold: float = 0.2,
) -> CircleClassification:
    """Label each circle ``community`` or ``celebrity``.

    ``method='kmeans'`` clusters the standardized feature vectors into two
    groups and names the one with higher member popularity and lower
    density "celebrity".  ``method='threshold'`` applies Fang et al.'s
    qualitative description directly: a circle is a celebrity circle when
    its internal density *and* owner reciprocity are both low.
    """
    feature_list = [
        circle_features(graph, circle)
        for circle in circles
        if any(node in graph for node in circle.members)
    ]
    if not feature_list:
        raise ValueError("no circles with members in the graph")
    labels: dict[str, str] = {}
    if method == "threshold":
        for features in feature_list:
            is_celebrity = (
                features.internal_density < density_threshold
                and features.owner_reciprocity < reciprocity_threshold
            )
            labels[features.name] = "celebrity" if is_celebrity else "community"
    elif method == "kmeans":
        if len(feature_list) < 2:
            labels[feature_list[0].name] = "community"
        else:
            matrix = np.array(
                [
                    [
                        f.internal_density,
                        f.owner_reciprocity,
                        f.mean_member_in_degree,
                    ]
                    for f in feature_list
                ]
            )
            assignment = _two_means(matrix, seed=seed)
            # The celebrity cluster: higher popularity, lower density.
            score = {}
            for k in (0, 1):
                rows = matrix[assignment == k]
                if len(rows) == 0:
                    score[k] = -np.inf
                    continue
                score[k] = float(rows[:, 2].mean()) - float(
                    rows[:, 0].mean()
                ) * matrix[:, 2].mean()
            celebrity_cluster = max(score, key=score.__getitem__)
            for features, label in zip(feature_list, assignment):
                labels[features.name] = (
                    "celebrity" if label == celebrity_cluster else "community"
                )
    else:
        raise ValueError(f"unknown classification method {method!r}")
    return CircleClassification(
        features=feature_list, labels=labels, method=method
    )
