"""Community scoring functions (paper section V + Yang–Leskovec catalogue)."""

from repro.scoring.base import GroupStats, ScoringFunction
from repro.scoring.columnar import (
    GroupStatsBatch,
    scalar_score_column,
    score_function_column,
    score_matrix,
    score_stats_columns,
)
from repro.scoring.combined import (
    AverageOutDegreeFraction,
    Conductance,
    FlakeOutDegreeFraction,
    MaxOutDegreeFraction,
    NormalizedCut,
    Separability,
)
from repro.scoring.external import Expansion, RatioCut, ScaledRatioCut
from repro.scoring.internal import (
    AverageDegree,
    EdgesInside,
    FractionOverMedianDegree,
    InternalDensity,
    TriangleParticipationRatio,
)
from repro.scoring.modularity import (
    Modularity,
    NullModelEnsemble,
    analytic_expected_internal_edges,
)
from repro.scoring.registry import (
    PAPER_FUNCTION_NAMES,
    ScoreTable,
    make_all_functions,
    make_function,
    make_paper_functions,
    score_group,
    score_groups,
)

__all__ = [
    "GroupStats",
    "GroupStatsBatch",
    "ScoringFunction",
    "scalar_score_column",
    "score_function_column",
    "score_matrix",
    "score_stats_columns",
    "AverageDegree",
    "InternalDensity",
    "EdgesInside",
    "FractionOverMedianDegree",
    "TriangleParticipationRatio",
    "RatioCut",
    "ScaledRatioCut",
    "Expansion",
    "Conductance",
    "NormalizedCut",
    "MaxOutDegreeFraction",
    "AverageOutDegreeFraction",
    "FlakeOutDegreeFraction",
    "Separability",
    "Modularity",
    "NullModelEnsemble",
    "analytic_expected_internal_edges",
    "PAPER_FUNCTION_NAMES",
    "ScoreTable",
    "make_function",
    "make_paper_functions",
    "make_all_functions",
    "score_group",
    "score_groups",
]
