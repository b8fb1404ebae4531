"""Community scoring functions (paper section V + Yang–Leskovec catalogue)."""

from repro._lazy import lazy_exports

#: Each export and the module that defines it, imported on first access.
_EXPORTS = {
    "GroupStatsBatch": "repro.scoring.columnar",
    "ScoringFunction": "repro.scoring.base",
    "score_matrix": "repro.scoring.columnar",
    "score_stats_columns": "repro.scoring.columnar",
    "AverageDegree": "repro.scoring.internal",
    "InternalDensity": "repro.scoring.internal",
    "EdgesInside": "repro.scoring.internal",
    "FractionOverMedianDegree": "repro.scoring.internal",
    "TriangleParticipationRatio": "repro.scoring.internal",
    "RatioCut": "repro.scoring.external",
    "ScaledRatioCut": "repro.scoring.external",
    "Expansion": "repro.scoring.external",
    "Conductance": "repro.scoring.combined",
    "NormalizedCut": "repro.scoring.combined",
    "MaxOutDegreeFraction": "repro.scoring.combined",
    "AverageOutDegreeFraction": "repro.scoring.combined",
    "FlakeOutDegreeFraction": "repro.scoring.combined",
    "Separability": "repro.scoring.combined",
    "Modularity": "repro.scoring.modularity",
    "NullModelEnsemble": "repro.scoring.modularity",
    "PAPER_FUNCTION_NAMES": "repro.scoring.registry",
    "ScoreTable": "repro.scoring.registry",
    "make_function": "repro.scoring.registry",
    "make_paper_functions": "repro.scoring.registry",
    "make_all_functions": "repro.scoring.registry",
    "score_group": "repro.scoring.registry",
    "score_groups": "repro.scoring.registry",
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)
__all__ = list(_EXPORTS)
