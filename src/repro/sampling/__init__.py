"""Per-replicate seed derivation for the matched-set samplers.

The samplers themselves run on the frozen CSR substrate
(:mod:`repro.engine.samplers`).
"""

from repro.sampling.seeds import spawn_child_seeds, spawn_generators

__all__ = ["spawn_child_seeds", "spawn_generators"]
