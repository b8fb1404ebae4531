"""Per-replicate child seeds straight from :class:`numpy.random.SeedSequence`.

Production derives child seeds with
:func:`repro.sampling.seeds.spawn_child_seeds`, a vectorised port of
``SeedSequence`` spawning.  The oracle samplers take theirs from numpy
itself, so a wrong port cannot move the oracle along with production;
``tests/sampling/test_seeds.py`` pins the port to this function.
"""

from __future__ import annotations

import numpy as np

__all__ = ["child_seeds"]


def child_seeds(seed: int | None, count: int) -> list[int | None]:
    """Child ``i``: ``SeedSequence(seed).spawn(count)[i]``'s first 128 bits."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if seed is None:
        return [None] * count
    return [
        int.from_bytes(
            child.generate_state(4, np.uint32).tobytes(), "little"
        )
        for child in np.random.SeedSequence(seed).spawn(count)
    ]
