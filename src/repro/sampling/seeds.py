"""Per-replicate seed derivation shared by every matched-set sampler.

The paper's experiments draw *many* replicates (one random set per circle,
one null graph per ensemble sample) from a single user-facing seed.
Threading one ``random.Random`` through the replicates sequentially would
make replicate ``i+1`` depend on every draw of replicate ``i`` — correct,
but impossible to replay in parallel.  Instead, every replicate owns an
independent child stream derived with :class:`numpy.random.SeedSequence`
(`spawn`), the standard collision-resistant way to split one seed into
many:

* the serial path iterates the children in order;
* the parallel path hands child ``i`` to whichever worker computes
  replicate ``i``;

and both produce byte-identical replicates because replicate ``i`` sees
exactly the same stream either way.  Any module that fans replicates out
must derive seeds here — a live RNG object passed across a process
boundary would make the pooled draws differ from the serial ones, which
``tests/engine/test_parallel.py`` compares seed for seed.

:func:`spawn_child_seeds` does not build one ``SeedSequence`` per child.
A child's entropy is the parent's run entropy, zero-padded to the pool
size, followed by one spawn-key word (its index), and ``SeedSequence``
hashes those words in order into a four-word pool.  So the run entropy is
mixed once, in Python integers, and only the spawn-key word and the
four-word ``generate_state`` are computed over all children at once, in
``uint32`` arrays.  The constants and steps are numpy's
(``numpy/random/bit_generator.pyx``); ``tests/sampling/test_seeds.py``
pins the port to ``SeedSequence(seed).spawn(count)``.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["spawn_child_seeds", "spawn_generators"]

_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715


def _run_words(seed: object) -> list[int]:
    """``seed`` as little-endian 32-bit words, zero-padded to the pool."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(
            "SeedSequence expects int or sequence of ints for entropy "
            f"not {seed}"
        )
    value = int(seed)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words + [0] * (_POOL_SIZE - len(words))


def _hashmix(value: int, const: int) -> tuple[int, int]:
    """One ``hashmix`` step; returns the hash and the next constant."""
    value ^= const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _mixed_run_entropy(words: list[int]) -> tuple[list[int], int]:
    """The pool after every run-entropy word, and the hash constant next."""
    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def spawn_child_seeds(
    seed: int | None, count: int
) -> list[int | None]:
    """Derive ``count`` independent integer seeds from one user seed.

    Child ``i`` seeds replicate ``i``'s private ``random.Random`` (or
    ``default_rng``); the derivation is pure, so serial loops and parallel
    workers agree on every replicate's stream.  ``seed=None`` yields
    ``None`` children — each replicate then draws fresh OS entropy,
    matching the unseeded behaviour of a shared RNG.

    Child ``i`` is the 128-bit little-endian integer of
    ``SeedSequence(seed).spawn(count)[i].generate_state(4)``.  ``seed``
    must be a non-negative integer (``ValueError``/``TypeError`` as
    ``SeedSequence`` raises them), and ``count`` at most ``2**32``, the
    spawn keys that fit one word.
    """
    count = operator.index(count)
    if count < 0:
        raise ValueError("count must be non-negative")
    if seed is None:
        return [None] * count
    pool, const = _mixed_run_entropy(_run_words(seed))
    if count > 1 << 32:
        raise ValueError("count must be at most 2**32")
    keys = np.arange(count, dtype=np.uint32)
    state = []
    for word in pool:
        # The spawn-key word, hashed once into each pool word ...
        hashed = keys ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        hashed *= np.uint32(const)
        hashed ^= hashed >> 16
        mixed = np.uint32(_MIX_MULT_L * word & _MASK32) - np.uint32(
            _MIX_MULT_R
        ) * hashed
        mixed ^= mixed >> 16
        state.append(mixed)
    # ... then generate_state(4): one output word per pool word.
    const = _INIT_B
    for index, word in enumerate(state):
        word ^= np.uint32(const)
        const = const * _MULT_B & _MASK32
        word *= np.uint32(const)
        word ^= word >> 16
        state[index] = word.astype(np.uint64)
    low = (state[0] | state[1] << np.uint64(32)).tolist()
    high = (state[2] | state[3] << np.uint64(32)).tolist()
    return [lo | hi << 64 for lo, hi in zip(low, high)]


def spawn_generators(
    seed: int | None, count: int
) -> list[np.random.Generator]:
    """Derive ``count`` independent numpy generators from one user seed.

    Like :func:`spawn_child_seeds` but for consumers that draw through the
    numpy ``Generator`` API (the null-model ensemble); each generator owns
    its replicate's entire stream, including any fallback draws.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(child) for child in children]
