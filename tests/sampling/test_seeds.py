"""The vectorised child-seed spawn equals numpy's ``SeedSequence`` spawn.

:func:`repro.sampling.seeds.spawn_child_seeds` ports ``SeedSequence``'s
hash instead of building one ``SeedSequence`` per child.  Every Fig. 5
random set is drawn from one of these children, so the port must agree
with numpy bit for bit; the reference is :func:`oracles.seeds.child_seeds`,
which asks numpy itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.seeds import spawn_child_seeds

from oracles.seeds import child_seeds

_NUMPY_INTS = [
    np.int8,
    np.int16,
    np.int32,
    np.int64,
    np.uint8,
    np.uint16,
    np.uint32,
    np.uint64,
]


@st.composite
def numpy_seeds(draw):
    kind = draw(st.sampled_from(_NUMPY_INTS))
    info = np.iinfo(kind)
    return kind(draw(st.integers(0, int(info.max))))


seeds = st.one_of(
    st.integers(0, (1 << 256) - 1),
    st.integers(0, 1 << 33),
    numpy_seeds(),
    st.just(True),
    st.just(False),
)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, count=st.integers(0, 40))
def test_port_equals_seed_sequence(seed, count):
    assert spawn_child_seeds(seed, count) == child_seeds(seed, count)


@settings(max_examples=8, deadline=None)
@given(seed=seeds, count=st.integers(0, 3000))
def test_port_equals_seed_sequence_on_long_batches(seed, count):
    assert spawn_child_seeds(seed, count) == child_seeds(seed, count)


@pytest.mark.parametrize(
    "seed",
    [0, 1, (1 << 32) - 1, 1 << 32, (1 << 128) - 1, 1 << 128, (1 << 256) - 1],
)
def test_word_boundaries(seed):
    """Run entropy of one to nine words, padded to the four-word pool."""
    assert spawn_child_seeds(seed, 5) == child_seeds(seed, 5)


@pytest.mark.parametrize("seed", [-1, -(1 << 70), np.int64(-3)])
def test_negative_seed_raises_like_numpy(seed):
    with pytest.raises(ValueError) as numpy_error:
        child_seeds(seed, 3)
    with pytest.raises(ValueError) as port_error:
        spawn_child_seeds(seed, 3)
    assert str(port_error.value) == str(numpy_error.value)


@pytest.mark.parametrize("seed", [2.5, 1.0, np.float64(7.0), "5"])
@pytest.mark.parametrize("count", [0, 3])
def test_non_integer_seed_raises_like_numpy(seed, count):
    with pytest.raises(TypeError) as numpy_error:
        np.random.SeedSequence(seed)
    with pytest.raises(TypeError) as port_error:
        spawn_child_seeds(seed, count)
    assert str(port_error.value) == str(numpy_error.value)


def test_unseeded_children_are_none():
    assert spawn_child_seeds(None, 4) == [None] * 4
    assert spawn_child_seeds(None, 0) == []


def test_negative_count_raises():
    with pytest.raises(ValueError, match="non-negative"):
        spawn_child_seeds(7, -1)


def test_count_past_one_spawn_word_raises():
    """Spawn keys past 2**32 would take two words; none is ever needed."""
    with pytest.raises(ValueError, match="2\\*\\*32"):
        spawn_child_seeds(7, (1 << 32) + 1)
