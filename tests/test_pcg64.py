"""The jitter generator against numpy's `default_rng`, its oracle.

`pcg64.PCG64(seed)` must give the doubles of
`np.random.default_rng(seed).uniform` bit for bit, refuse the ranges numpy
refuses, and so perturb every kind of jitterable map (Moebius with and
without `diagonal_only`, lifted circle, projective) into the maps that
numpy's draws make, entry for entry and of the same float types.
"""
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expaction import zoo
from expaction.pcg64 import PCG64, seed_state

SEEDS = st.integers(0, 2**130 - 1)
# seeds whose words fill less than, exactly and more than the 4-word pool
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200]
MAGNITUDES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _bits(values) -> list:
    """Each number's type and exact value."""
    return [(type(v), float.hex(v)) for v in values]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_seed_state_equals_numpys_seed_sequence(seed):
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert seed_state(seed) == tuple(int(w) for w in words)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(seed=st.one_of(SEEDS, st.sampled_from(EDGE_SEEDS)), n=st.integers(1, 4), m=MAGNITUDES)
def test_uniform_draws_equal_numpys(seed, n, m):
    ours, ref = PCG64(seed), np.random.default_rng(seed)
    if 2 * m == float("inf"):  # numpy refuses a range that overflows
        with pytest.raises(OverflowError):
            ref.uniform(-m, m, size=n)
        with pytest.raises(ValueError):
            ours.uniform(-m, m, size=n)
        return
    a, b = ours.uniform(-m, m, size=n), ref.uniform(-m, m, size=n)
    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    # the stream goes on the same way through a scalar draw and a 2x2 block
    assert _bits([ours.uniform(-m, m)]) == _bits([ref.uniform(-m, m)])
    a, b = ours.uniform(-m, m, size=(2, 2)), ref.uniform(-m, m, size=(2, 2))
    assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())


@pytest.mark.parametrize("low, high", [(1e-6, -1e-6), (0.0, -0.0), (-sys.float_info.max, sys.float_info.max)])
def test_uniform_refuses_what_numpy_refuses(low, high):
    with pytest.raises((ValueError, OverflowError)):
        np.random.default_rng(7).uniform(low, high)
    with pytest.raises(ValueError):
        PCG64(7).uniform(low, high)


def test_negative_seeds_are_refused_like_numpys():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        PCG64(-1)


SYSTEMS = {
    "schottky": zoo.make_schottky(),  # Moebius maps: 4 draws each
    "covered_cyclic": zoo.make_covered_cyclic(2.0, 3),  # a lifted map: 1 draw
    "zn_projective": zoo.make_zn_projective([[9.0, 1.0, 3.0], [9.0, 3.0, 1.0]]),  # n + 1 draws
}


def _entries(m) -> list:
    if isinstance(m, zoo.LiftedCircleMap):
        return _bits([m.multiplier])
    return _bits([x for row in m.matrix for x in row])


def _outcome(make):
    """The letter maps' entries, or the construction error's message."""
    try:
        maps = make()
    except zoo.ConstructionError as err:
        return str(err)
    return {letter: _entries(m) for letter, m in maps.items()}


def _numpy_jitter(system, family) -> dict:
    """The perturbed maps of numpy's generator, drawn letter by letter."""
    rng = np.random.default_rng(family.seed)
    out = {}
    for i in range(system.alphabet.rank):
        fwd = system.letter_maps[(i, 1)].jittered(rng, family.magnitude, family.diagonal_only)
        out[(i, 1)], out[(i, -1)] = fwd, fwd.inverse()
    return out


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(sorted(SYSTEMS)),
    seed=SEEDS,
    m=st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, 1e3)),
    diagonal_only=st.booleans(),
)
def test_jittered_maps_equal_the_maps_of_numpys_draws(kind, seed, m, diagonal_only):
    system, family = SYSTEMS[kind], zoo.MatrixJitter(m, seed, diagonal_only)
    ours = _outcome(lambda: zoo.perturb(system, family))
    assert ours == _outcome(lambda: _numpy_jitter(system, family))
