"""The level-set kernels against the whole-array oracle formulas, bit for
bit: the flat-stride passes and their face rewrites must give the same
float64 values, down to the sign of zero, on every grid shape, spacing and
memory order the kernels accept."""

import tracemalloc

import numpy as np
import pytest

from fvfseg.fvf3d import LevelSetField, _speed, _upwind_parts, reinitialize
from fvfseg.volume import ScalarVolume

from .oracles import _advection_ref, _curvature_ref, _reinitialize_ref

SPACINGS = [(1.0, 1.0, 1.0), (1.0, 1.0, 2.0), (0.9375, 1.1, 1.3)]


def _field(rng, shape, order="C"):
    """Random values with many exact zeros, equal neighbours and -0.0."""
    phi = rng.normal(scale=3.0, size=shape)
    coarse = rng.random(shape) < 0.3
    phi[coarse] = np.round(phi[coarse])
    phi[rng.random(shape) < 0.1] = 0.0
    phi[rng.random(shape) < 0.05] = -0.0
    return np.asarray(phi, order=order)


def _same_bits(a, b):
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(3, 5, 4), (5, 3, 4), (4, 6, 3), (17, 9, 23), (24, 24, 24)])
def test_speed_matches_the_oracle_bit_for_bit(shape, order, spacing, rng):
    phi = _field(rng, shape, order)
    velocity = [_field(rng, shape, order) for _ in range(3)]
    curv, grad = _curvature_ref(phi, spacing)
    for alpha in (0.2, 1.0):
        update, out_grad = _speed(phi, spacing, alpha, None)
        assert _same_bits(update, alpha * curv)
        assert all(_same_bits(a, b) for a, b in zip(out_grad, grad))
        update, _ = _speed(phi, spacing, alpha, _upwind_parts(velocity))
        assert _same_bits(update, alpha * curv - _advection_ref(phi, velocity, spacing))


@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "shape",
    [(3, 5, 4), (1, 6, 5), (5, 1, 6), (6, 5, 1), (2, 5, 4), (4, 2, 2), (1, 1, 7), (17, 9, 23)],
)
def test_reinitialize_matches_the_oracle_bit_for_bit(shape, order, spacing, rng):
    phi = _field(rng, shape, order)
    for band in (2.0, 6.0):
        out = reinitialize(LevelSetField(ScalarVolume(phi, spacing), 3, band))
        assert out.iteration == 3 and out.band_halfwidth == band
        assert _same_bits(out.phi.data, _reinitialize_ref(phi, spacing, band))


def test_reinitialize_matches_the_oracle_on_a_distance_field():
    dims = (40, 36, 30)
    idx = np.indices(dims).astype(np.float64)
    r = np.sqrt((idx[0] - 19.3) ** 2 + (idx[1] - 17.8) ** 2 + ((idx[2] - 14.6) * 1.3) ** 2)
    phi = 0.6 * (r - 9.0)  # a compressed front, as advection leaves it
    for spacing in SPACINGS:
        out = reinitialize(LevelSetField(ScalarVolume(phi, spacing), 0, 6.0))
        assert _same_bits(out.phi.data, _reinitialize_ref(phi, spacing, 6.0))


def _peak_grids(fn, *args):
    """The tracemalloc peak of fn(*args), in float64 arrays of 64^3."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (64**3 * 8)


def test_kernels_allocate_a_bounded_number_of_fields(rng):
    # one set of scratch arrays per call, not one temporary per operation
    phi = _field(rng, (64, 64, 64))
    velocity = _upwind_parts([_field(rng, phi.shape) for _ in range(3)])
    unit = (1.0, 1.0, 1.0)
    ls = LevelSetField(ScalarVolume(phi, (1.0, 1.1, 1.3)))
    assert _peak_grids(_speed, phi, unit, 0.2, velocity) <= 12
    assert _peak_grids(_speed, phi, (0.9375, 1.1, 1.3), 0.2, velocity) <= 12
    assert _peak_grids(reinitialize, ls) <= 12
