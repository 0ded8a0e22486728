"""The level-set kernels against the whole-array oracle formulas, bit for
bit: the flat-stride passes and their face rewrites must give the same
float64 values, down to the sign of zero, on every grid shape, spacing and
memory order the kernels accept.  The reinitialization is also checked
for the properties it keeps on those inputs."""

import tracemalloc

import numpy as np
import pytest

from fvfseg.fvf3d import LevelSetField, _relative, _speed, _upwind_parts, _Workspace, reinitialize
from fvfseg.volume import ScalarVolume, grow_box

from .oracles import _advection_ref, _curvature_ref, _pinned_ref, _reinitialize_ref

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
        update, out_grad = _speed(phi, spacing, alpha, None, _Workspace(shape))
        assert _same_bits(update, alpha * curv)
        assert all(_same_bits(a, b) for a, b in zip(out_grad, grad))
        update, _ = _speed(phi, spacing, alpha, _upwind_parts(velocity), _Workspace(shape))
        assert _same_bits(update, alpha * curv - _advection_ref(phi, velocity, spacing))


# update boxes in a (13, 12, 11) grid touching 0, 1, 2 and 3 grid faces;
# the second and third lie one voxel off a face on another axis
CORES = [
    (slice(3, 9), slice(4, 8), slice(3, 8)),
    (slice(0, 6), slice(1, 8), slice(3, 8)),
    (slice(0, 6), slice(5, 12), slice(3, 10)),
    (slice(4, 13), slice(0, 1), slice(6, 11)),
]


@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("core", CORES)
def test_speed_on_the_read_box_matches_the_stencil_box(core, spacing, rng):
    # every term at a voxel reads phi within one voxel, so the box grown by
    # one voxel gives the update box the values of the box grown by two
    dims = (13, 12, 11)
    phi = _field(rng, dims)
    velocity = [_field(rng, dims) for _ in range(3)]
    results = []
    for halo in (1, 2):
        box = grow_box(core, (halo,) * 3, dims)
        parts = _upwind_parts([v[box] for v in velocity])
        for v in (None, parts):
            update, grad = _speed(phi[box], spacing, 0.2, v, _Workspace(phi[box].shape))
            inner = _relative(core, box)
            results.append([update[inner], *(g[inner] for g in grad)])
    for got, want in zip(results[:2], results[2:]):
        assert all(_same_bits(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("spacing", SPACINGS)
def test_a_reused_workspace_gives_the_bits_of_a_fresh_call(spacing, rng):
    shape = (9, 14, 11)
    work = _Workspace(shape)
    for order in ("C", "F"):
        phi = _field(rng, shape, order)
        velocity = _upwind_parts([_field(rng, shape) for _ in range(3)])
        for v in (velocity, None):
            update, grad = _speed(phi, spacing, 0.2, v, work)
            fresh, fresh_grad = _speed(phi, spacing, 0.2, v, _Workspace(shape))
            assert update is work.update and _same_bits(update, fresh)
            assert all(_same_bits(a, b) for a, b in zip(grad, fresh_grad))


@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize(
    "shape",
    [(3, 5, 4), (1, 6, 5), (5, 1, 6), (6, 5, 1), (2, 5, 4), (4, 2, 2), (1, 1, 7), (17, 9, 23)],
)
def test_reinitialize_matches_the_oracle_bit_for_bit(shape, order, spacing, rng):
    phi = _field(rng, shape, order)
    out = reinitialize(LevelSetField(ScalarVolume(phi, spacing), 3, 2.0))
    assert out.iteration == 3 and out.band_halfwidth == 2.0
    got = out.phi.data
    assert _same_bits(got, _reinitialize_ref(phi, spacing))
    assert np.isfinite(got).all()
    # every voxel off the front is nonzero, with its own sign
    assert np.array_equal(np.sign(got), np.sign(phi))
    interface, pinned = _pinned_ref(phi, spacing)
    assert interface.any() and _same_bits(got[interface], pinned[interface])
    other = np.asarray(phi, order="F" if order == "C" else "C")
    assert _same_bits(reinitialize(LevelSetField(ScalarVolume(other, spacing))).phi.data, got)


def test_reinitialize_matches_the_oracle_on_a_distance_field():
    dims = (40, 36, 30)
    idx = np.indices(dims).astype(np.float64)
    r = np.sqrt((idx[0] - 19.3) ** 2 + (idx[1] - 17.8) ** 2 + ((idx[2] - 14.6) * 1.3) ** 2)
    phi = 0.6 * (r - 9.0)  # a stretched front
    for spacing in SPACINGS:
        out = reinitialize(LevelSetField(ScalarVolume(phi, spacing), 0, 6.0))
        assert _same_bits(out.phi.data, _reinitialize_ref(phi, spacing))


def _peak_grids(fn, *args, side=64):
    """The tracemalloc peak of fn(*args), in float64 arrays of side^3."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (side**3 * 8)


def test_kernels_allocate_a_bounded_number_of_fields(rng):
    # one set of scratch arrays per call, not one temporary per operation
    phi = _field(rng, (64, 64, 64))
    velocity = _upwind_parts([_field(rng, phi.shape) for _ in range(3)])
    unit = (1.0, 1.0, 1.0)
    ls = LevelSetField(ScalarVolume(phi, (1.0, 1.1, 1.3)))

    def fresh_speed(phi, spacing, alpha, velocity):
        return _speed(phi, spacing, alpha, velocity, _Workspace(phi.shape))

    assert _peak_grids(fresh_speed, phi, unit, 0.2, velocity) <= 12
    assert _peak_grids(fresh_speed, phi, (0.9375, 1.1, 1.3), 0.2, velocity) <= 12
    assert _peak_grids(reinitialize, ls) <= 12


def test_speed_in_a_workspace_allocates_less_than_one_field(rng):
    phi = _field(rng, (64, 64, 64))
    velocity = _upwind_parts([_field(rng, phi.shape) for _ in range(3)])
    work = _Workspace(phi.shape)
    for spacing in ((1.0, 1.0, 1.0), (0.9375, 1.1, 1.3)):
        assert _peak_grids(_speed, phi[::-1], spacing, 0.2, velocity, work) < 1
        assert _peak_grids(_speed, phi, spacing, 0.2, None, work) < 1


def test_reinitialize_of_a_ball_holds_one_normal_grid():
    # a compressed distance to a ball: the normals are kept at its interface
    # voxels only, with one box grid to read them from
    dims = (60, 60, 60)
    idx = np.indices(dims).astype(np.float64)
    phi = 0.6 * (np.sqrt(((idx - 29.5) ** 2).sum(axis=0)) - 16.0)
    ls = LevelSetField(ScalarVolume(phi, (1.0, 1.0, 1.0)))
    assert _peak_grids(reinitialize, ls, side=60) <= 9.5
