import math
import tracemalloc

import numpy as np
import pytest

from fvfseg.errors import GridMismatchError, NumericalInstabilityError
from fvfseg.fvf3d import (
    EvolutionParams,
    ForceContext,
    LevelSetField,
    _cos_gamma_stats,
    _edge_on_box,
    _force_field,
    _gradient_norm2,
    _peak_gradient_norm2,
    evolve,
    init_window,
    make_force_context,
    reinitialize,
    signed_distance_init,
    zero_level_mask,
)
from fvfseg.metrics import tanimoto
from fvfseg.volume import BinaryMask, ScalarVolume, gaussian_smooth, mask_centroid, whole_box

from .oracles import _force_ref, edge_map_oracle

UNIT = (1.0, 1.0, 1.0)


def _ball_mask(dims, center, radius, spacing=UNIT):
    idx = np.indices(dims).astype(np.float64)
    for ax in range(3):
        idx[ax] = (idx[ax] - center[ax]) * spacing[ax]
    return BinaryMask(np.sqrt((idx**2).sum(axis=0)) <= radius, spacing)


def _cube_mask(dims, lo, hi):
    data = np.zeros(dims, dtype=bool)
    data[lo:hi, lo:hi, lo:hi] = True
    return BinaryMask(data, UNIT)


def _plane_sdf(dims, x0=7.3):
    # signed distance to the plane x = x0, negative on the low side
    idx = np.indices(dims).astype(np.float64)
    return ScalarVolume(idx[0] - x0, UNIT)


class TestSignedDistanceInit:
    def test_negative_exactly_inside(self):
        mask = _ball_mask((16, 16, 16), (8, 8, 8), 4.5)
        ls = signed_distance_init(mask)
        assert np.array_equal(ls.phi.data < 0, mask.data)

    def test_single_voxel_distances(self):
        data = np.zeros((9, 9, 9), dtype=bool)
        data[4, 4, 4] = True
        ls = signed_distance_init(BinaryMask(data, UNIT))
        phi = ls.phi.data
        assert phi[4, 4, 4] == pytest.approx(-1.0)
        assert phi[5, 4, 4] == pytest.approx(1.0)
        assert phi[5, 5, 4] == pytest.approx(math.sqrt(2.0))
        assert phi[5, 5, 5] == pytest.approx(math.sqrt(3.0))

    def test_spacing_respected(self):
        data = np.zeros((9, 9, 9), dtype=bool)
        data[4, 4, 4] = True
        ls = signed_distance_init(BinaryMask(data, (1.0, 1.0, 2.0)))
        assert ls.phi.data[4, 4, 5] == pytest.approx(2.0)

    def test_empty_and_full_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            signed_distance_init(BinaryMask(np.zeros((4, 4, 4), dtype=bool), UNIT))
        with pytest.raises(ValueError, match="whole grid"):
            signed_distance_init(BinaryMask(np.ones((4, 4, 4), dtype=bool), UNIT))

    def test_window_defaults_to_the_whole_grid(self):
        mask = _ball_mask((16, 14, 12), (8, 7, 6), 4.0)
        assert signed_distance_init(mask).window == whole_box(mask.dims)


def test_a_level_set_without_a_window_holds_the_whole_grid():
    phi = ScalarVolume(np.ones((9, 8, 7)), UNIT)
    assert LevelSetField(phi).window == whole_box(phi.dims)
    assert LevelSetField(phi, 3, None).window == whole_box(phi.dims)


def test_a_level_set_window_is_three_unit_step_slices_clipped_to_the_grid():
    phi = ScalarVolume(np.ones((9, 8, 7)), UNIT)
    ls = LevelSetField(phi, window=(slice(None, 4), slice(-3, None), slice(2, 99, 1)))
    assert ls.window == (slice(0, 4), slice(5, 8), slice(2, 7))
    # the stepped and four-slice windows: test_window_must_hold_the_region
    with pytest.raises(ValueError, match="three slices of step 1"):
        LevelSetField(phi, window=np.s_[:, :])


class TestReinitialize:
    def test_plane_sdf_is_fixed_point(self):
        ls = LevelSetField(_plane_sdf((14, 10, 10)))
        out = reinitialize(ls)
        assert np.abs(out.phi.data - ls.phi.data).max() <= 1e-3

    def test_scaled_field_regains_unit_gradient(self):
        mask = _ball_mask((20, 20, 20), (10, 10, 10), 5.0)
        base = signed_distance_init(mask)
        scaled = LevelSetField(ScalarVolume(3.0 * base.phi.data, UNIT))
        out = reinitialize(scaled)
        gx, gy, gz = np.gradient(out.phi.data)
        norm = np.sqrt(gx**2 + gy**2 + gz**2)
        band = np.abs(out.phi.data) <= 3.0
        assert np.median(np.abs(norm[band] - 1.0)) < 0.1

    def test_signs_preserved(self):
        mask = _ball_mask((20, 20, 20), (10, 10, 10), 5.0)
        base = signed_distance_init(mask)
        scaled = LevelSetField(ScalarVolume(3.0 * base.phi.data, UNIT))
        out = reinitialize(scaled)
        assert np.array_equal(out.phi.data < 0, base.phi.data < 0)

    def test_steep_jump_keeps_subvoxel_crossing(self):
        # compressed front: phi = 3 * (x - 4.3); true crossing at x = 4.3
        phi0 = 3.0 * (_plane_sdf((12, 8, 8), 4.3).data)
        out = reinitialize(LevelSetField(ScalarVolume(phi0, UNIT)))
        phi = out.phi.data
        # linear interpolation of the new values across voxels 4 and 5
        a, b = phi[4, 4, 4], phi[5, 4, 4]
        assert a < 0 < b
        crossing = 4.0 + a / (a - b)
        assert crossing == pytest.approx(4.3, abs=0.05)

    def test_iteration_counter_carried_through(self):
        # phi < 0 on the whole grid: no front, so phi comes back unchanged
        ls = LevelSetField(_plane_sdf((8, 8, 8)), iteration=17)
        out = reinitialize(ls)
        assert out.iteration == 17
        assert out.phi.data.tobytes() == ls.phi.data.tobytes()

    # Sussman reinitialization (the scheme before the rebuild) read a band
    # mean error of 0.18277, 0.12339 and 0.09734 on these three fields
    @pytest.mark.parametrize(
        "radius, sussman_band_mean", [(5.0, 0.18277), (9.0, 0.12339), (12.0, 0.09734)]
    )
    def test_compressed_sphere_regains_its_distance(self, radius, sussman_band_mean):
        # phi = 3 (r - R) about the centre of a 40^3 grid.  Spheres off the
        # grid's symmetry read more near the front at R = 5: up to 0.18
        # (Sussman 0.16) over eight sub-voxel centres.
        idx = np.indices((40, 40, 40)).astype(np.float64)
        d = np.sqrt(((idx - 19.5) ** 2).sum(axis=0)) - radius
        out = reinitialize(LevelSetField(ScalarVolume(3.0 * d, UNIT))).phi.data
        err = np.abs(out - d)
        assert err[np.abs(d) <= 1.5].max() <= 0.15
        assert err[np.abs(d) <= 6.0].mean() <= sussman_band_mean


def _cos_gamma(normal, gamma):
    """Diagnostic cosine between a front normal and the A->B direction
    ``gamma``, measured on a front of the single voxel B (phi == 0 there
    and 1 elsewhere)."""
    dims = (9, 9, 9)
    b = (4, 4, 4)
    ctx = make_force_context(
        ScalarVolume(np.ones(dims), UNIT), _cube_mask(dims, 3, 6),
        center=np.subtract(b, gamma),
    )
    phi = np.ones(dims)
    phi[b] = 0.0
    px, py, pz = (np.full(dims, float(c)) for c in normal)
    return _cos_gamma_stats(px, py, pz, ctx, phi, whole_box(dims))


class TestDirectionalCosine:
    def test_parallel_antiparallel_orthogonal(self):
        assert _cos_gamma((1, 0, 0), (2, 0, 0)) == pytest.approx(1.0)
        assert _cos_gamma((1, 0, 0), (-3, 0, 0)) == pytest.approx(-1.0)
        assert _cos_gamma((1, 0, 0), (0, 5, 0)) == pytest.approx(0.0)

    def test_result_clipped_to_unit_interval(self):
        v = (0.1 + 0.2, 0.3, 0.7)  # floating-point noise must not escape [-1, 1]
        assert -1.0 <= _cos_gamma(v, v) <= 1.0

    def test_zero_vector_rejected(self):
        # a zero normal or B = A has no direction: the voxel is left out of
        # the mean, and a front with nothing left reads 0
        assert _cos_gamma((0, 0, 0), (1, 0, 0)) == 0.0
        assert _cos_gamma((1, 0, 0), (0, 0, 0)) == 0.0


def _edge_map(vol):
    """The edge map f and its gradient on the whole grid, as the force
    builds them on a box."""
    ctx = make_force_context(vol, _cube_mask(vol.dims, 1, 3))
    return _edge_on_box(ctx.smoothed, ctx.peak, whole_box(vol.dims))


class TestEdgeMap:
    def test_range_is_unit_interval(self, rng):
        vol = ScalarVolume(rng.random((12, 12, 12)), UNIT)
        f, grad = _edge_map(vol)
        assert f.min() >= 0.0
        assert f.max() == pytest.approx(1.0)
        assert all(g.shape == f.shape for g in grad)

    def test_constant_image_has_no_edges(self):
        vol = ScalarVolume(np.full((10, 10, 10), 2.0), UNIT)
        f, grad = _edge_map(vol)
        assert np.all(f == 0.0)
        assert all(np.all(g == 0.0) for g in grad)

    def test_step_edge_peaks_at_interface(self):
        data = np.zeros((16, 10, 10))
        data[8:, :, :] = 1.0
        f, _ = _edge_map(ScalarVolume(data, UNIT))
        profile = f[:, 5, 5]
        assert profile.argmax() in (7, 8)


EDGE_DIMS = (14, 12, 10)
EDGE_BOXES = {
    "interior": (slice(4, 9), slice(3, 8), slice(2, 7)),
    "x_low": (slice(0, 5), slice(3, 8), slice(2, 7)),
    "x_high": (slice(9, 14), slice(3, 8), slice(2, 7)),
    "y_low": (slice(4, 9), slice(0, 4), slice(2, 7)),
    "y_high": (slice(4, 9), slice(7, 12), slice(2, 7)),
    "z_low": (slice(4, 9), slice(3, 8), slice(0, 3)),
    "z_high": (slice(4, 9), slice(3, 8), slice(6, 10)),
    "x_low_plane": (slice(0, 1), slice(0, 12), slice(0, 10)),
    "x_high_plane": (slice(13, 14), slice(2, 9), slice(1, 8)),
    "z_high_plane": (slice(2, 12), slice(0, 12), slice(9, 10)),
    "whole": (slice(0, 14), slice(0, 12), slice(0, 10)),
}


def _same_bits(a, b):
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("spacing", [UNIT, (1.0, 1.0, 2.0), (0.9375, 1.1, 1.3)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_edge_and_force_on_a_box_match_the_whole_grid(order, spacing, rng):
    """The edge map, its gradient and the force built on a box are the
    whole-grid values on that box, bit for bit, wherever the box sits."""
    data = np.asarray(rng.random(EDGE_DIMS).astype(np.float32), order=order)
    patient = ScalarVolume(data, spacing)
    candidate = _ball_mask(EDGE_DIMS, (7, 5, 4), 3.0, spacing)
    ctx = make_force_context(patient, candidate)
    f_ref, grad_ref = edge_map_oracle(gaussian_smooth(patient, 1.0).data, spacing)
    force_ref = _force_ref(grad_ref, candidate.data, ctx.center, spacing, EDGE_DIMS)

    for box in EDGE_BOXES.values():
        f_box, grad_box = _edge_on_box(ctx.smoothed, ctx.peak, box)
        assert _same_bits(f_box, f_ref[box])
        assert all(_same_bits(g, r[box]) for g, r in zip(grad_box, grad_ref))
        force = _force_field(ctx, box)
        assert all(_same_bits(e, r[box]) for e, r in zip(force, force_ref))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_slab_peak_matches_the_whole_grid_peak(order, dtype, rng):
    # grids of less than one slab, one slab, and whole slabs plus 1 or 2 planes
    for nx in (3, 8, 9, 17, 18):
        data = np.asarray(rng.normal(size=(nx, 6, 7)) ** 3, dtype=dtype, order=order)
        spacing = (0.9375, 1.1, 1.3)
        whole = float(_gradient_norm2(data, spacing).max())
        assert _peak_gradient_norm2(data, spacing) == whole


def test_force_context_keeps_one_grid(rng):
    # a scan as read from MVOL: Fortran-ordered float32
    dims = (64, 64, 64)
    patient = ScalarVolume(np.asfortranarray(rng.random(dims).astype(np.float32)), UNIT)
    candidate = _ball_mask(dims, (32, 32, 32), 8.0)
    grid = 8 * np.prod(dims)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ctx = make_force_context(patient, candidate)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.peak > 0
    assert (peak - before) / grid <= 5.0
    assert (retained - before) / grid <= 1.25


class TestExternalForce:
    def _ctx(self, dims=(16, 16, 16), patient=None, center=None):
        candidate = _cube_mask(dims, 6, 10)
        if patient is None:
            patient = ScalarVolume(np.full(dims, 1.0), UNIT)
        return make_force_context(patient, candidate, center=center)

    @staticmethod
    def _force_at(ctx, voxel):
        field = _force_field(ctx, whole_box(ctx.smoothed.dims))
        return np.array([f[voxel] for f in field])

    def test_unit_magnitude(self):
        ctx = self._ctx()
        force = self._force_at(ctx, (12, 8, 7))
        assert np.linalg.norm(force) == pytest.approx(1.0)

    def test_points_away_from_center_inside_candidate(self):
        # constant patient: no edge term, force is pure radial
        ctx = self._ctx()
        b = np.array([9.0, 7.0, 7.0])  # inside the candidate cube
        a = np.asarray(ctx.center)
        force = self._force_at(ctx, (9, 7, 7))
        gamma_hat = (b - a) / np.linalg.norm(b - a)
        assert np.allclose(force, gamma_hat, atol=1e-12)

    def test_points_back_toward_center_outside_candidate(self):
        ctx = self._ctx()
        b = np.array([14.0, 7.0, 7.0])  # outside the candidate
        a = np.asarray(ctx.center)
        force = self._force_at(ctx, (14, 7, 7))
        gamma_hat = (b - a) / np.linalg.norm(b - a)
        assert np.allclose(force, -gamma_hat, atol=1e-12)

    def test_zero_at_seed_point(self):
        ctx = self._ctx(center=(8.0, 8.0, 8.0))
        assert np.array_equal(self._force_at(ctx, (8, 8, 8)), np.zeros(3))

    def test_context_requires_matching_grids(self):
        patient = ScalarVolume(np.ones((16, 16, 16)), UNIT)
        candidate = _cube_mask((12, 12, 12), 4, 8)
        with pytest.raises(GridMismatchError):
            make_force_context(patient, candidate)

    def test_default_center_is_candidate_centroid(self):
        ctx = self._ctx()
        assert ctx.center == pytest.approx((7.5, 7.5, 7.5))

    def test_needs_three_voxels(self):
        dims = (2, 5, 5)
        candidate = BinaryMask(np.zeros(dims, dtype=bool), UNIT)
        candidate.data[1, 2, 2] = True
        with pytest.raises(ValueError, match="3 voxels"):
            make_force_context(ScalarVolume(np.zeros(dims), UNIT), candidate)


class TestEvolutionParams:
    def test_stability_bound_formula(self):
        p = EvolutionParams(alpha=0.2, beta=1.0)
        h = 1.0
        expected = 0.9 / (6 * 0.2 / h**2 + 3 * 1.0 / h)
        assert p.stability_bound(UNIT) == pytest.approx(expected)

    def test_bound_uses_smallest_spacing(self):
        p = EvolutionParams(alpha=1.0, beta=0.0)
        assert p.stability_bound((2.0, 0.5, 1.0)) == pytest.approx(
            0.9 / (6.0 / 0.25)
        )

    def test_resolve_dt_prefers_explicit_value(self):
        p = EvolutionParams(dt=0.01)
        assert p.resolve_dt(UNIT) == 0.01

    def test_resolve_dt_defaults_to_bound(self):
        p = EvolutionParams(alpha=0.2, beta=1.0)
        assert p.resolve_dt(UNIT) == p.stability_bound(UNIT)

    def test_zero_motion_bound_is_infinite(self):
        p = EvolutionParams(alpha=0.0, beta=0.0)
        assert p.stability_bound(UNIT) == math.inf
        assert p.resolve_dt((2.0, 1.0, 1.5)) == 0.5  # falls back to half a voxel

    def test_oversized_dt_is_allowed_at_construction(self):
        # deliberately unstable steps must be constructible; the evolution
        # itself is responsible for detecting the blow-up
        p = EvolutionParams(alpha=0.2, beta=1.0, dt=100.0)
        assert p.dt == 100.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=-0.1),
            dict(beta=-1.0),
            dict(dt=0.0),
            dict(dt=-0.1),
            dict(dt=float("inf")),
            dict(max_iters=0),
            dict(reinit_every=0),
            dict(stop_tol=-1e-3),
            dict(alpha=float("nan")),
            dict(alpha=float("inf")),
            dict(beta=float("nan")),
            dict(beta=float("inf")),
            dict(stop_tol=float("nan")),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EvolutionParams(**kwargs)

    def test_a_bound_that_underflows_to_zero_is_rejected(self):
        # at beta = 1e308 the bound's denominator overflows to inf and dt
        # would be 0.0: steps that move nothing
        p = EvolutionParams(beta=1e308)
        with pytest.raises(ValueError, match="no stable dt"):
            p.resolve_dt(UNIT)
        with pytest.raises(ValueError, match="no stable dt"):
            p.box_pads(UNIT, (8, 8, 8))

    def test_band_halfwidth_is_no_field(self):
        with pytest.raises(TypeError):
            LevelSetField(_plane_sdf((8, 8, 8)), band_halfwidth=1.0)
        with pytest.raises(TypeError):
            EvolutionParams(band_halfwidth=6.0)


class TestEvolve:
    def test_no_motion_terms_leave_front_in_place(self):
        mask = _ball_mask((20, 20, 20), (10, 10, 10), 5.0)
        ls = signed_distance_init(mask)
        params = EvolutionParams(alpha=0.0, beta=0.0, max_iters=10, reinit_every=5)
        out = evolve(ls, None, params)
        assert np.array_equal(zero_level_mask(out).data, mask.data)

    def test_pure_curvature_shrinks_sphere(self):
        mask = _ball_mask((24, 24, 24), (12, 12, 12), 7.0)
        ls = signed_distance_init(mask)
        params = EvolutionParams(
            alpha=1.0, beta=0.0, dt=0.15, max_iters=40, reinit_every=10, stop_tol=0.0
        )
        out = evolve(ls, None, params)
        inside = zero_level_mask(out)
        assert 0 < inside.count() < mask.count()
        # still one round blob centered where it started
        assert mask_centroid(inside) == pytest.approx((12.0, 12.0, 12.0), abs=0.5)

    def test_advection_settles_on_candidate_boundary(self):
        dims = (24, 24, 24)
        candidate = _cube_mask(dims, 8, 16)
        patient = ScalarVolume(np.full(dims, 1.0), UNIT)
        ctx = make_force_context(patient, candidate)
        start = _ball_mask(dims, (11.5, 11.5, 11.5), 10.0)
        ls = signed_distance_init(start)
        params = EvolutionParams(alpha=0.1, beta=1.0, max_iters=200, reinit_every=20)
        out = evolve(ls, ctx, params)
        result = zero_level_mask(out)
        assert tanimoto(result, candidate).tanimoto > 0.7

    def test_beta_without_context_rejected(self):
        ls = signed_distance_init(_ball_mask((12, 12, 12), (6, 6, 6), 3.0))
        with pytest.raises(ValueError, match="force context"):
            evolve(ls, None, EvolutionParams(beta=1.0))

    def test_tiny_grid_rejected(self):
        data = np.zeros((2, 8, 8), dtype=bool)
        data[0, 4, 4] = True
        ls = LevelSetField(ScalarVolume(np.where(data, -1.0, 1.0), UNIT))
        with pytest.raises(ValueError, match="3 voxels"):
            evolve(ls, None, EvolutionParams(beta=0.0))

    def test_grid_mismatch_with_context_rejected(self):
        ls = signed_distance_init(_ball_mask((12, 12, 12), (6, 6, 6), 3.0))
        patient = ScalarVolume(np.ones((16, 16, 16)), UNIT)
        ctx = make_force_context(patient, _cube_mask((16, 16, 16), 6, 10))
        with pytest.raises(GridMismatchError):
            evolve(ls, ctx, EvolutionParams())

    def test_unstable_dt_raises_quickly(self):
        mask = _ball_mask((20, 20, 20), (10, 10, 10), 5.0)
        ls = signed_distance_init(mask)
        params = EvolutionParams(alpha=1.0, beta=0.0, dt=10.0, max_iters=300)
        with pytest.raises(NumericalInstabilityError) as err:
            evolve(ls, None, params)
        assert 0 < err.value.iteration < 50

    def test_stop_tol_halts_at_first_quiet_checkpoint(self):
        mask = _ball_mask((20, 20, 20), (10, 10, 10), 5.0)
        ls = signed_distance_init(mask)
        params = EvolutionParams(
            alpha=0.0, beta=0.0, max_iters=100, reinit_every=10, stop_tol=1e-3
        )
        out = evolve(ls, None, params)
        assert out.iteration == 10

    def test_stop_tol_zero_disables_early_exit(self):
        mask = _ball_mask((20, 20, 20), (10, 10, 10), 5.0)
        ls = signed_distance_init(mask)
        params = EvolutionParams(
            alpha=0.0, beta=0.0, max_iters=25, reinit_every=10, stop_tol=0.0
        )
        assert evolve(ls, None, params).iteration == 25

    def test_log_records_checkpoints(self):
        dims = (20, 20, 20)
        candidate = _cube_mask(dims, 7, 13)
        ctx = make_force_context(ScalarVolume(np.ones(dims), UNIT), candidate)
        ls = signed_distance_init(_ball_mask(dims, (9.5, 9.5, 9.5), 6.0))
        log = []
        params = EvolutionParams(
            alpha=0.1, beta=1.0, max_iters=8, reinit_every=4, stop_tol=0.0
        )
        evolve(ls, ctx, params, log=log)
        assert len(log) == 2
        for i, record in enumerate(log):
            assert record["iteration"] == 4 * (i + 1)
            assert record["inside"] > 0
            assert record["max_update"] > 0
            assert -1.0 <= record["cos_gamma_mean"] <= 1.0

    def test_log_without_context_lacks_cosine(self):
        ls = signed_distance_init(_ball_mask((16, 16, 16), (8, 8, 8), 4.0))
        log = []
        params = EvolutionParams(
            alpha=0.5, beta=0.0, max_iters=4, reinit_every=4, stop_tol=0.0
        )
        evolve(ls, None, params, log=log)
        assert log and "cos_gamma_mean" not in log[0]

    def test_translation_equivariance_of_inside_mask(self):
        dims = (28, 28, 28)
        shift = (2, 1, 3)
        candidate = _cube_mask(dims, 9, 15)
        patient_data = np.full(dims, 1.0)
        start = _ball_mask(dims, (11.5, 11.5, 11.5), 8.0)

        rolled_candidate = BinaryMask(np.roll(candidate.data, shift, (0, 1, 2)), UNIT)
        rolled_start = BinaryMask(np.roll(start.data, shift, (0, 1, 2)), UNIT)

        params = EvolutionParams(alpha=0.1, beta=1.0, max_iters=60, reinit_every=20)
        ctx = make_force_context(ScalarVolume(patient_data, UNIT), candidate)
        ctx2 = make_force_context(ScalarVolume(patient_data.copy(), UNIT), rolled_candidate)
        out = evolve(signed_distance_init(start), ctx, params)
        out2 = evolve(signed_distance_init(rolled_start), ctx2, params)

        base = zero_level_mask(out).data
        moved = zero_level_mask(out2).data
        assert np.array_equal(np.roll(base, shift, (0, 1, 2)), moved)

    def test_iteration_accumulates_across_calls(self):
        mask = _ball_mask((16, 16, 16), (8, 8, 8), 4.0)
        ls = signed_distance_init(mask)
        params = EvolutionParams(
            alpha=0.2, beta=0.0, max_iters=4, reinit_every=4, stop_tol=0.0
        )
        once = evolve(ls, None, params)
        twice = evolve(once, None, params)
        assert once.iteration == 4
        assert twice.iteration == 8


class TestZeroLevelMask:
    def test_strictly_negative_voxels(self):
        phi = np.ones((4, 4, 4))
        phi[1, 1, 1] = -0.5
        phi[2, 2, 2] = 0.0  # on the front, counted as outside
        ls = LevelSetField(ScalarVolume(phi, UNIT))
        mask = zero_level_mask(ls)
        assert mask.data[1, 1, 1]
        assert not mask.data[2, 2, 2]
        assert mask.count() == 1

    @pytest.mark.parametrize("windowed", [False, True])
    def test_whole_grid_sign_in_x_fastest_layout(self, windowed):
        # a window leaves phi a placeholder outside it, and evolve widens it;
        # on this grid the window of init_window is the whole grid
        mask = _ball_mask((24, 22, 20), (10, 11, 9), 4.5)
        window = init_window(mask) if windowed else None
        ls = signed_distance_init(mask, window=window)
        ctx = make_force_context(ScalarVolume(np.ones(mask.dims), UNIT), mask)
        out = evolve(ls, ctx, EvolutionParams(max_iters=25, reinit_every=10, stop_tol=0.0))
        assert out.window == whole_box(mask.dims)
        got = zero_level_mask(out).data
        assert got.flags.f_contiguous
        assert np.array_equal(got, out.phi.data < 0)
