"""The level set's narrow band: evolve, reinitialize and the force work on
a box around the front and must reproduce the full-grid scheme."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from fvfseg.fvf3d import (
    EvolutionParams,
    _update_box,
    _whole,
    evolve,
    init_window,
    make_force_context,
    reinitialize,
    signed_distance_init,
    zero_level_mask,
)
from fvfseg.metrics import tanimoto
from fvfseg.volume import BinaryMask, ScalarVolume, bounding_box

from .oracles import edge_map_oracle, evolve_box_oracle, evolve_oracle

UNIT = (1.0, 1.0, 1.0)


def _ball(dims, center, radius, spacing=UNIT):
    idx = np.indices(dims).astype(np.float64)
    for ax in range(3):
        idx[ax] = (idx[ax] - center[ax]) * spacing[ax]
    return np.sqrt((idx**2).sum(axis=0)) <= radius


def _bright(mask, spacing):
    """A scan that is brighter on ``mask``, with smooth edges."""
    return ScalarVolume(ndimage.gaussian_filter(1.0 + mask.astype(np.float64), 1.0), spacing)


def _travel_case():
    dims = (48, 48, 48)
    cube = np.zeros(dims, dtype=bool)
    cube[8:40, 8:40, 8:40] = True
    ctx = make_force_context(ScalarVolume(np.ones(dims), UNIT), BinaryMask(cube, UNIT))
    start = BinaryMask(_ball(dims, (23.5,) * 3, 4.0), UNIT)
    params = EvolutionParams(alpha=0.1, beta=1.0, max_iters=100, reinit_every=100, stop_tol=0.0)
    return signed_distance_init(start, band_halfwidth=2.0), ctx, params


def _curvature_case():
    dims = (48, 48, 48)
    balls = _ball(dims, (20, 24, 24), 6.0) | _ball(dims, (27, 24, 24), 6.0)
    params = EvolutionParams(alpha=1.0, beta=0.0, dt=0.15, max_iters=60, stop_tol=0.0)
    return signed_distance_init(BinaryMask(balls, UNIT), band_halfwidth=3.0), None, params


def _anisotropic_case():
    dims, spacing = (56, 56, 28), (1.0, 1.0, 2.0)
    candidate = _ball(dims, (28, 28, 14), 7.0, spacing)
    ctx = make_force_context(_bright(candidate, spacing), BinaryMask(candidate, spacing))
    start = BinaryMask(_ball(dims, (27, 29, 14), 5.0, spacing), spacing)
    params = EvolutionParams(max_iters=60, stop_tol=0.0)
    return signed_distance_init(start, band_halfwidth=3.0), ctx, params


def _grid_face_case():
    dims = (48, 48, 48)
    candidate = _ball(dims, (4, 24, 24), 8.0)
    ctx = make_force_context(_bright(candidate, UNIT), BinaryMask(candidate, UNIT))
    params = EvolutionParams(max_iters=60, stop_tol=0.0)
    start = BinaryMask(candidate, UNIT)
    return signed_distance_init(start, band_halfwidth=3.0), ctx, params


PARITY_CASES = {
    "travel": _travel_case,
    "curvature": _curvature_case,
    "anisotropic": _anisotropic_case,
    "grid_face": _grid_face_case,
}


def _oracle(ls, ctx, params):
    force = None
    if ctx is not None:
        _, grad = edge_map_oracle(ctx.smoothed.data, ctx.smoothed.spacing)
        force = (grad, ctx.candidate.data, ctx.center)
    spacing = ls.phi.spacing
    resolved = replace(params, dt=params.resolve_dt(spacing))
    return evolve_oracle(ls.phi.data, spacing, ls.band_halfwidth, resolved, force)


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_box_evolution_matches_full_grid(name):
    ls, ctx, params = PARITY_CASES[name]()
    log = []
    out = evolve(ls, ctx, params, log=log)
    ref_phi, ref_log = _oracle(ls, ctx, params)

    assert np.array_equal(zero_level_mask(out).data, ref_phi < 0)
    assert [r["iteration"] for r in log] == [r["iteration"] for r in ref_log]
    assert [r["inside"] for r in log] == [r["inside"] for r in ref_log]


def _skewed_case():
    # advection at three different spacings, from the window the pipeline
    # starts on, over three segments whose boxes change shape
    dims, spacing = (40, 36, 32), (0.9375, 1.1, 1.3)
    candidate = _ball(dims, (19, 17, 15), 8.0, spacing)
    ctx = make_force_context(_bright(candidate, spacing), BinaryMask(candidate, spacing))
    start = BinaryMask(_ball(dims, (18, 18, 15), 5.0, spacing), spacing)
    params = EvolutionParams(max_iters=60, stop_tol=0.0)
    window = init_window(start, 3.0, params)
    return signed_distance_init(start, 3.0, window), ctx, params


@pytest.mark.parametrize("name", [*sorted(PARITY_CASES), "skewed"])
def test_evolve_matches_the_step_on_the_stencil_box_bit_for_bit(name):
    # evolve steps on the update box plus one voxel, in reused buffers, and
    # takes cos_gamma's gradient apart from the step: the same bits as the
    # step on the box plus its 2-voxel halo with fresh arrays
    ls, ctx, params = _skewed_case() if name == "skewed" else PARITY_CASES[name]()
    log, ref_log = [], []
    out = evolve(ls, ctx, params, log=log)
    ref = evolve_box_oracle(ls, ctx, params, log=ref_log)
    assert out.phi.data.tobytes() == ref.phi.data.tobytes()
    assert out.window == ref.window and out.iteration == ref.iteration
    assert repr(log) == repr(ref_log) and log
    assert (ctx is not None) == all("cos_gamma_mean" in r for r in log)


def _voxels(box):
    return int(np.prod([s.stop - s.start for s in box]))


def _inside(outer, inner):
    return all(o.start <= i.start and i.stop <= o.stop for o, i in zip(outer, inner))


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_evolution_from_a_window_matches_full_grid(name):
    # the distance starts on the candidate's own bounding box, so evolve has
    # to widen the window before its first step
    ls, ctx, params = PARITY_CASES[name]()
    start = zero_level_mask(ls)
    window = bounding_box(start.data)
    log = []
    out = evolve(signed_distance_init(start, ls.band_halfwidth, window), ctx, params, log=log)
    ref_phi, ref_log = _oracle(ls, ctx, params)

    assert np.array_equal(zero_level_mask(out).data, ref_phi < 0)
    assert [r["iteration"] for r in log] == [r["iteration"] for r in ref_log]
    assert [r["inside"] for r in log] == [r["inside"] for r in ref_log]
    assert _inside(out.window, window) and _voxels(out.window) > _voxels(window)
    if name == "travel":
        # its travel margin spans the grid, so the window grows to all of it
        assert _voxels(out.window) == ls.phi.data.size


def test_window_widens_as_the_front_travels():
    # The window of init_window holds the first box; the front then crosses
    # ~15 voxels in ten short segments, and the window has to follow it.
    # With ten checkpoints the oracle's whole-grid reinitialization moves far
    # voxels that the boxes leave frozen, so the reference is evolve from a
    # whole-grid start.
    dims = (48, 48, 48)
    cube = np.zeros(dims, dtype=bool)
    cube[6:42, 6:42, 6:42] = True
    ctx = make_force_context(ScalarVolume(np.ones(dims), UNIT), BinaryMask(cube, UNIT))
    start = BinaryMask(_ball(dims, (23.5,) * 3, 4.0), UNIT)
    params = EvolutionParams(alpha=0.1, beta=1.0, max_iters=100, reinit_every=10, stop_tol=0.0)
    band = 2.0
    window = init_window(start, band, params)
    ls = signed_distance_init(start, band, window)
    _, outer, _ = _update_box(ls.phi.data, band, params.travel_pads(UNIT, dims), _whole(dims))
    assert _inside(window, outer) and _voxels(window) < 0.25 * cube.size

    log = []
    out = evolve(ls, ctx, params, log=log)
    # Against the same boxes from a whole-grid start: every value the
    # window holds and every log figure are the same to the bit.
    ref_log = []
    ref = evolve(signed_distance_init(start, band), ctx, params, log=ref_log)
    assert ref.window is None
    assert np.array_equal(out.phi.data[out.window], ref.phi.data[out.window])
    assert np.array_equal(zero_level_mask(out).data, zero_level_mask(ref).data)
    assert log == ref_log and len(log) == 10
    assert _inside(out.window, window) and _voxels(out.window) > 4 * _voxels(window)


def test_reinitialize_keeps_the_window():
    # A slab front: its distance field is linear in x, so reinitialization
    # changes only the planes it reaches from the front in its 10 steps,
    # none of which lies beyond the window.  The front then travels out of
    # the window, and evolve must widen it with the exact distance.
    dims = (48, 10, 10)
    candidate = np.zeros(dims, dtype=bool)
    candidate[6:42] = True
    start = np.zeros(dims, dtype=bool)
    start[20:28] = True
    start = BinaryMask(start, UNIT)
    ctx = make_force_context(ScalarVolume(np.ones(dims), UNIT), BinaryMask(candidate, UNIT))
    params = EvolutionParams(alpha=0.1, beta=1.0, max_iters=60, reinit_every=30, stop_tol=0.0)
    band = 3.0
    window = init_window(start, band, params)
    windowed = reinitialize(signed_distance_init(start, band, window))
    whole = reinitialize(signed_distance_init(start, band))
    assert windowed.window == window and whole.window is None
    assert np.array_equal(windowed.phi.data[window], whole.phi.data[window])

    log, ref_log = [], []
    out = evolve(windowed, ctx, params, log=log)
    ref = evolve(whole, ctx, params, log=ref_log)
    assert _voxels(out.window) > _voxels(window)
    assert np.array_equal(out.phi.data[out.window], ref.phi.data[out.window])
    assert log == ref_log and log[-1]["inside"] > start.count()


@pytest.mark.parametrize("name", ["curvature", "anisotropic", "grid_face"])
def test_parity_cases_run_on_a_box_smaller_than_the_grid(name):
    ls, _, params = PARITY_CASES[name]()
    spacing = ls.phi.spacing
    dt = params.resolve_dt(spacing)
    travel = params.reinit_every * dt * (params.beta + 2.0 * params.alpha / min(spacing))
    pads = [int(np.ceil(travel / s)) for s in spacing]
    _, outer, _ = _update_box(
        ls.phi.data, max(spacing) * ls.band_halfwidth, pads, _whole(ls.phi.dims)
    )
    box_voxels = np.prod([s.stop - s.start for s in outer])
    assert box_voxels < 0.5 * ls.phi.data.size


def test_front_crosses_more_than_the_band_between_checkpoints():
    # the front travels ~20 voxels in one segment with a band of 2: without
    # the travel margin it would stall at the edge of the first box
    ls, ctx, params = _travel_case()
    out = zero_level_mask(evolve(ls, ctx, params))
    assert out.count() == 32688
    assert tanimoto(out, ctx.candidate).tanimoto == pytest.approx(0.99756, abs=1e-5)


def test_log_counts_voxels_relabelled_since_start():
    dims = (24, 24, 24)
    start = BinaryMask(_ball(dims, (12, 12, 12), 7.0), UNIT)
    params = EvolutionParams(
        alpha=1.0, beta=0.0, dt=0.15, max_iters=40, reinit_every=10, stop_tol=0.0
    )
    log = []
    evolve(signed_distance_init(start), None, params, log=log)
    # pure curvature only shrinks the ball, so every relabelled voxel left it
    assert [r["changed"] for r in log] == [start.count() - r["inside"] for r in log]
    assert log[-1]["changed"] > 0

    still = []
    frozen = EvolutionParams(alpha=0.0, beta=0.0, max_iters=10, reinit_every=5, stop_tol=0.0)
    evolve(signed_distance_init(start), None, frozen, log=still)
    assert [r["changed"] for r in still] == [0, 0]


def evolve_peak_grids():
    """The tracemalloc peak of evolve on a 96^3 ball, in float64 grids."""
    dims = (96, 96, 96)
    ball = BinaryMask(_ball(dims, (47.5,) * 3, 8.0), UNIT)
    ctx = make_force_context(_bright(ball.data, UNIT), ball)
    ls = signed_distance_init(ball)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evolve(ls, ctx, EvolutionParams())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (ball.data.size * 8)


def test_evolve_peak_memory_is_a_few_grids():
    grids = evolve_peak_grids()
    assert grids <= 4, f"peak {grids:.1f} float64 grids"


@pytest.mark.parametrize(
    "dims, spacing",
    [((20, 17, 15), UNIT), ((16, 16, 16), (1.0, 1.0, 2.0)), ((12, 20, 9), (0.5, 1.25, 3.0))],
)
def test_inside_distance_on_a_crop_matches_the_whole_grid(dims, spacing, rng):
    for trial in range(6):
        m = rng.random(dims) < 0.3
        m = ndimage.binary_opening(m) if trial % 2 else m
        # every mask may reach the last z-plane; the later ones also the first planes
        lo = rng.integers(0, 4, 3) if trial < 3 else (0, 0, 0)
        keep = np.zeros(dims, dtype=bool)
        keep[lo[0] : dims[0] - 2, lo[1] : dims[1] - 1, lo[2] :] = True
        m &= keep
        if not m.any() or m.all():
            continue
        expected = ndimage.distance_transform_edt(~m, sampling=spacing) - (
            ndimage.distance_transform_edt(m, sampling=spacing)
        )
        got = signed_distance_init(BinaryMask(m, spacing)).phi.data
        assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "dims, spacing",
    [((20, 17, 15), UNIT), ((16, 16, 16), (1.0, 1.0, 2.0)), ((12, 20, 9), (0.5, 1.25, 3.0))],
)
def test_distance_on_a_window_matches_the_whole_grid(dims, spacing, rng):
    band = 2.0
    for trial in range(6):
        m = ndimage.binary_opening(rng.random(dims) < 0.4)
        m[: trial % 3, :, :] = False  # the first masks touch the x = 0 face
        m[:, :, dims[2] // 2 :] = False
        if not m.any():
            continue
        box = bounding_box(m)
        # grown by 0-3 voxels per side, clipped to the grid; one axis open
        window = tuple(
            slice(max(b.start - int(lo), 0), min(b.stop + int(hi), n))
            for b, lo, hi, n in zip(box, rng.integers(0, 4, 3), rng.integers(0, 4, 3), dims)
        )
        window = (*window[:2], slice(None, window[2].stop))
        mask = BinaryMask(m, spacing)
        full = signed_distance_init(mask, band).phi.data
        got = signed_distance_init(mask, band, window)
        assert got.window[2] == slice(0, window[2].stop)
        assert np.array_equal(got.phi.data[window], full[window])
        outside = np.ones(dims, dtype=bool)
        outside[window] = False
        assert (got.phi.data[outside] > band * max(spacing)).all()


def test_window_must_hold_the_region():
    mask = BinaryMask(_ball((16, 16, 16), (8, 8, 8), 4.0), UNIT)
    with pytest.raises(ValueError, match="whole region"):
        signed_distance_init(mask, window=np.s_[5:16, 0:16, 0:16])
