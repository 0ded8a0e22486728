"""The level set's narrow band: evolve, reinitialize and the force work on
a box around the front and must reproduce the full-grid scheme."""

import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from scipy import ndimage

from fvfseg import phantom
from fvfseg.brainmap import build_gbbm
from fvfseg.candidate import extract_candidate
from fvfseg.fvf3d import (
    BAND_HALFWIDTH,
    EvolutionParams,
    _update_box,
    evolve,
    init_window,
    make_force_context,
    reinitialize,
    signed_distance_init,
    zero_level_mask,
)
from fvfseg.metrics import tanimoto
from fvfseg.pipeline import PipelineConfig, fit_stage
from fvfseg.volume import BinaryMask, ScalarVolume, bounding_box, grow_box, whole_box

from .oracles import _interface_ref, edge_map_oracle, evolve_box_oracle, evolve_oracle

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
    return signed_distance_init(start), ctx, params


def _curvature_case():
    dims = (48, 48, 48)
    balls = _ball(dims, (20, 24, 24), 6.0) | _ball(dims, (27, 24, 24), 6.0)
    params = EvolutionParams(alpha=1.0, beta=0.0, dt=0.15, max_iters=60, stop_tol=0.0)
    return signed_distance_init(BinaryMask(balls, UNIT)), None, params


def _anisotropic_case():
    dims, spacing = (56, 56, 28), (1.0, 1.0, 2.0)
    candidate = _ball(dims, (28, 28, 14), 7.0, spacing)
    ctx = make_force_context(_bright(candidate, spacing), BinaryMask(candidate, spacing))
    start = BinaryMask(_ball(dims, (27, 29, 14), 5.0, spacing), spacing)
    params = EvolutionParams(max_iters=60, stop_tol=0.0)
    return signed_distance_init(start), ctx, params


def _grid_face_case():
    dims = (48, 48, 48)
    candidate = _ball(dims, (4, 24, 24), 8.0)
    ctx = make_force_context(_bright(candidate, UNIT), BinaryMask(candidate, UNIT))
    params = EvolutionParams(max_iters=60, stop_tol=0.0)
    start = BinaryMask(candidate, UNIT)
    return signed_distance_init(start), ctx, params


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
    return evolve_oracle(ls.phi.data, spacing, resolved, force)


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_box_evolution_matches_full_grid(name):
    ls, ctx, params = PARITY_CASES[name]()
    log = []
    out = evolve(ls, ctx, params, log=log)
    ref_phi, ref_log = _oracle(ls, ctx, params)

    assert np.array_equal(zero_level_mask(out).data, ref_phi < 0)
    assert [r["iteration"] for r in log] == [r["iteration"] for r in ref_log]
    assert [r["inside"] for r in log] == [r["inside"] for r in ref_log]


ACCEPTANCE_LESIONS = {
    "sphere": phantom.TumorSpec(shape="sphere", radii=(8.0,), offset=4.0, seed=1),
    "ellipsoid": phantom.TumorSpec(shape="ellipsoid", radii=(10.0, 7.0, 5.0), offset=4.0, seed=2),
}


@cache
def _acceptance_case(shape):
    """The 64^3 acceptance lesion's scan, its candidate and the force the
    pipeline seeds at the candidate's centroid."""
    atlas = phantom.synth_atlas((64, 64, 64), seed=0)
    patient, _ = phantom.synth_patient(atlas, ACCEPTANCE_LESIONS[shape])
    config = PipelineConfig()
    values, _, model = fit_stage(patient, atlas, config)
    region = extract_candidate(build_gbbm(values, atlas, model), atlas.brain_mask, config.psi)
    ctx = make_force_context(patient, region.mask, center=region.centroid)
    return region.mask, ctx, config.evolution_params()


@pytest.mark.parametrize("move", ["erode", "dilate"])
@pytest.mark.parametrize("shape", sorted(ACCEPTANCE_LESIONS))
def test_a_moving_front_matches_full_grid_at_the_pipeline_defaults(shape, move):
    # The front starts 2 voxels (26-connectivity) inside or outside the
    # candidate, and the force's delta is the candidate's, so the front
    # travels back to it over two or three segments of one-voxel-band
    # boxes, each found from the front the last segment left.
    candidate, ctx, params = _acceptance_case(shape)
    grow = ndimage.binary_erosion if move == "erode" else ndimage.binary_dilation
    cube = ndimage.generate_binary_structure(3, 3)
    start = BinaryMask(grow(candidate.data, cube, iterations=2), candidate.spacing)
    ls = signed_distance_init(start, window=init_window(start, params=params))
    log = []
    out = evolve(ls, ctx, params, log=log)
    ref_phi, ref_log = _oracle(signed_distance_init(start), ctx, params)

    assert np.array_equal(zero_level_mask(out).data, ref_phi < 0)
    assert out.iteration == ref_log[-1]["iteration"] >= 40
    assert [r["inside"] for r in log] == [r["inside"] for r in ref_log]
    assert start.count() != candidate.count() == log[-1]["inside"]


def test_the_box_after_a_steepening_segment_hugs_the_front():
    # The converging force steepens phi: after one segment on the
    # acceptance sphere no voxel of the window lies within a band width of
    # the front, so a box found by |phi| <= band would be the whole grid.
    # The box found from the front's voxels holds their bounding box.
    candidate, ctx, params = _acceptance_case("sphere")
    ls = signed_distance_init(candidate, window=init_window(candidate, params=params))
    out = evolve(ls, ctx, replace(params, max_iters=params.reinit_every))
    phi, dims = out.phi.data, out.phi.dims
    assert np.abs(phi[out.window]).min() > BAND_HALFWIDTH * max(out.phi.spacing)

    pads = params.box_pads(out.phi.spacing, dims)
    core, _ = _update_box(phi, pads, out.window)
    front = bounding_box(_interface_ref(phi))
    assert core == grow_box(front, pads, dims) != whole_box(dims)


def _skewed_case():
    # advection at three different spacings, from the window the pipeline
    # starts on, over three segments whose boxes change shape
    dims, spacing = (40, 36, 32), (0.9375, 1.1, 1.3)
    candidate = _ball(dims, (19, 17, 15), 8.0, spacing)
    ctx = make_force_context(_bright(candidate, spacing), BinaryMask(candidate, spacing))
    start = BinaryMask(_ball(dims, (18, 18, 15), 5.0, spacing), spacing)
    params = EvolutionParams(max_iters=60, stop_tol=0.0)
    return signed_distance_init(start, init_window(start, params)), ctx, params


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


def _cube_case(max_iters):
    # a ball that grows to fill a cube over many short segments
    dims = (48, 48, 48)
    cube = np.zeros(dims, dtype=bool)
    cube[6:42, 6:42, 6:42] = True
    ctx = make_force_context(ScalarVolume(np.ones(dims), UNIT), BinaryMask(cube, UNIT))
    start = BinaryMask(_ball(dims, (23.5,) * 3, 4.0), UNIT)
    params = EvolutionParams(
        alpha=0.1, beta=1.0, max_iters=max_iters, reinit_every=10, stop_tol=0.0
    )
    return start, ctx, params


def test_many_checkpoints_match_full_grid():
    # Six segments.  Each is rebuilt from its front on its own box before it
    # runs, as the whole grid is, so the far voxels that no box reached
    # before do not enter a step with their starting distance.
    start, ctx, params = _cube_case(60)
    ls = signed_distance_init(start, init_window(start, params))
    log = []
    out = evolve(ls, ctx, params, log=log)
    ref_phi, ref_log = _oracle(signed_distance_init(start), ctx, params)

    assert np.array_equal(zero_level_mask(out).data, ref_phi < 0)
    assert zero_level_mask(out).count() == 25536
    assert [r["inside"] for r in log][:3] == [r["inside"] for r in ref_log][:3]
    assert log[2]["inside"] == 5592


def test_a_window_that_does_not_hold_the_first_box_is_rejected():
    # the candidate's own bounding box is smaller than the first box with
    # its halo: init_window gives the window to start from
    ls, ctx, params = _travel_case()
    start = zero_level_mask(ls)
    tight = signed_distance_init(start, bounding_box(start.data))
    with pytest.raises(ValueError, match="init_window"):
        evolve(tight, ctx, params)
    wide = signed_distance_init(start, init_window(start, params))
    assert evolve(wide, ctx, replace(params, max_iters=1)).iteration == 1


def test_window_widens_as_the_front_travels():
    # The window of init_window holds the first box; the front then crosses
    # ~15 voxels in ten short segments, and the window grows to hold each
    # new box, on which phi is rebuilt from the front before the segment.
    start, ctx, params = _cube_case(100)
    dims, cube = start.dims, ctx.candidate.data
    window = init_window(start, params)
    ls = signed_distance_init(start, window)
    _, outer = _update_box(ls.phi.data, params.box_pads(UNIT, dims), whole_box(dims))
    assert _inside(window, outer) and _voxels(window) < 0.25 * cube.size

    log = []
    out = evolve(ls, ctx, params, log=log)
    # Against the same boxes from a whole-grid start: no box reads the
    # placeholders as distances, so every value the window holds and every
    # log figure are the same to the bit.
    ref_log = []
    ref = evolve(signed_distance_init(start), ctx, params, log=ref_log)
    assert ref.window == whole_box(dims)
    assert np.array_equal(out.phi.data[out.window], ref.phi.data[out.window])
    assert np.array_equal(zero_level_mask(out).data, zero_level_mask(ref).data)
    assert log == ref_log and len(log) == 10
    assert _inside(out.window, window) and _voxels(out.window) > 4 * _voxels(window)


def test_reinitialize_keeps_the_window():
    # A slab front.  The rebuild reads phi0 within two voxels of the
    # interface voxels, all of which lie in the window with that reach, so
    # on the window it is the whole grid's rebuild to the bit.  It rebuilds
    # every voxel of its box, though, so the whole grid's far planes leave
    # the starting distance; the reference evolve starts from the starting
    # distance with the window's values put in.  The front then travels out
    # of the window, and evolve must grow it to hold the next box, on which
    # phi is rebuilt from the front, placeholders included.
    dims = (48, 10, 10)
    candidate = np.zeros(dims, dtype=bool)
    candidate[6:42] = True
    start = np.zeros(dims, dtype=bool)
    start[20:28] = True
    start = BinaryMask(start, UNIT)
    ctx = make_force_context(ScalarVolume(np.ones(dims), UNIT), BinaryMask(candidate, UNIT))
    params = EvolutionParams(alpha=0.1, beta=1.0, max_iters=60, reinit_every=30, stop_tol=0.0)
    window = init_window(start, params)
    windowed = reinitialize(signed_distance_init(start, window))
    whole = reinitialize(signed_distance_init(start))
    assert windowed.window == window and whole.window == whole_box(dims)
    assert np.array_equal(windowed.phi.data[window], whole.phi.data[window])

    phi = signed_distance_init(start).phi.data
    phi[window] = windowed.phi.data[window]
    log, ref_log = [], []
    out = evolve(windowed, ctx, params, log=log)
    ref = evolve(replace(whole, phi=ScalarVolume(phi, UNIT)), ctx, params, log=ref_log)
    assert _voxels(out.window) > _voxels(window)
    assert np.array_equal(out.phi.data[out.window], ref.phi.data[out.window])
    assert log == ref_log and log[-1]["inside"] > start.count()


@pytest.mark.parametrize("name", ["curvature", "anisotropic", "grid_face"])
def test_parity_cases_run_on_a_box_smaller_than_the_grid(name):
    ls, _, params = PARITY_CASES[name]()
    spacing = ls.phi.spacing
    dt = params.resolve_dt(spacing)
    travel = params.reinit_every * dt * (params.beta + 2.0 * params.alpha / min(spacing))
    band = max(spacing) * BAND_HALFWIDTH
    pads = [int(np.ceil(band / s)) + int(np.ceil(travel / s)) for s in spacing]
    _, outer = _update_box(ls.phi.data, pads, whole_box(ls.phi.dims))
    box_voxels = np.prod([s.stop - s.start for s in outer])
    assert box_voxels < 0.5 * ls.phi.data.size


def test_front_crosses_more_than_the_band_between_checkpoints():
    # the front travels ~20 voxels in one segment with a band of 1: without
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
        full = signed_distance_init(mask).phi.data
        got = signed_distance_init(mask, window)
        assert got.window[2] == slice(0, window[2].stop)
        assert np.array_equal(got.phi.data[window], full[window])
        outside = np.ones(dims, dtype=bool)
        outside[window] = False
        assert (got.phi.data[outside] > BAND_HALFWIDTH * max(spacing)).all()


def test_window_must_hold_the_region():
    mask = BinaryMask(_ball((16, 16, 16), (8, 8, 8), 4.0), UNIT)
    for window, match in (
        (np.s_[5:16, 0:16, 0:16], "whole region"),
        # a step other than 1 is not a box, and a fourth slice is no axis
        (np.s_[0:16:2, 0:16, 0:16], "three slices of step 1"),
        (np.s_[0:16, 0:16, 0:16, 0:16], "three slices of step 1"),
    ):
        with pytest.raises(ValueError, match=match):
            signed_distance_init(mask, window=window)
