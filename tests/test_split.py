"""Work split across threads: the x-parts of a level-set step and of the
smoothing passes must give the bits of the one-part run, whatever the
number of parts and wherever the cuts fall."""

import os
import signal
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from scipy import ndimage

from fvfseg import fvf3d, volume
from fvfseg.errors import NumericalInstabilityError
from fvfseg.fvf3d import (
    EvolutionParams,
    _box_pads,
    _gradient_norm2,
    _peak_gradient_norm2,
    _update_box,
    evolve,
    make_force_context,
    signed_distance_init,
)
from fvfseg.volume import (
    BinaryMask,
    ScalarVolume,
    gaussian_smooth,
    run_parts,
    split_planes,
    whole_box,
)

from .oracles import evolve_box_oracle
from .test_narrow_band import (
    PARITY_CASES,
    UNIT,
    _ball,
    _bright,
    _skewed_case,
    evolve_peak_grids,
)

CASES = [*sorted(PARITY_CASES), "skewed"]


def _case(name):
    return _skewed_case() if name == "skewed" else PARITY_CASES[name]()


@cache
def _reference(name):
    ls, ctx, params = _case(name)
    log = []
    out = evolve_box_oracle(ls, ctx, params, log=log)
    return out.phi.data.tobytes(), out.window, out.iteration, repr(log)


def _force_split(monkeypatch, workers):
    monkeypatch.setattr(volume, "WORKERS", workers)
    monkeypatch.setattr(volume, "PART_WORK", 1)


def _spy_parts(monkeypatch):
    """Record the number of parts of every run_parts call evolve makes."""
    counts = []

    def spy(fn, parts):
        counts.append(len(parts))
        return volume.run_parts(fn, parts)

    monkeypatch.setattr(fvf3d, "run_parts", spy)
    return counts


def _assert_matches_reference(name):
    ls, ctx, params = _case(name)
    log = []
    out = evolve(ls, ctx, params, log=log)
    phi, window, iteration, ref_log = _reference(name)
    assert out.phi.data.tobytes() == phi
    assert out.window == window and out.iteration == iteration
    assert repr(log) == ref_log


def test_split_planes_cuts_contiguous_parts_of_the_least_size(monkeypatch):
    monkeypatch.setattr(volume, "WORKERS", 3)
    monkeypatch.setattr(volume, "PART_WORK", 100)
    assert split_planes(4, 14, 100) == [(4, 7), (7, 10), (10, 14)]
    assert split_planes(0, 10, 25) == [(0, 5), (5, 10)]
    assert split_planes(0, 10, 9) == [(0, 10)]
    assert split_planes(0, 2, 1000) == [(0, 1), (1, 2)]
    assert split_planes(5, 6, 10**6) == [(5, 6)]


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("name", CASES)
def test_split_step_matches_the_box_oracle_bit_for_bit(name, workers, monkeypatch):
    _force_split(monkeypatch, workers)
    counts = _spy_parts(monkeypatch)
    _assert_matches_reference(name)
    assert max(counts) == workers


def test_split_step_loses_no_update_under_fast_thread_switches(monkeypatch):
    # more parts than this machine may have CPUs, and the interpreter lock
    # handed over every microsecond: a part writing into its neighbour's
    # planes, or adding its step before the neighbour has read them, changes
    # the bits
    _force_split(monkeypatch, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_matches_reference("skewed")
    finally:
        sys.setswitchinterval(interval)


def test_split_step_is_exact_for_one_plane_parts_on_the_grid_faces(monkeypatch):
    # The grid_face case's update box starts on the x = 0 face, and the
    # travel case's spans the grid: the first and last parts are one plane
    # thick and each lies on a grid face.
    def ends_apart(start, stop, plane_voxels):
        return [(start, start + 1), (start + 1, stop - 1), (stop - 1, stop)]

    monkeypatch.setattr(fvf3d, "split_planes", ends_apart)
    for name in ("grid_face", "travel"):
        ls, _, params = _case(name)
        core, _ = _update_box(
            ls.phi.data,
            _box_pads(ls.band_halfwidth, params, ls.phi.spacing, ls.phi.dims),
            whole_box(ls.phi.dims),
        )
        assert core[0].start == 0
        _assert_matches_reference(name)


def _large_case():
    # a 64^3 ball of radius 18: the update box is 56^3, above the size rule
    dims = (64, 64, 64)
    ball = _ball(dims, (31.5,) * 3, 18.0)
    ctx = make_force_context(_bright(ball, UNIT), BinaryMask(ball, UNIT))
    params = EvolutionParams(max_iters=20, stop_tol=0.0)
    return signed_distance_init(BinaryMask(ball, UNIT), 3.0), ctx, params


def test_a_box_above_the_size_rule_gives_the_same_bits_on_two_workers(monkeypatch):
    ls, ctx, params = _large_case()
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(volume, "WORKERS", workers)
        counts = _spy_parts(monkeypatch)
        log = []
        out = evolve(ls, ctx, params, log=log)
        runs.append((out.phi.data.tobytes(), out.iteration, repr(log)))
        assert set(counts) == {workers}
    assert runs[0] == runs[1]


def test_a_small_box_runs_in_one_part(monkeypatch):
    # the level set of a 48^3 case is too small to pay for a hand-off
    monkeypatch.setattr(volume, "WORKERS", 2)
    counts = _spy_parts(monkeypatch)
    ls, ctx, params = _case("anisotropic")
    evolve(ls, ctx, params)
    assert set(counts) == {1}


def test_whole_grid_passes_split_at_128_cubed_and_not_at_64_cubed(monkeypatch):
    monkeypatch.setattr(volume, "WORKERS", 2)
    counts = []

    def spy(fn, parts):
        counts.append(len(parts))
        return run_parts(fn, parts)

    monkeypatch.setattr(volume, "run_parts", spy)
    monkeypatch.setattr(fvf3d, "run_parts", spy)
    for n, parts in ((64, 1), (128, 2)):
        counts.clear()
        data = np.zeros((n, n, n), dtype=np.float32)
        smoothed = gaussian_smooth(ScalarVolume(data, UNIT), 1.0).data
        _peak_gradient_norm2(smoothed, UNIT)
        assert counts == [parts] * 4


def test_split_divergence_raises_at_the_serial_iteration_without_warnings(monkeypatch):
    ls, ctx, params = _case("anisotropic")
    unstable = EvolutionParams(alpha=0.2, beta=1.0, dt=50.0, max_iters=60, stop_tol=0.0)
    with pytest.raises(NumericalInstabilityError) as serial:
        evolve_box_oracle(ls, ctx, unstable)
    _force_split(monkeypatch, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalInstabilityError) as split:
            evolve(ls, ctx, unstable)
    assert split.value.iteration == serial.value.iteration


@pytest.mark.parametrize("workers", [1, 3])
def test_a_nan_in_phi_raises_at_the_next_iteration(workers, monkeypatch):
    # the step's largest |update| is evolve's one check: a nan at a core
    # voxel makes the update there nan
    _force_split(monkeypatch, workers)
    counts = _spy_parts(monkeypatch)
    ls, ctx, params = _case("skewed")
    ls = replace(ls, iteration=5)
    core, _ = _update_box(
        ls.phi.data,
        _box_pads(ls.band_halfwidth, params, ls.phi.spacing, ls.phi.dims),
        ls.window,
    )
    ls.phi.data[tuple((c.start + c.stop) // 2 for c in core)] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalInstabilityError) as err:
            evolve(ls, ctx, params)
    assert err.value.iteration == ls.iteration + 1
    assert counts and set(counts) == {workers}


def test_repeated_split_runs_start_no_new_threads(monkeypatch):
    _force_split(monkeypatch, 2)
    ls, ctx, params = _case("grid_face")
    evolve(ls, ctx, params)
    threads = threading.active_count()
    for _ in range(3):
        evolve(ls, ctx, params)
        assert threading.active_count() == threads


def test_a_forked_child_makes_its_own_pool(monkeypatch, rng):
    # the parent's pool threads do not exist in a fork; the child must not
    # queue its parts to them and wait forever
    _force_split(monkeypatch, 2)
    vol = ScalarVolume(rng.normal(size=(12, 10, 8)), UNIT)
    expected = gaussian_smooth(vol, 1.0).data.tobytes()
    pid = os.fork()
    if pid == 0:
        signal.alarm(30)
        same = gaussian_smooth(vol, 1.0).data.tobytes() == expected
        os._exit(0 if same else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_split_evolve_peak_memory_is_a_few_grids(monkeypatch):
    # tracemalloc traces the pool's threads as well as the caller's
    _force_split(monkeypatch, 3)
    grids = evolve_peak_grids()
    assert grids <= 4, f"peak {grids:.1f} float64 grids"


def test_the_tasks_of_a_split_step_allocate_less_than_one_part(monkeypatch):
    # each part's workspace and velocity are made in the calling thread; the
    # two phases of a step only fill them, with numpy's iteration buffers
    # (under 200 kB a thread) on the strided views of the update box
    _force_split(monkeypatch, 2)
    ls, ctx, params = _large_case()
    peaks = []

    def measured(fn, parts):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = volume.run_parts(fn, parts)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(fvf3d, "run_parts", measured)
    tracemalloc.start()
    try:
        evolve(ls, ctx, params)
    finally:
        tracemalloc.stop()
    part_bytes = 54**3 // 2 * 8
    assert len(peaks) == 2 * params.max_iters
    assert max(peaks) < part_bytes, f"peak {max(peaks) / part_bytes:.2f} part fields"


def _serial_smooth(data, sigma):
    k = volume._gauss_kernel(sigma)
    out = data
    for axis in range(3):
        out = ndimage.correlate1d(out, k, axis=axis, output=np.empty(out.shape), mode="nearest")
    return out


# (7, 2, 9) splits the x pass along a y extent of 2; (3, 11, 6) splits the
# y and z passes along an x extent of 3: both shorter than 3 or 5 workers
SHAPES = [(20, 17, 15), (7, 2, 9), (3, 11, 6)]


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("shape", SHAPES)
def test_split_smoothing_matches_the_serial_passes(shape, workers, monkeypatch, rng):
    base = rng.normal(100.0, 30.0, shape)
    expected = {}
    for dtype in (np.float32, np.float64):
        for sigma in (0.7, 1.5):
            expected[dtype, sigma] = _serial_smooth(base.astype(dtype), sigma)
    _force_split(monkeypatch, workers)
    for (dtype, sigma), ref in expected.items():
        for order in "CF":
            data = np.asarray(base, dtype=dtype, order=order)
            out = gaussian_smooth(ScalarVolume(data, UNIT), sigma).data
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("workers", [2, 3, 5])
@pytest.mark.parametrize("shape", [(20, 17, 15), (3, 11, 6), (23, 4, 5)])
def test_split_gradient_peak_matches_the_whole_grid(shape, workers, monkeypatch, rng):
    data = rng.normal(0.0, 1.0, shape)
    data[rng.integers(shape[0]), rng.integers(shape[1]), rng.integers(shape[2])] = 9.0
    for spacing in (UNIT, (0.9375, 1.1, 1.3)):
        expected = float(_gradient_norm2(data, spacing).max())
        with monkeypatch.context() as patch:
            patch.setattr(volume, "WORKERS", workers)
            patch.setattr(volume, "PART_WORK", 1)
            assert _peak_gradient_norm2(data, spacing) == expected
