import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fvfseg
from fvfseg.ngmm import (
    _STD_FLOOR,
    EM_CHUNK_SAMPLES,
    EM_TOL,
    TISSUES,
    TissueMixtureModel,
    _bin_moments,
    _binned_samples,
    _log_normalize,
    _log_weighted_densities,
    _quantiles,
    fit_em,
    gaussian_pdf,
    load_model,
    model_from_text,
    model_to_text,
    normalize_intensity,
    sample_masked_intensities,
    save_model,
)
from fvfseg.volume import BinaryMask, ScalarVolume

from .oracles import fit_em_oracle, mp_gaussian_pdf, mp_mixture_density, rel_close

UNIT = (1.0, 1.0, 1.0)


def _volume_with_mask(rng, lo=10.0, hi=200.0):
    data = rng.uniform(lo, hi, size=(8, 8, 8))
    mask = rng.random((8, 8, 8)) > 0.4
    mask[3:5, 3:5, 3:5] = True  # keep it nonempty
    return ScalarVolume(data, UNIT), BinaryMask(mask, UNIT)


class TestNormalization:
    def test_masked_mean_becomes_one(self, rng):
        vol, mask = _volume_with_mask(rng)
        out, mean = normalize_intensity(vol, mask)
        assert out.shape == (mask.count(),)
        assert out.mean() == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(vol.data[mask.data].mean())

    def test_scale_invariance(self, rng):
        vol, mask = _volume_with_mask(rng)
        scaled = ScalarVolume(vol.data * 7.5, UNIT)
        a, _ = normalize_intensity(vol, mask)
        b, _ = normalize_intensity(scaled, mask)
        assert np.allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bytes_and_memory_order_of_a_float64_copy_divided(self, dtype, order, rng):
        # the masked values in the mask's memory order, widened to float64
        # and divided by their mean: the bits of dividing a float64 copy of
        # the scan
        data = np.asarray(rng.uniform(10.0, 400.0, (9, 7, 5)), dtype=dtype, order=order)
        mask = np.asarray(rng.random(data.shape) > 0.4, order=order)
        wide = np.asarray(data, dtype=np.float64)
        masked = wide.ravel(order)[mask.ravel(order)]
        mean = float(masked.mean())
        out, got = normalize_intensity(ScalarVolume(data, UNIT), BinaryMask(mask, UNIT))
        assert got == mean
        assert out.dtype == np.float64 and out.ndim == 1
        assert out.tobytes() == (masked / mean).tobytes()
        if order == "C" or dtype == np.float32:
            # a C-order sum, or float32 values whose float64 sum is exact
            assert got == float(wide[mask].mean())

    def test_empty_mask_rejected(self):
        vol = ScalarVolume(np.ones((4, 4, 4)), UNIT)
        mask = BinaryMask(np.zeros((4, 4, 4), dtype=bool), UNIT)
        with pytest.raises(ValueError, match="empty"):
            normalize_intensity(vol, mask)

    def test_nonpositive_mean_rejected(self):
        vol = ScalarVolume(np.zeros((4, 4, 4)), UNIT)
        mask = BinaryMask(np.ones((4, 4, 4), dtype=bool), UNIT)
        with pytest.raises(ValueError, match="positive"):
            normalize_intensity(vol, mask)


class TestDensities:
    @given(
        st.floats(-5, 5),
        st.floats(-2, 2),
        st.floats(0.05, 3.0),
    )
    def test_gaussian_pdf_against_high_precision(self, x, mean, std):
        got = gaussian_pdf(x, mean, std)
        assert rel_close(got, mp_gaussian_pdf(x, mean, std))

    def test_gaussian_pdf_vectorized_matches_scalar(self, rng):
        xs = rng.normal(size=32)
        vec = gaussian_pdf(xs, 0.3, 0.7)
        assert np.allclose(vec, [gaussian_pdf(float(x), 0.3, 0.7) for x in xs])

    def test_gaussian_pdf_rejects_bad_std(self):
        with pytest.raises(ValueError):
            gaussian_pdf(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_pdf(0.0, 0.0, -1.0)

    @given(st.floats(-3, 3))
    def test_mixture_density_against_high_precision(self, x):
        model = TissueMixtureModel(
            weights=(0.2, 0.5, 0.3),
            means=(0.6, 1.0, 1.3),
            stds=(0.08, 0.10, 0.12),
        )
        # the mixture density EM evaluates, through its log-domain terms
        terms = _log_weighted_densities(
            np.array([x]), np.array(model.weights), np.array(model.means), np.array(model.stds),
            out=np.empty((3, 1)),
        )
        got = float(np.exp(_log_normalize(terms, np.empty(1), np.empty(1)))[0])
        want = mp_mixture_density(model.weights, model.means, model.stds, x)
        assert rel_close(got, want)


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TissueMixtureModel((0.3, 0.3, 0.5), (0.0, 1.0, 2.0), (0.1, 0.1, 0.1))

    def test_means_must_be_sorted(self):
        with pytest.raises(ValueError, match="ascending"):
            TissueMixtureModel((0.3, 0.3, 0.4), (0.0, 2.0, 1.0), (0.1, 0.1, 0.1))

    def test_std_floor_enforced(self):
        with pytest.raises(ValueError, match="floor"):
            TissueMixtureModel((0.3, 0.3, 0.4), (0.0, 1.0, 2.0), (0.1, 1e-9, 0.1))

    def test_a_two_component_model_is_rejected(self):
        # one weight, mean and std per tissue of TISSUES: no other count
        # and no mismatched lengths
        assert TISSUES == ("CSF", "GM", "WM")
        for weights, means, stds in [
            ((0.5, 0.5), (0.0, 1.0), (0.1, 0.1)),
            ((0.3, 0.3, 0.4), (0.0, 1.0), (0.1, 0.1, 0.1)),
            ((0.25,) * 4, (0.0, 1.0, 2.0, 3.0), (0.1,) * 4),
        ]:
            with pytest.raises(ValueError, match="per tissue"):
                TissueMixtureModel(weights, means, stds)


def _draw_mixture(rng, n):
    comps = rng.choice(3, size=n, p=[0.2, 0.5, 0.3])
    means = np.array([0.6, 1.0, 1.3])[comps]
    stds = np.array([0.08, 0.10, 0.12])[comps]
    return rng.normal(means, stds)


def _outlier_samples():
    return np.append(_draw_mixture(np.random.default_rng(20261017), 20_000), 1e5)


class TestFitEm:
    def test_recovers_well_separated_components(self, rng):
        x = _draw_mixture(rng, 60_000)
        model = fit_em(x)
        assert np.allclose(model.means, (0.6, 1.0, 1.3), atol=0.02)
        assert np.allclose(model.weights, (0.2, 0.5, 0.3), atol=0.02)
        assert np.allclose(model.stds, (0.08, 0.10, 0.12), atol=0.03)

    def test_permutation_invariance_is_bitwise(self, rng):
        x = _draw_mixture(rng, 5_000)
        shuffled = x.copy()
        rng.shuffle(shuffled)
        a = fit_em(x)
        b = fit_em(shuffled)
        assert a.means == b.means
        assert a.weights == b.weights
        assert a.stds == b.stds
        assert a.loglik_trace == b.loglik_trace

    def test_deterministic_across_calls(self, rng):
        x = _draw_mixture(rng, 5_000)
        assert fit_em(x) == fit_em(x)

    def test_loglik_trace_monotone(self, rng):
        x = _draw_mixture(rng, 5_000)
        model = fit_em(x)
        trace = model.loglik_trace
        assert len(trace) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert model.converged is True

    def test_default_tol(self):
        """EM's stopping tolerance is a constant of the module, not a
        parameter."""
        assert EM_TOL == 1e-6
        assert "tol" not in inspect.signature(fit_em).parameters

    def test_max_iters_cap_reports_not_converged(self, rng):
        x = _draw_mixture(rng, 5_000)
        model = fit_em(x, max_iters=2)
        assert len(model.loglik_trace) == 2
        assert model.converged is False

    def test_outlier_underflow_pins_a_component(self):
        # One sample far out in the tail: at initialisation every weighted
        # density of it underflows to 0 in linear space, so only the
        # log-domain E-step keeps its responsibilities finite.  Expected
        # values were recorded from the earlier scipy-logsumexp E-step on
        # every sample; the binned fit meets them within 4.3e-12 relative
        # (the far sample is a point of its own, outside the bins).
        x = _outlier_samples()
        init_means = np.quantile(x, [1 / 6, 1 / 2, 5 / 6])
        init_std = x.std() / 3
        assert all(gaussian_pdf(1e5, mu, init_std) / 3 == 0.0 for mu in init_means)

        model = fit_em(x)
        trace = model.loglik_trace
        assert np.isfinite(trace).all()
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert len(trace) == 7
        assert model.converged is True
        want = {
            "weights": (0.42424256536777505, 0.575707437132101, 4.999750012499375e-05),
            "means": (1.0088586874763898, 1.0088586995966382, 100000.0),
            "stds": (0.2618827221483532, 0.2618827164312237, 0.001),
        }
        for name, values in want.items():
            assert np.allclose(getattr(model, name), values, rtol=1e-9, atol=0), name

    def test_peak_memory_bounded_by_sample_buffers(self):
        # the 200k reference samples of the acceptance EM test; EM may hold
        # at most 3 float64 arrays the size of the sample at any one time
        # (the quantiles' partitioned copy: binning runs in chunks and the
        # iterations only touch bin-sized buffers)
        x = _draw_mixture(np.random.default_rng(7), 200_000)
        tracemalloc.start()
        try:
            fit_em(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * x.size * 8, f"peak {peak / (8 * x.size):.1f} sample buffers"

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            fit_em([1.0, 2.0])

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_em([1.0, np.nan, 2.0, 3.0])

    def test_nonfinite_sample_past_the_first_chunk_rejected(self, rng):
        x = _draw_mixture(rng, 3 * EM_CHUNK_SAMPLES)
        x[2 * EM_CHUNK_SAMPLES + 5] = np.inf
        with pytest.raises(ValueError, match="finite"):
            fit_em(x)


_FIT_IN_CHILD = """
import sys
import numpy as np
from fvfseg.ngmm import fit_em, model_to_text
sys.stdout.write(model_to_text(fit_em(np.load(sys.argv[1]))))
"""


def _model_text_at_blas_threads(path, threads):
    src = str(Path(fvfseg.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", _FIT_IN_CHILD, str(path)],
        env=env, capture_output=True, check=True,
    )
    return run.stdout


def test_fit_is_the_same_bytes_at_any_blas_thread_count(tmp_path):
    # OpenBLAS splits a long dot product over its threads, and the partial
    # sums round differently; the fit must not call it
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: OpenBLAS runs one thread whatever its setting")
    path = tmp_path / "samples.npy"
    np.save(path, _draw_mixture(np.random.default_rng(7), 200_000))
    one = _model_text_at_blas_threads(path, 1)
    assert one.startswith(b"K=3\n")
    assert _model_text_at_blas_threads(path, 2) == one


class TestFitEmMatchesOracle:
    """The binned EM against the per-sample reference: same iteration count
    and stop reason; means and stds within rtol 1e-6, weights within atol
    1e-6 and each log-likelihood within 1e-7, a tolerance set by the bin
    width (measured on these fixtures and the benchmark's samples: 2.7e-8
    relative on means, 1.9e-7 on stds, 7.5e-8 on weights, 3.5e-8 on the
    trace)."""

    @staticmethod
    def _assert_matches(x, **kwargs):
        got = fit_em(x, **kwargs)
        want = fit_em_oracle(x, **kwargs)
        assert len(got.loglik_trace) == len(want.loglik_trace)
        assert got.converged == want.converged
        assert np.allclose(got.loglik_trace, want.loglik_trace, rtol=0, atol=1e-7)
        for name in ("means", "stds"):
            assert np.allclose(getattr(got, name), getattr(want, name), rtol=1e-6, atol=0), name
        assert np.allclose(got.weights, want.weights, rtol=0, atol=1e-6)
        return got

    @pytest.mark.parametrize("n", [5_000, 60_000])
    def test_mixture_draws(self, rng, n):
        self._assert_matches(_draw_mixture(rng, n))

    @pytest.mark.parametrize("max_iters", [500, 2])
    def test_outlier_underflow(self, max_iters):
        self._assert_matches(_outlier_samples(), max_iters=max_iters)

    def test_spike_of_identical_values(self, rng):
        # like the phantom's constant lesion: 2% of the samples share one
        # value, so one bin's mean must stand for all of them
        x = _draw_mixture(rng, 60_000)
        x[rng.choice(x.size, size=x.size // 50, replace=False)] = 1.6180339887
        self._assert_matches(x)

    @pytest.mark.parametrize(
        "n", [EM_CHUNK_SAMPLES - 1, EM_CHUNK_SAMPLES, EM_CHUNK_SAMPLES + 1, 3 * EM_CHUNK_SAMPLES]
    )
    def test_chunk_edges(self, rng, n):
        self._assert_matches(_draw_mixture(rng, n))

    def test_max_iters_cap(self, rng):
        x = _draw_mixture(rng, 2 * EM_CHUNK_SAMPLES + 7)
        assert self._assert_matches(x, max_iters=2).converged is False


class TestBinning:
    def test_all_samples_equal(self):
        # the tail quantiles coincide, so the bins have zero width
        x = np.full(1000, 0.7)
        model = fit_em(x)
        assert model.means == (0.7, 0.7, 0.7)
        assert model.stds == (_STD_FLOOR,) * 3

    def test_sample_past_the_span_is_an_exact_point(self, rng):
        x = np.concatenate((_draw_mixture(rng, 5_000), [0.5, 1.5, 40.0, -7.25]))
        points, counts, scatter = _binned_samples(x, 0.5, 1.5)
        inside = (x >= 0.5) & (x <= 1.5)
        n_out = int((~inside).sum())
        # the span's ends are binned, the rest are unit-weight points, sorted
        assert counts[:-n_out].sum() == inside.sum()
        assert ((points[:-n_out] >= 0.5) & (points[:-n_out] <= 1.5)).all()
        assert np.array_equal(points[-n_out:], np.sort(x[~inside]))
        assert (counts[-n_out:] == 1).all() and (scatter[-n_out:] == 0).all()
        assert counts.sum() == x.size
        assert (scatter[:-n_out] > 0).all()

    def test_moment_sums_do_not_depend_on_chunk_order(self, rng):
        x = _draw_mixture(rng, 4 * EM_CHUNK_SAMPLES)
        chunks = x.reshape(4, EM_CHUNK_SAMPLES)
        forward = _bin_moments(x, 0.3, 1.6)
        backward = _bin_moments(chunks[::-1].ravel(), 0.3, 1.6)
        for a, b in zip(forward[:3], backward[:3]):
            assert a.dtype == np.int64
            assert np.array_equal(a, b)
        assert np.array_equal(np.sort(forward[3]), np.sort(backward[3]))
        assert forward[0].sum() + forward[3].size == x.size


# the quantiles fit_em reads: the two tails, then the three init means
FIT_QUANTILES = np.array([0.0005, 0.9995, 1 / 6, 1 / 2, 5 / 6])


@st.composite
def quantile_samples(draw):
    """Finite vectors of 3 to more than two chunks' length: values drawn
    from a small pool (ties, all equal, signed zeros, subnormals and the
    largest floats), scaled over hundreds of decades, or the mixture."""
    n = draw(st.one_of(st.integers(3, 40), st.integers(3, 2 * EM_CHUNK_SAMPLES + 500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["pool", "decades", "mixture"]))
    if kind == "pool":
        pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
        return rng.choice(np.array(pool), n)
    if kind == "decades":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return _draw_mixture(rng, n)


def _same_quantiles(x):
    """_quantiles gives np.quantile's bytes.  Among tied 0.0 and -0.0
    samples, which zero sits at a rank depends on the partition's internal
    order in np.quantile too, so the sign of a zero is not compared (adding
    0.0 turns -0.0 into 0.0 and leaves every other value as it is)."""
    got, want = _quantiles(x, FIT_QUANTILES), np.quantile(x, FIT_QUANTILES)
    return (got + 0.0).tobytes() == (want + 0.0).tobytes()


class TestExactQuantiles:
    @given(quantile_samples())
    def test_bytes_of_numpys_quantile(self, x):
        assert _same_quantiles(x)

    def test_signed_zero_ties_give_equal_values(self, rng):
        x = rng.choice(np.array([0.0, -0.0, 1.0]), 3 * EM_CHUNK_SAMPLES)
        assert np.array_equal(_quantiles(x, FIT_QUANTILES), np.quantile(x, FIT_QUANTILES))
        assert _same_quantiles(x)

    @pytest.mark.parametrize(
        "x",
        [
            np.full(EM_CHUNK_SAMPLES + 7, 0.7),
            np.array([-1.7976931348623157e308, 0.0, 1.7976931348623157e308]),
            np.array([0.0, 5e-324, 1e-323, 5e-324]),
            np.repeat([1.0, 2.0, 3.0], EM_CHUNK_SAMPLES),
        ],
        ids=["all-equal", "widest-span", "subnormal-span", "three-values"],
    )
    def test_edge_vectors(self, x):
        assert _quantiles(x, FIT_QUANTILES).tobytes() == np.quantile(x, FIT_QUANTILES).tobytes()

    def test_reads_the_vector_without_writing_or_copying_it(self, rng):
        x = _draw_mixture(rng, 200_000)
        before = x.copy()
        tracemalloc.start()
        try:
            _quantiles(x, FIT_QUANTILES)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(x, before)
        assert peak <= 0.25 * x.nbytes, f"peak {peak / x.nbytes:.2f} sample buffers"


class TestSampling:
    def test_under_cap_returns_all_masked_values(self, rng):
        values = rng.uniform(0.2, 2.0, 300)
        assert sample_masked_intensities(values, max_samples=300) is values
        assert sample_masked_intensities(values, max_samples=10**6) is values

    def test_over_cap_subsamples_deterministically(self, rng):
        values = rng.uniform(0.2, 2.0, 300)
        a = sample_masked_intensities(values, max_samples=50)
        b = sample_masked_intensities(values.copy(), max_samples=50)
        assert a.size == 50
        assert np.array_equal(a, b)
        # a subset of the values, in their order
        pos = np.flatnonzero(np.isin(values, a))
        assert pos.size == 50
        assert np.array_equal(values[pos], a)

    def test_bad_cap_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_masked_intensities(rng.uniform(size=10), max_samples=0)


THREE_TEXT = (
    "K=3\n"
    "weight_0=0.25\nmean_0=0.5\nstd_0=0.1\n"
    "weight_1=0.5\nmean_1=1\nstd_1=0.2\n"
    "weight_2=0.25\nmean_2=1.5\nstd_2=0.3\n"
)


class TestModelText:
    def test_round_trip(self, rng):
        x = _draw_mixture(rng, 5_000)
        model = fit_em(x)
        back = model_from_text(model_to_text(model))
        assert back.weights == model.weights
        assert back.means == model.means
        assert back.stds == model.stds

    def test_file_round_trip(self, tmp_path):
        model = TissueMixtureModel((0.25, 0.5, 0.25), (0.5, 1.0, 1.5), (0.1, 0.2, 0.3))
        p = tmp_path / "model.txt"
        save_model(model, p)
        assert load_model(p) == model

    def test_comments_and_blank_lines_ignored(self):
        model = model_from_text("# fitted on case 7\n\n" + THREE_TEXT)
        assert model == TissueMixtureModel((0.25, 0.5, 0.25), (0.5, 1.0, 1.5), (0.1, 0.2, 0.3))

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            model_from_text(THREE_TEXT.replace("std_2=0.3\n", ""))

    def test_stray_key_rejected(self):
        with pytest.raises(ValueError, match="stray"):
            model_from_text(THREE_TEXT + "std_3=1\n")

    def test_missing_k_rejected(self):
        with pytest.raises(ValueError, match="K"):
            model_from_text("weight_0=1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            model_from_text(THREE_TEXT.replace("weight_0=0.25", "weight_0 0.25"))

    @pytest.mark.parametrize("line", ["mean_0=9", "K=1"])
    def test_duplicate_key_rejected(self, line):
        key = line.split("=")[0]
        with pytest.raises(ValueError, match=f"duplicate model key '{key}'"):
            model_from_text(f"{THREE_TEXT}{line}\n")

    def test_a_two_component_text_is_rejected(self, tmp_path):
        text = "K=2\nweight_0=0.5\nmean_0=0\nstd_0=1\nweight_1=0.5\nmean_1=1\nstd_1=1\n"
        with pytest.raises(ValueError, match="per tissue"):
            model_from_text(text)
        p = tmp_path / "two.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match="per tissue"):
            load_model(p)
