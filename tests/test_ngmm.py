import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from fvfseg.ngmm import (
    TissueMixtureModel,
    _log_weighted_densities,
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

from .oracles import mp_gaussian_pdf, mp_mixture_density, rel_close

UNIT = (1.0, 1.0, 1.0)


def _volume_with_mask(rng, lo=10.0, hi=200.0):
    data = rng.uniform(lo, hi, size=(8, 8, 8))
    mask = rng.random((8, 8, 8)) > 0.4
    mask[3:5, 3:5, 3:5] = True  # keep it nonempty
    return ScalarVolume(data, UNIT), BinaryMask(mask, UNIT)


class TestNormalization:
    def test_masked_mean_becomes_one(self, rng):
        vol, mask = _volume_with_mask(rng)
        out, record = normalize_intensity(vol, mask)
        assert out.data[mask.data].mean() == pytest.approx(1.0, abs=1e-12)
        assert record.mean == pytest.approx(vol.data[mask.data].mean())

    def test_scale_invariance(self, rng):
        vol, mask = _volume_with_mask(rng)
        scaled = ScalarVolume(vol.data * 7.5, UNIT)
        a, _ = normalize_intensity(vol, mask)
        b, _ = normalize_intensity(scaled, mask)
        assert np.allclose(a.data, b.data, rtol=1e-12)

    def test_outside_mask_scaled_too(self, rng):
        vol, mask = _volume_with_mask(rng)
        out, record = normalize_intensity(vol, mask)
        assert np.allclose(out.data, vol.data / record.mean)

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
        log_terms = _log_weighted_densities(
            np.array([x]), np.array(model.weights), np.array(model.means), np.array(model.stds)
        )
        got = float(np.exp(logsumexp(log_terms, axis=1))[0])
        want = mp_mixture_density(model.weights, model.means, model.stds, x)
        assert rel_close(got, want)


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TissueMixtureModel((0.5, 0.6), (0.0, 1.0), (0.1, 0.1))

    def test_means_must_be_sorted(self):
        with pytest.raises(ValueError, match="ascending"):
            TissueMixtureModel((0.5, 0.5), (1.0, 0.0), (0.1, 0.1))

    def test_std_floor_enforced(self):
        with pytest.raises(ValueError, match="floor"):
            TissueMixtureModel((1.0,), (0.0,), (1e-9,))

    def test_labels_only_for_three_components(self):
        three = TissueMixtureModel((0.3, 0.3, 0.4), (0.0, 1.0, 2.0), (0.1, 0.1, 0.1))
        two = TissueMixtureModel((0.5, 0.5), (0.0, 1.0), (0.1, 0.1))
        assert three.labels == ("CSF", "GM", "WM")
        assert two.labels is None


def _draw_mixture(rng, n):
    comps = rng.choice(3, size=n, p=[0.2, 0.5, 0.3])
    means = np.array([0.6, 1.0, 1.3])[comps]
    stds = np.array([0.08, 0.10, 0.12])[comps]
    return rng.normal(means, stds)


class TestFitEm:
    def test_recovers_well_separated_components(self, rng):
        x = _draw_mixture(rng, 60_000)
        model = fit_em(x, k=3)
        assert np.allclose(model.means, (0.6, 1.0, 1.3), atol=0.02)
        assert np.allclose(model.weights, (0.2, 0.5, 0.3), atol=0.02)
        assert np.allclose(model.stds, (0.08, 0.10, 0.12), atol=0.03)

    def test_permutation_invariance_is_bitwise(self, rng):
        x = _draw_mixture(rng, 5_000)
        shuffled = x.copy()
        rng.shuffle(shuffled)
        a = fit_em(x, k=3)
        b = fit_em(shuffled, k=3)
        assert a.means == b.means
        assert a.weights == b.weights
        assert a.stds == b.stds
        assert a.loglik_trace == b.loglik_trace

    def test_deterministic_across_calls(self, rng):
        x = _draw_mixture(rng, 5_000)
        assert fit_em(x, k=3) == fit_em(x, k=3)

    def test_loglik_trace_monotone(self, rng):
        x = _draw_mixture(rng, 5_000)
        trace = fit_em(x, k=3).loglik_trace
        assert len(trace) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))

    def test_single_component_matches_sample_moments(self, rng):
        x = rng.normal(2.0, 0.5, size=10_000)
        model = fit_em(x, k=1)
        assert model.weights == (1.0,)
        assert model.means[0] == pytest.approx(x.mean(), abs=1e-9)
        assert model.stds[0] == pytest.approx(x.std(), abs=1e-6)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            fit_em([1.0, 2.0], k=3)

    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            fit_em([1.0, np.nan, 2.0, 3.0], k=2)


class TestSampling:
    def test_under_cap_returns_all_masked_values(self, rng):
        vol, mask = _volume_with_mask(rng)
        got = sample_masked_intensities(vol, mask, max_samples=10**6)
        assert np.array_equal(got, vol.data[mask.data])

    def test_over_cap_subsamples_deterministically(self, rng):
        vol, mask = _volume_with_mask(rng)
        a = sample_masked_intensities(vol, mask, max_samples=50, seed=3)
        b = sample_masked_intensities(vol, mask, max_samples=50, seed=3)
        assert a.size == 50
        assert np.array_equal(a, b)
        # subset of the masked values, in original order
        masked = vol.data[mask.data]
        pos = np.searchsorted(np.sort(masked), a)
        assert np.isin(a, masked).all()
        assert pos.size == 50

    def test_bad_cap_rejected(self, rng):
        vol, mask = _volume_with_mask(rng)
        with pytest.raises(ValueError):
            sample_masked_intensities(vol, mask, max_samples=0)


class TestModelText:
    def test_round_trip(self, rng):
        x = _draw_mixture(rng, 5_000)
        model = fit_em(x, k=3)
        back = model_from_text(model_to_text(model))
        assert back.weights == model.weights
        assert back.means == model.means
        assert back.stds == model.stds

    def test_file_round_trip(self, tmp_path):
        model = TissueMixtureModel((0.25, 0.75), (0.5, 1.5), (0.1, 0.2))
        p = tmp_path / "model.txt"
        save_model(model, p)
        assert load_model(p) == model

    def test_comments_and_blank_lines_ignored(self):
        text = "# fitted on case 7\n\nK=1\nweight_0=1\nmean_0=0\nstd_0=1\n"
        model = model_from_text(text)
        assert model.n_components == 1

    def test_missing_key_rejected(self):
        text = "K=1\nweight_0=1\nmean_0=0\n"
        with pytest.raises(ValueError, match="missing"):
            model_from_text(text)

    def test_stray_key_rejected(self):
        text = "K=1\nweight_0=1\nmean_0=0\nstd_0=1\nstd_1=1\n"
        with pytest.raises(ValueError, match="stray"):
            model_from_text(text)

    def test_missing_k_rejected(self):
        with pytest.raises(ValueError, match="K"):
            model_from_text("weight_0=1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            model_from_text("K=1\nweight_0 1\nmean_0=0\nstd_0=1\n")
