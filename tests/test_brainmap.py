import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fvfseg import brainmap
from fvfseg.brainmap import (
    GbbmParams,
    ProbabilisticAtlas,
    build_gbbm,
    cc_to_cm,
    pearson_cc,
    posterior_triple,
    spatial_prior,
)
from fvfseg.errors import GridMismatchError
from fvfseg.ngmm import TissueMixtureModel
from fvfseg.volume import BinaryMask, ScalarVolume

from .oracles import (
    mp_cc_to_cm,
    mp_pearson,
    mp_posterior,
    mp_spatial_prior,
    rel_close,
)

UNIT = (1.0, 1.0, 1.0)

MODEL = TissueMixtureModel(
    weights=(0.2, 0.5, 0.3), means=(0.6, 1.0, 1.3), stds=(0.08, 0.10, 0.12)
)


def _random_atlas(rng, dims=(5, 5, 5)):
    raw = rng.random((3, *dims))
    raw /= raw.sum(axis=0) * 1.05  # leave headroom so the sum stays below 1
    template = ScalarVolume(rng.uniform(0.4, 1.6, dims), UNIT)
    brain = np.ones(dims, dtype=bool)
    brain[0, :, :] = False
    return ProbabilisticAtlas(
        template=template,
        prob_csf=ScalarVolume(raw[0], UNIT),
        prob_gm=ScalarVolume(raw[1], UNIT),
        prob_wm=ScalarVolume(raw[2], UNIT),
        brain_mask=BinaryMask(brain, UNIT),
    )


class TestAtlasValidation:
    def test_accepts_consistent_maps(self, rng):
        _random_atlas(rng)

    def test_rejects_sum_above_one(self, rng):
        dims = (4, 4, 4)
        half = ScalarVolume(np.full(dims, 0.4), UNIT)
        with pytest.raises(ValueError, match="sum"):
            ProbabilisticAtlas(
                template=ScalarVolume(np.ones(dims), UNIT),
                prob_csf=half,
                prob_gm=half,
                prob_wm=half,
                brain_mask=BinaryMask(np.ones(dims, dtype=bool), UNIT),
            )

    def test_rejects_negative_probability(self, rng):
        dims = (4, 4, 4)
        bad = np.zeros(dims)
        bad[1, 1, 1] = -0.01
        with pytest.raises(ValueError, match="outside"):
            ProbabilisticAtlas(
                template=ScalarVolume(np.ones(dims), UNIT),
                prob_csf=ScalarVolume(bad, UNIT),
                prob_gm=ScalarVolume(np.zeros(dims), UNIT),
                prob_wm=ScalarVolume(np.zeros(dims), UNIT),
                brain_mask=BinaryMask(np.ones(dims, dtype=bool), UNIT),
            )

    def test_rejects_grid_mismatch(self, rng):
        with pytest.raises(GridMismatchError):
            ProbabilisticAtlas(
                template=ScalarVolume(np.ones((4, 4, 4)), UNIT),
                prob_csf=ScalarVolume(np.zeros((4, 4, 5)), UNIT),
                prob_gm=ScalarVolume(np.zeros((4, 4, 4)), UNIT),
                prob_wm=ScalarVolume(np.zeros((4, 4, 4)), UNIT),
                brain_mask=BinaryMask(np.ones((4, 4, 4), dtype=bool), UNIT),
            )

    def test_tolerates_float32_rounding(self):
        dims = (3, 3, 3)
        third = np.full(dims, np.float32(1.0 / 3.0), dtype=np.float32)
        # three float32 thirds sum a hair above 1; must still be accepted
        ProbabilisticAtlas(
            template=ScalarVolume(np.ones(dims), UNIT),
            prob_csf=ScalarVolume(third, UNIT),
            prob_gm=ScalarVolume(third, UNIT),
            prob_wm=ScalarVolume(third, UNIT),
            brain_mask=BinaryMask(np.ones(dims, dtype=bool), UNIT),
        )


class TestSpatialPrior:
    def test_normalizes_against_oracle(self, rng):
        atlas = _random_atlas(rng)
        for _ in range(25):
            v = tuple(int(rng.integers(0, 5)) for _ in range(3))
            xi = (
                atlas.prob_csf.data[v],
                atlas.prob_gm.data[v],
                atlas.prob_wm.data[v],
            )
            got = spatial_prior(xi)
            want = mp_spatial_prior(xi)
            assert all(rel_close(g, w) for g, w in zip(got, want))
            assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)

    def test_zero_sum_gives_thirds(self):
        dims = (3, 3, 3)
        zero = ScalarVolume(np.zeros(dims), UNIT)
        atlas = ProbabilisticAtlas(
            template=ScalarVolume(np.ones(dims), UNIT),
            prob_csf=zero,
            prob_gm=zero,
            prob_wm=zero,
            brain_mask=BinaryMask(np.ones(dims, dtype=bool), UNIT),
        )
        prior = spatial_prior(atlas.probability_stack())
        assert tuple(prior[:, 1, 1, 1]) == (1 / 3, 1 / 3, 1 / 3)


class TestPosterior:
    @given(
        st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
        st.floats(0.2, 2.0),
    )
    def test_matches_high_precision_oracle(self, prior, x):
        got = posterior_triple(MODEL, prior, x)
        want = mp_posterior(prior, MODEL.means, MODEL.stds, x)
        assert all(rel_close(g, w) for g, w in zip(got, want))

    def test_degenerate_returns_prior(self):
        prior = (0.2, 0.3, 0.5)
        # 1e6 is thousands of sigmas from every component: all likelihoods underflow
        assert tuple(posterior_triple(MODEL, prior, 1e6)) == prior

    def test_sums_to_one_when_informative(self):
        got = posterior_triple(MODEL, (0.1, 0.6, 0.3), 1.05)
        assert math.fsum(got) == pytest.approx(1.0, abs=1e-12)

    def test_zero_prior_component_stays_zero(self):
        got = posterior_triple(MODEL, (0.0, 0.5, 0.5), 1.0)
        assert got[0] == 0.0

    def test_rejects_wrong_k(self):
        two = TissueMixtureModel((0.5, 0.5), (0.0, 1.0), (0.1, 0.1))
        with pytest.raises(ValueError, match="3-component"):
            posterior_triple(two, (1, 0, 0), 0.5)

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            posterior_triple(MODEL, (0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            posterior_triple(MODEL, (-0.1, 0.6, 0.5), 1.0)

    def test_rejects_nonfinite_intensity(self):
        with pytest.raises(ValueError):
            posterior_triple(MODEL, (1, 0, 0), float("nan"))


class TestPearson:
    @given(
        st.tuples(*(st.floats(-2, 2) for _ in range(3))),
        st.tuples(*(st.floats(-2, 2) for _ in range(3))),
    )
    def test_matches_high_precision_oracle(self, a, b):
        assert rel_close(pearson_cc(a, b), mp_pearson(a, b), tol=1e-9)

    def test_perfect_correlation(self):
        assert pearson_cc((0.1, 0.5, 0.9), (0.2, 1.0, 1.8)) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson_cc((0.9, 0.5, 0.1), (0.2, 1.0, 1.8)) == pytest.approx(-1.0)

    def test_constant_vector_maps_to_zero(self):
        assert pearson_cc((0.5, 0.5, 0.5), (0.1, 0.2, 0.7)) == 0.0
        assert pearson_cc((0.1, 0.2, 0.7), (1 / 3, 1 / 3, 1 / 3)) == 0.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            pearson_cc((1.0, 2.0), (1.0, 2.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            pearson_cc((1.0, np.inf, 2.0), (0.0, 1.0, 2.0))


class TestConflictMapping:
    @given(st.floats(-1, 1))
    def test_matches_oracle(self, cc):
        assert rel_close(cc_to_cm(cc), mp_cc_to_cm(cc))

    def test_discontinuity_at_zero(self):
        eps = 1e-12
        assert cc_to_cm(0.0) == 0.0
        assert cc_to_cm(eps) == pytest.approx(1.0, abs=1e-9)
        assert cc_to_cm(-eps) == pytest.approx(eps)
        # the jump across zero is essentially the full unit range
        assert cc_to_cm(eps) - cc_to_cm(0.0) > 0.999

    def test_endpoints(self):
        assert cc_to_cm(1.0) == 0.0
        assert cc_to_cm(-1.0) == 1.0

    @pytest.mark.parametrize("bad", [1.5, -1.5, float("nan"), float("inf")])
    def test_domain_enforced(self, bad):
        with pytest.raises(ValueError):
            cc_to_cm(bad)


class TestGbbmParams:
    def test_default_omega(self):
        assert GbbmParams().omega == 255.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_omega(self, bad):
        with pytest.raises(ValueError):
            GbbmParams(omega=bad)


class TestBuildGbbm:
    def test_matches_per_voxel_scalar_chain(self, rng):
        """Dual route: the vectorized map must equal the voxel-by-voxel
        composition of the 50-digit reference formulas."""
        atlas = _random_atlas(rng, dims=(4, 5, 3))
        patient = ScalarVolume(rng.uniform(0.3, 1.8, atlas.dims), UNIT)
        got = build_gbbm(patient, atlas, MODEL)
        omega = GbbmParams().omega
        for i in range(atlas.dims[0]):
            for j in range(atlas.dims[1]):
                for k in range(atlas.dims[2]):
                    if not atlas.brain_mask.data[i, j, k]:
                        assert got.data[i, j, k] == 0.0
                        continue
                    prior = mp_spatial_prior(
                        [p.data[i, j, k] for p in (atlas.prob_csf, atlas.prob_gm, atlas.prob_wm)]
                    )
                    post = mp_posterior(
                        prior, MODEL.means, MODEL.stds, patient.data[i, j, k]
                    )
                    want = omega * mp_cc_to_cm(mp_pearson(post, prior))
                    assert got.data[i, j, k] == pytest.approx(float(want), abs=1e-9)

    def test_zero_outside_brain(self, rng):
        atlas = _random_atlas(rng)
        patient = ScalarVolume(rng.uniform(0.3, 1.8, atlas.dims), UNIT)
        out = build_gbbm(patient, atlas, MODEL)
        assert (out.data[~atlas.brain_mask.data] == 0.0).all()

    def test_omega_scales_linearly(self, rng):
        atlas = _random_atlas(rng)
        patient = ScalarVolume(rng.uniform(0.3, 1.8, atlas.dims), UNIT)
        a = build_gbbm(patient, atlas, MODEL, GbbmParams(omega=1.0))
        b = build_gbbm(patient, atlas, MODEL, GbbmParams(omega=100.0))
        assert np.allclose(b.data, 100.0 * a.data, rtol=1e-12)

    def test_value_range(self, rng):
        atlas = _random_atlas(rng)
        patient = ScalarVolume(rng.uniform(0.3, 1.8, atlas.dims), UNIT)
        out = build_gbbm(patient, atlas, MODEL)
        assert out.data.min() >= 0.0
        assert out.data.max() <= 255.0

    def test_diagnostics_counts(self, rng):
        atlas = _random_atlas(rng)
        data = rng.uniform(0.3, 1.8, atlas.dims)
        data[2, 2, 2] = 1e6  # underflows every likelihood
        diag = {}
        build_gbbm(ScalarVolume(data, UNIT), atlas, MODEL, diagnostics=diag)
        assert diag["degenerate_bayes_voxels"] >= 1
        assert diag["degenerate_cc_voxels"] >= 0

    def test_chunks_match_one_pass_over_the_volume(self, rng, monkeypatch):
        chunk = 13
        monkeypatch.setattr(brainmap, "GBBM_CHUNK_VOXELS", chunk)
        atlas = _random_atlas(rng, dims=(6, 5, 37))
        for p in (atlas.prob_csf, atlas.prob_gm, atlas.prob_wm):
            p.data[3, :, 5:30] = 0.0  # uninformative prior: degenerate CC
        data = rng.uniform(0.3, 1.8, atlas.dims)
        data[1:4, 2, ::3] = 1e6  # every likelihood underflows: degenerate Bayes
        patient = ScalarVolume(data, UNIT)

        masks = {}
        prior = spatial_prior(atlas.probability_stack())
        cc = pearson_cc(posterior_triple(MODEL, prior, data, masks), prior, masks)
        brain = atlas.brain_mask.data
        expected = np.where(brain, 255.0 * cc_to_cm(cc), 0.0)
        counts = {
            "degenerate_bayes_voxels": int((masks["degenerate_bayes"] & brain).sum()),
            "degenerate_cc_voxels": int((masks["degenerate_cc"] & brain).sum()),
        }
        assert counts["degenerate_bayes_voxels"] > 0 and counts["degenerate_cc_voxels"] > 0

        # C-ordered arrays, and Fortran-ordered ones as read from MVOL files
        for order in "CF":

            def laid(v):
                return type(v)(np.asarray(v.data, order=order), v.spacing)

            fields = ("template", "prob_csf", "prob_gm", "prob_wm", "brain_mask")
            ordered = ProbabilisticAtlas(*(laid(getattr(atlas, f)) for f in fields))
            diag = {}
            got = build_gbbm(laid(patient), ordered, MODEL, diagnostics=diag)
            assert np.array_equal(got.data, expected)
            assert diag == counts
            # degenerate voxels of each kind lie on both sides of chunk boundaries
            position = np.cumsum(brain.ravel(order)) - 1  # rank among brain voxels
            for mask in masks.values():
                chunks = np.unique(position[(mask & brain).ravel(order)] // chunk)
                assert chunks.size >= 3 and (np.diff(chunks) == 1).any()

    def test_peak_memory_bounded_by_chunks(self, rng):
        atlas = _random_atlas(rng, dims=(48, 48, 128))
        patient = ScalarVolume(rng.uniform(0.3, 1.8, atlas.dims), UNIT)
        grid_bytes = patient.data.size * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_gbbm(patient, atlas, MODEL, diagnostics={})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the output grid, the brain voxels' indices and the temporaries of
        # one chunk; one pass over the whole volume takes about 18 grids
        assert peak <= 4 * grid_bytes, f"peak {peak / grid_bytes:.1f} float64 grids"

    def test_rejects_wrong_model_k(self, rng):
        atlas = _random_atlas(rng)
        patient = ScalarVolume(np.ones(atlas.dims), UNIT)
        two = TissueMixtureModel((0.5, 0.5), (0.0, 1.0), (0.1, 0.1))
        with pytest.raises(ValueError, match="3-component"):
            build_gbbm(patient, atlas, two)

    def test_rejects_grid_mismatch(self, rng):
        atlas = _random_atlas(rng)
        patient = ScalarVolume(np.ones((6, 6, 6)), UNIT)
        with pytest.raises(GridMismatchError):
            build_gbbm(patient, atlas, MODEL)
