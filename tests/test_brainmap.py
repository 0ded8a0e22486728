import inspect
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fvfseg import brainmap, volume
from fvfseg.brainmap import (
    ProbabilisticAtlas,
    build_gbbm,
    cc_to_cm,
    pearson_cc,
    posterior_triple,
    spatial_prior,
)
from fvfseg.errors import GridMismatchError
from fvfseg.ngmm import TissueMixtureModel
from fvfseg.volume import BinaryMask, ScalarVolume, mask_order

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


def _brain_index(atlas):
    """The flat indices of the atlas's brain voxels in the mask's memory
    order, and that order."""
    order = mask_order(atlas.brain_mask)
    return np.flatnonzero(atlas.brain_mask.data.ravel(order)), order


def _brain_values(data, atlas):
    """The brain voxels of a volume on the atlas grid, as build_gbbm reads them."""
    index, order = _brain_index(atlas)
    return np.asarray(data).ravel(order)[index]


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


def _atlas_of(csf, gm, wm):
    """An atlas of three probability maps on their grid, all of it brain."""
    dims = csf.shape
    return ProbabilisticAtlas(
        template=ScalarVolume(np.ones(dims), UNIT),
        prob_csf=ScalarVolume(csf, UNIT),
        prob_gm=ScalarVolume(gm, UNIT),
        prob_wm=ScalarVolume(wm, UNIT),
        brain_mask=BinaryMask(np.ones(dims, dtype=bool), UNIT),
    )


class TestAtlasCheckInChunks:
    """The unit-interval and unit-sum checks, the sum taken a chunk of
    _SUM_CHUNK_VOXELS voxels at a time in the maps' memory order."""

    # more than one chunk: the last holds 68921 - 65536 voxels
    DIMS = (41, 41, 41)

    def _maps(self, order):
        base = np.full(self.DIMS, 0.3)
        return [np.array(base, order=order) for _ in range(3)]

    @pytest.mark.parametrize("order", "CF")
    def test_values_at_the_tolerance_are_accepted(self, order):
        # slack above 1 for float32 rounding, none below 0
        csf, gm, wm = self._maps(order)
        csf[0, 0, 0] = 0.0
        gm[-1, -1, -1] = 1 + 1e-6
        wm[-1, -1, -1] = csf[-1, -1, -1] = 0.0
        _atlas_of(csf, gm, wm)
        csf[0, 0, 0] = -1e-6
        with pytest.raises(ValueError, match=r"prob_csf has values outside \[0, 1\]"):
            _atlas_of(csf, gm, wm)

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("where", ["last", "boundary-before", "boundary-after"])
    def test_a_sum_above_one_in_one_chunk_is_rejected(self, order, where):
        assert np.prod(self.DIMS) > brainmap._SUM_CHUNK_VOXELS
        csf, gm, wm = self._maps(order)
        flat = {
            "last": np.prod(self.DIMS) - 1,
            "boundary-before": brainmap._SUM_CHUNK_VOXELS - 1,
            "boundary-after": brainmap._SUM_CHUNK_VOXELS,
        }[where]
        # the flat index in the maps' memory order
        voxel = np.unravel_index(flat, self.DIMS, order=order)
        wm[voxel] = 0.4 + 2e-6
        with pytest.raises(ValueError, match="sum to more than 1"):
            _atlas_of(csf, gm, wm)
        wm[voxel] = 0.4
        _atlas_of(csf, gm, wm)

    def test_mixed_memory_orders_sum_the_same_voxels(self):
        csf, gm, wm = self._maps("C")
        gm = np.asfortranarray(gm)
        wm[5, 6, 7] = 0.4 + 2e-6
        with pytest.raises(ValueError, match="sum to more than 1"):
            _atlas_of(csf, gm, wm)

    def test_the_first_faulty_map_is_named(self):
        csf, gm, wm = self._maps("F")
        gm[1, 2, 3] = -0.01
        wm[3, 2, 1] = 1.5
        with pytest.raises(ValueError, match="prob_gm has values outside"):
            _atlas_of(csf, gm, wm)
        # a range fault comes before a sum fault wherever they sit
        gm[1, 2, 3] = 0.3
        csf[0, 0, 0] = 0.9
        with pytest.raises(ValueError, match="prob_wm has values outside"):
            _atlas_of(csf, gm, wm)


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
        prior = spatial_prior(np.stack([atlas.prob_csf.data, atlas.prob_gm.data, atlas.prob_wm.data]))
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
    """omega, the map's scale, is a constant of the module, not a parameter."""

    def test_default_omega(self):
        assert brainmap.OMEGA == 255.0
        assert "omega" not in inspect.signature(build_gbbm).parameters


class TestBuildGbbm:
    def test_matches_per_voxel_scalar_chain(self, rng):
        """Dual route: the vectorized map must equal the voxel-by-voxel
        composition of the 50-digit reference formulas."""
        atlas = _random_atlas(rng, dims=(4, 5, 3))
        patient = ScalarVolume(rng.uniform(0.3, 1.8, atlas.dims), UNIT)
        got = build_gbbm(_brain_values(patient.data, atlas), atlas, MODEL)
        omega = 255.0
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
        out = build_gbbm(_brain_values(rng.uniform(0.3, 1.8, atlas.dims), atlas), atlas, MODEL)
        assert (out.data[~atlas.brain_mask.data] == 0.0).all()

    def test_value_range(self, rng):
        atlas = _random_atlas(rng)
        out = build_gbbm(_brain_values(rng.uniform(0.3, 1.8, atlas.dims), atlas), atlas, MODEL)
        assert out.data.min() >= 0.0
        assert out.data.max() <= 255.0

    def test_diagnostics_counts(self, rng):
        atlas = _random_atlas(rng)
        data = rng.uniform(0.3, 1.8, atlas.dims)
        data[2, 2, 2] = 1e6  # underflows every likelihood
        diag = {}
        build_gbbm(_brain_values(data, atlas), atlas, MODEL, diagnostics=diag)
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

        masks = {}
        prior = spatial_prior(np.stack([atlas.prob_csf.data, atlas.prob_gm.data, atlas.prob_wm.data]))
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
            values = _brain_values(np.asarray(data, order=order), ordered)
            got = build_gbbm(values, ordered, MODEL, diagnostics=diag)
            assert np.array_equal(got.data, expected)
            assert diag == counts
            # degenerate voxels of each kind lie on both sides of chunk boundaries
            position = np.cumsum(brain.ravel(order)) - 1  # rank among brain voxels
            for mask in masks.values():
                chunks = np.unique(position[(mask & brain).ravel(order)] // chunk)
                assert chunks.size >= 3 and (np.diff(chunks) == 1).any()

    def test_peak_memory_bounded_by_chunks(self, rng):
        atlas = _random_atlas(rng, dims=(48, 48, 128))
        values = _brain_values(rng.uniform(0.3, 1.8, atlas.dims), atlas)
        grid_bytes = atlas.template.data.size * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_gbbm(values, atlas, MODEL, diagnostics={})
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the output grid, the brain voxels' indices and the temporaries of
        # one chunk; one pass over the whole volume takes about 18 grids
        assert peak <= 4 * grid_bytes, f"peak {peak / grid_bytes:.1f} float64 grids"

    def test_rejects_grid_mismatch(self, rng):
        # the brain voxels of a scan on another grid: a vector of another length
        atlas = _random_atlas(rng)
        other = _random_atlas(rng, dims=(6, 6, 6))
        with pytest.raises(ValueError, match="brain-voxel values"):
            build_gbbm(_brain_values(np.ones(other.dims), other), atlas, MODEL)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_rejects_a_vector_of_the_wrong_length(self, delta, rng):
        atlas = _random_atlas(rng)
        values = np.ones(atlas.brain_mask.count() + delta)
        with pytest.raises(ValueError, match="brain-voxel values"):
            build_gbbm(values, atlas, MODEL)
        with pytest.raises(ValueError, match="brain-voxel values"):
            build_gbbm(values.reshape(1, -1), atlas, MODEL)


class TestGbbmSplit:
    """build_gbbm's brain voxels cut into contiguous parts run on threads:
    the bytes and counts of the one-part run, whatever the cuts."""

    DIMS = (6, 5, 37)

    def _case(self, rng, monkeypatch):
        """An atlas and values with degenerate Bayes and CC voxels in every
        part and on both sides of every cut, for 2, 3 and 5 parts of
        chunks of 7 voxels."""
        monkeypatch.setattr(brainmap, "GBBM_CHUNK_VOXELS", 7)
        atlas = _random_atlas(rng, dims=self.DIMS)
        index, order = _brain_index(atlas)
        n = index.size
        cuts = {0, n - 1}
        for workers in (2, 3, 5):
            for lo, hi in self._parts(monkeypatch, workers, n):
                cuts |= {lo, hi - 1}
        bayes = sorted(cuts | set(range(0, n, 9)))
        cc = sorted({c + 1 for c in cuts if c + 1 < n} | {c - 1 for c in cuts if c > 0}
                    | set(range(4, n, 11)))
        for m in (atlas.prob_csf, atlas.prob_gm, atlas.prob_wm):
            m.data.ravel(order)[index[cc]] = 0.25  # uninformative prior: degenerate CC
        values = _brain_values(rng.uniform(0.3, 1.8, atlas.dims), atlas)
        values[bayes] = 1e6  # every likelihood underflows: degenerate Bayes
        return atlas, values

    @staticmethod
    def _parts(monkeypatch, workers, n):
        with monkeypatch.context() as patch:
            patch.setattr(volume, "WORKERS", workers)
            patch.setattr(volume, "PART_WORK", 1)
            return volume.split_planes(0, n, brainmap.GBBM_PASSES)

    @staticmethod
    def _spy_parts(monkeypatch):
        calls = []

        def spy(fn, parts):
            calls.append([p for p, _ in parts])
            return volume.run_parts(fn, parts)

        monkeypatch.setattr(brainmap, "run_parts", spy)
        return calls

    def _run(self, atlas, values):
        diag = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = build_gbbm(values, atlas, MODEL, diagnostics=diag)
        return out.data.tobytes(), diag

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_parts_give_the_bytes_and_counts_of_one_part(self, workers, rng, monkeypatch):
        atlas, values = self._case(rng, monkeypatch)
        calls = self._spy_parts(monkeypatch)
        monkeypatch.setattr(volume, "WORKERS", 1)
        serial, serial_diag = self._run(atlas, values)
        assert serial_diag["degenerate_bayes_voxels"] > 0
        assert serial_diag["degenerate_cc_voxels"] > 0
        monkeypatch.setattr(volume, "WORKERS", workers)
        monkeypatch.setattr(volume, "PART_WORK", 1)
        split, split_diag = self._run(atlas, values)
        assert [len(c) for c in calls] == [1, workers]
        assert split == serial
        assert split_diag == serial_diag

    def test_parts_lose_no_voxel_under_fast_thread_switches(self, rng, monkeypatch):
        # more parts than CPUs and the interpreter lock handed over every
        # microsecond: a part writing another's voxels, or a count summed
        # before its part finished, changes the result
        atlas, values = self._case(rng, monkeypatch)
        monkeypatch.setattr(volume, "WORKERS", 1)
        serial = self._run(atlas, values)
        monkeypatch.setattr(volume, "WORKERS", 7)
        monkeypatch.setattr(volume, "PART_WORK", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert self._run(atlas, values) == serial
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_raise_before_any_part_runs(self, bad, rng, monkeypatch):
        atlas = _random_atlas(rng, dims=self.DIMS)
        values = _brain_values(rng.uniform(0.3, 1.8, atlas.dims), atlas)
        values[-1] = bad
        calls = self._spy_parts(monkeypatch)
        monkeypatch.setattr(volume, "WORKERS", 3)
        monkeypatch.setattr(volume, "PART_WORK", 1)
        with pytest.raises(ValueError, match="intensity must be finite"):
            build_gbbm(values, atlas, MODEL)
        assert calls == []

    def test_a_128_cubed_head_splits_and_a_64_cubed_head_does_not(self, monkeypatch):
        # the brain-voxel counts of the phantom heads at 128^3 and 64^3
        monkeypatch.setattr(volume, "WORKERS", 2)
        assert len(volume.split_planes(0, 748_296, brainmap.GBBM_PASSES)) == 2
        assert len(volume.split_planes(0, 93_656, brainmap.GBBM_PASSES)) == 1
