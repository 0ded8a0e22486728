import numpy as np
import pytest

from fvfseg.candidate import (
    CandidateParams,
    CandidateRegion,
    binarize_gbbm,
    extract_candidate,
    mask_centroid,
)
from fvfseg.errors import GridMismatchError, NoCandidateError
from fvfseg.volume import (
    BinaryMask,
    ScalarVolume,
    largest_component,
    mask_boundary_strip,
    morphology,
)

UNIT = (1.0, 1.0, 1.0)
DIMS = (24, 24, 24)


def _brain(dims=DIMS):
    return BinaryMask(np.ones(dims, dtype=bool), UNIT)


def _map_with_blob(value=200.0, lo=8, hi=16, dims=DIMS):
    data = np.zeros(dims)
    data[lo:hi, lo:hi, lo:hi] = value
    return ScalarVolume(data, UNIT)


class TestBinarize:
    def test_threshold_is_strict(self):
        data = np.zeros((3, 3, 3))
        data[0, 0, 0] = 153.0
        data[1, 1, 1] = 153.0000001
        mask = binarize_gbbm(ScalarVolume(data, UNIT), 153.0)
        assert not mask.data[0, 0, 0]
        assert mask.data[1, 1, 1]

    def test_rejects_bad_psi(self):
        vol = ScalarVolume(np.zeros((3, 3, 3)), UNIT)
        with pytest.raises(ValueError):
            binarize_gbbm(vol, -1.0)
        with pytest.raises(ValueError):
            binarize_gbbm(vol, float("nan"))


class TestCentroid:
    def test_weighted_mean_world_position(self):
        data = np.zeros((8, 8, 8), dtype=bool)
        data[2, 4, 6] = data[4, 4, 6] = True
        got = mask_centroid(BinaryMask(data, (0.5, 1.0, 2.0)))
        assert got == pytest.approx((3.0 * 0.5, 4.0 * 1.0, 6.0 * 2.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mask_centroid(BinaryMask(np.zeros((3, 3, 3), dtype=bool), UNIT))


class TestParams:
    def test_default_psi_tracks_default_omega(self):
        assert CandidateParams().psi == pytest.approx(0.6 * 255.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(psi=-1.0),
            dict(psi=float("inf")),
            dict(strip_depth=0),
            dict(erode_iters=-1),
            dict(dilate_iters=-1),
            dict(connectivity=18),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            CandidateParams(**kwargs)

    def test_region_cannot_be_empty(self):
        with pytest.raises(ValueError):
            CandidateRegion(
                mask=BinaryMask(np.zeros((3, 3, 3), dtype=bool), UNIT),
                centroid=(0, 0, 0),
                voxel_count=0,
            )


class TestExtraction:
    def test_solid_blob_survives_with_step_counts(self):
        gbbm = _map_with_blob()
        region = extract_candidate(gbbm, _brain())
        assert region.voxel_count == region.mask.count()
        # binarize, erode, component, dilate
        assert len(region.step_voxels) == 4
        b, e, c, d = region.step_voxels
        assert b == 8**3
        assert e == 4**3  # two erosions shave 2 voxels per side
        assert c == e  # single component
        assert d == 8**3  # two dilations restore the cube
        assert region.centroid == pytest.approx((11.5, 11.5, 11.5))

    def test_matches_manual_step_composition(self):
        gbbm = _map_with_blob(lo=6, hi=17)
        brain = _brain()
        params = CandidateParams()
        region = extract_candidate(gbbm, brain, params)

        stripped = mask_boundary_strip(brain, params.strip_depth)
        manual = BinaryMask(
            np.where(stripped.data, gbbm.data, 0.0) > params.psi, UNIT
        )
        manual = morphology(manual, "erode", iterations=params.erode_iters)
        manual = largest_component(manual, params.connectivity)
        manual = morphology(manual, "dilate", iterations=params.dilate_iters)
        manual = BinaryMask(manual.data & stripped.data, UNIT)
        assert np.array_equal(region.mask.data, manual.data)

    def test_keeps_largest_of_two_blobs(self):
        data = np.zeros(DIMS)
        data[4:12, 4:12, 4:12] = 200.0  # 8^3, survives erosion as 4^3
        data[15:21, 15:21, 15:21] = 200.0  # 6^3, survives as 2^3
        region = extract_candidate(ScalarVolume(data, UNIT), _brain())
        assert region.mask.data[8, 8, 8]
        assert not region.mask.data[18, 18, 18]

    def test_speckle_is_eroded_away(self):
        data = np.zeros(DIMS)
        rng = np.random.default_rng(7)
        # isolated bright voxels: no 5^3 block survives two erosions
        pts = rng.integers(3, 21, size=(60, 3))
        data[pts[:, 0], pts[:, 1], pts[:, 2]] = 250.0
        with pytest.raises(NoCandidateError) as err:
            extract_candidate(ScalarVolume(data, UNIT), _brain())
        assert err.value.step == 3

    def test_nothing_above_threshold(self):
        data = np.full(DIMS, 10.0)
        with pytest.raises(NoCandidateError) as err:
            extract_candidate(ScalarVolume(data, UNIT), _brain())
        assert err.value.step == 2

    def test_strip_removes_border_signal(self):
        # bright shell only in the outermost two layers: stripped away pre-threshold
        data = np.full(DIMS, 200.0)
        data[2:-2, 2:-2, 2:-2] = 0.0
        with pytest.raises(NoCandidateError) as err:
            extract_candidate(ScalarVolume(data, UNIT), _brain())
        assert err.value.step == 2

    def test_dilation_clipped_to_stripped_brain(self):
        # blob flush against the stripped boundary: dilation may not leak past it
        data = np.zeros(DIMS)
        data[2:10, 2:10, 2:10] = 200.0
        region = extract_candidate(ScalarVolume(data, UNIT), _brain())
        stripped = mask_boundary_strip(_brain(), 2)
        assert not (region.mask.data & ~stripped.data).any()

    def test_erode_zero_iterations_skips_step(self):
        data = np.zeros(DIMS)
        data[10, 10, 10] = 200.0  # single voxel survives only without erosion
        params = CandidateParams(erode_iters=0, dilate_iters=0)
        region = extract_candidate(ScalarVolume(data, UNIT), _brain(), params)
        assert region.voxel_count == 1

    def test_custom_psi(self):
        gbbm = _map_with_blob(value=100.0)
        with pytest.raises(NoCandidateError):
            extract_candidate(gbbm, _brain())  # default psi=153
        region = extract_candidate(gbbm, _brain(), CandidateParams(psi=50.0))
        assert region.voxel_count > 0

    def test_grid_mismatch_rejected(self):
        gbbm = _map_with_blob()
        brain = BinaryMask(np.ones((20, 24, 24), dtype=bool), UNIT)
        with pytest.raises(GridMismatchError):
            extract_candidate(gbbm, brain)
