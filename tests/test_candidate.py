import numpy as np
import pytest
from scipy import ndimage

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

from .oracles import extract_candidate_oracle

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


def _blob_map(dims, blobs, value=200.0):
    data = np.zeros(dims)
    for lo, hi in blobs:
        data[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = value
    return data


def _ball_brain(dims, center, radius):
    idx = np.indices(dims).astype(np.float64)
    return np.sqrt(sum((idx[ax] - center[ax]) ** 2 for ax in range(3))) <= radius


CROP_DIMS = (28, 26, 24)
SPACING = (1.0, 0.8, 1.5)
# Each case: abnormality map, brain mask, params.  The cleanup after erosion
# runs on a box around the eroded mask and must match the whole grid.
CROP_CASES = {
    # two 6^3 blobs, both eroded to 2^3: C order meets the first one first,
    # x-fastest order the second, whose z is smaller
    "tie": (
        _blob_map(CROP_DIMS, [((4, 4, 14), (10, 10, 20)), ((16, 14, 4), (22, 20, 10))]),
        np.ones(CROP_DIMS, dtype=bool),
        CandidateParams(),
    ),
    # a blob on the x = 0 face: the box is clipped by the grid there
    "grid_face": (
        _blob_map(CROP_DIMS, [((0, 6, 5), (9, 15, 13))]),
        np.ones(CROP_DIMS, dtype=bool),
        CandidateParams(strip_depth=1),
    ),
    # a blob reaching out of a ball-shaped brain: the stripped brain's edge
    # cuts 350 voxels off the dilation
    "stripped_edge": (
        _blob_map(CROP_DIMS, [((12, 8, 5), (27, 20, 17))]),
        _ball_brain(CROP_DIMS, (12, 13, 11), 11.0),
        CandidateParams(dilate_iters=3),
    ),
    # no erosion: the box spans every voxel above psi, speckle included
    "no_erosion": (
        _blob_map(CROP_DIMS, [((8, 8, 8), (13, 12, 11)), ((20, 3, 3), (21, 4, 4))]),
        np.ones(CROP_DIMS, dtype=bool),
        CandidateParams(erode_iters=0, connectivity=6),
    ),
}


@pytest.mark.parametrize("name", sorted(CROP_CASES))
def test_cropped_cleanup_matches_the_whole_grid(name):
    data, brain, params = CROP_CASES[name]
    region = extract_candidate(ScalarVolume(data, SPACING), BinaryMask(brain, SPACING), params)
    mask, centroid, counts = extract_candidate_oracle(data, brain, SPACING, params)
    assert np.array_equal(region.mask.data, mask)
    assert region.centroid == centroid
    assert region.step_voxels == counts
    assert region.voxel_count == counts[-1]


def test_tie_goes_to_the_smallest_x_fastest_index():
    data, brain, params = CROP_CASES["tie"]
    region = extract_candidate(ScalarVolume(data, SPACING), BinaryMask(brain, SPACING), params)
    assert region.step_voxels[1] == 2 * region.step_voxels[2]
    assert region.mask.data[19, 17, 7] and not region.mask.data[7, 7, 17]


def test_cropped_cleanup_matches_on_random_maps(rng):
    dims = (30, 27, 25)
    brain = _ball_brain(dims, (15, 13, 12), 12.5)
    for trial in range(4):
        data = ndimage.gaussian_filter(rng.normal(size=dims), 3.0)
        data = 255.0 * (data - data.min()) / (data.max() - data.min())
        psi = float(np.quantile(data[brain], 0.75))
        params = CandidateParams(psi=psi, erode_iters=1, dilate_iters=trial)
        expected = extract_candidate_oracle(data, brain, SPACING, params)
        if isinstance(expected, int):
            with pytest.raises(NoCandidateError) as err:
                extract_candidate(ScalarVolume(data, SPACING), BinaryMask(brain, SPACING), params)
            assert err.value.step == expected
            continue
        region = extract_candidate(ScalarVolume(data, SPACING), BinaryMask(brain, SPACING), params)
        assert np.array_equal(region.mask.data, expected[0])
        assert (region.centroid, region.step_voxels) == expected[1:]
