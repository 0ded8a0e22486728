import inspect

import numpy as np
import pytest
from scipy import ndimage

from fvfseg.candidate import (
    CONNECTIVITY,
    DILATE_DEPTH,
    ERODE_DEPTH,
    STRIP_DEPTH,
    CandidateRegion,
    extract_candidate,
)
from fvfseg.errors import GridMismatchError, NoCandidateError
from fvfseg.volume import (
    BinaryMask,
    ScalarVolume,
    largest_component,
    mask_centroid,
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
        # two 7^3 cubes inside the stripped brain, one at psi and one a hair above
        data = np.zeros(DIMS)
        data[3:10, 3:10, 3:10] = 153.0
        data[13:20, 13:20, 13:20] = 153.0 + 1e-7
        region = extract_candidate(ScalarVolume(data, UNIT), _brain(), psi=153.0)
        assert region.step_voxels[0] == 7**3
        assert not region.mask.data[3:10, 3:10, 3:10].any()
        assert region.mask.data[13:20, 13:20, 13:20].all()


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
        psi = inspect.signature(extract_candidate).parameters["psi"].default
        assert psi == pytest.approx(0.6 * 255.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(psi=-1.0),
            dict(psi=float("inf")),
            dict(psi=float("-inf")),
            dict(psi=-1e-12),
            dict(psi=np.float32("nan")),
            dict(psi=np.float32("inf")),
            dict(psi=float("nan")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match="psi"):
            extract_candidate(_map_with_blob(), _brain(), **kwargs)

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
        region = extract_candidate(gbbm, brain)

        stripped = morphology(brain, "erode", STRIP_DEPTH)
        manual = BinaryMask(np.where(stripped.data, gbbm.data, 0.0) > 153.0, UNIT)
        manual = morphology(manual, "erode", ERODE_DEPTH)
        manual = largest_component(manual, CONNECTIVITY)
        manual = morphology(manual, "dilate", DILATE_DEPTH)
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
        stripped = morphology(_brain(), "erode", 2)
        assert not (region.mask.data & ~stripped.data).any()

    def test_custom_psi(self):
        gbbm = _map_with_blob(value=100.0)
        with pytest.raises(NoCandidateError):
            extract_candidate(gbbm, _brain())  # default psi=153
        region = extract_candidate(gbbm, _brain(), psi=50.0)
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
# Each case: abnormality map and brain mask.  The cleanup after erosion
# runs on a box around the eroded mask and must match the whole grid.
CROP_CASES = {
    # two 6^3 blobs, both eroded to 2^3: C order meets the first one first,
    # x-fastest order the second, whose z is smaller
    "tie": (
        _blob_map(CROP_DIMS, [((4, 4, 14), (10, 10, 20)), ((16, 14, 4), (22, 20, 10))]),
        np.ones(CROP_DIMS, dtype=bool),
    ),
    # a blob on the x = 0 face: the strip cuts it back, and its box reaches
    # to within one voxel of the face
    "grid_face": (
        _blob_map(CROP_DIMS, [((0, 6, 5), (9, 15, 13))]),
        np.ones(CROP_DIMS, dtype=bool),
    ),
    # a blob reaching out of a ball-shaped brain: the stripped brain's edge
    # cuts the thresholded mask, and the dilation reaches back to that edge
    "stripped_edge": (
        _blob_map(CROP_DIMS, [((12, 8, 5), (27, 20, 17))]),
        _ball_brain(CROP_DIMS, (12, 13, 11), 11.0),
    ),
}


def _extract(data, brain, psi=153.0):
    return extract_candidate(ScalarVolume(data, SPACING), BinaryMask(brain, SPACING), psi)


@pytest.mark.parametrize("name", sorted(CROP_CASES))
def test_cropped_cleanup_matches_the_whole_grid(name):
    data, brain = CROP_CASES[name]
    region = _extract(data, brain)
    mask, centroid, counts = extract_candidate_oracle(data, brain, SPACING, 153.0)
    assert np.array_equal(region.mask.data, mask)
    assert region.centroid == centroid
    assert region.step_voxels == counts
    assert region.voxel_count == counts[-1]


def test_tie_goes_to_the_smallest_x_fastest_index():
    region = _extract(*CROP_CASES["tie"])
    assert region.step_voxels[1] == 2 * region.step_voxels[2]
    assert region.mask.data[19, 17, 7] and not region.mask.data[7, 7, 17]


# psi per random map, as a quantile of its brain voxels: on the fixture's
# maps the first erosion leaves several components, the next two one, and
# the erosion of the last map leaves nothing
QUANTILES = (0.6, 0.75, 0.9, 0.7)


def test_cropped_cleanup_matches_on_random_maps(rng):
    dims = (30, 27, 25)
    brain = _ball_brain(dims, (15, 13, 12), 12.5)
    for trial in range(4):
        data = ndimage.gaussian_filter(rng.normal(size=dims), 3.0)
        data = 255.0 * (data - data.min()) / (data.max() - data.min())
        psi = float(np.quantile(data[brain], QUANTILES[trial]))
        expected = extract_candidate_oracle(data, brain, SPACING, psi)
        if isinstance(expected, int):
            with pytest.raises(NoCandidateError) as err:
                _extract(data, brain, psi)
            assert err.value.step == expected
            continue
        region = _extract(data, brain, psi)
        assert np.array_equal(region.mask.data, expected[0])
        assert (region.centroid, region.step_voxels) == expected[1:]
