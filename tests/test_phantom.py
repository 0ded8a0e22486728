import hashlib
import tracemalloc

import numpy as np
import pytest

from fvfseg.brainmap import build_gbbm
from fvfseg.ngmm import fit_em, normalize_intensity, sample_masked_intensities
from fvfseg.phantom import (
    ATLAS_FILES,
    MANIFEST_FILE,
    PATIENT_FILE,
    TRUTH_FILE,
    TumorSpec,
    load_atlas_dir,
    save_atlas_dir,
    save_phantom_case,
    synth_atlas,
    synth_patient,
    tissue_statistics,
)

DIMS = (48, 48, 48)


@pytest.fixture(scope="module")
def atlas():
    return synth_atlas(DIMS, seed=0)


@pytest.fixture(scope="module")
def atlas64():
    return synth_atlas((64, 64, 64), seed=0)


@pytest.fixture(scope="module")
def case(atlas):
    tumor = TumorSpec(shape="sphere", radii=(8.0,), offset=4.0, seed=1)
    patient, truth = synth_patient(atlas, tumor)
    return patient, truth, tumor


class TestTumorSpec:
    def test_defaults_are_valid(self):
        TumorSpec()

    @pytest.mark.parametrize("offset", [0.0, 3.0, -3.0, 4.5, -10.0])
    def test_offset_zero_or_at_least_three_sigma(self, offset):
        TumorSpec(offset=offset)

    @pytest.mark.parametrize("offset", [2.0, -2.9, 0.5, float("nan")])
    def test_weak_offsets_rejected(self, offset):
        with pytest.raises(ValueError):
            TumorSpec(offset=offset)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            TumorSpec(shape="box")

    def test_radii_count_per_shape(self):
        TumorSpec(shape="ellipsoid", radii=(10.0, 7.0, 5.0))
        with pytest.raises(ValueError, match="radii"):
            TumorSpec(shape="ellipsoid", radii=(10.0,))
        with pytest.raises(ValueError, match="radii"):
            TumorSpec(shape="sphere", radii=(5.0, 5.0, 5.0))

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            TumorSpec(radii=(-1.0,))

    def test_bad_center_rejected(self):
        with pytest.raises(ValueError):
            TumorSpec(center=(1.0, float("inf"), 2.0))


class TestSynthAtlas:
    def test_deterministic_per_seed(self, atlas):
        again = synth_atlas(DIMS, seed=0)
        assert np.array_equal(atlas.template.data, again.template.data)
        assert np.array_equal(atlas.prob_csf.data, again.prob_csf.data)
        assert np.array_equal(atlas.brain_mask.data, again.brain_mask.data)

    def test_seed_changes_template_not_geometry(self, atlas):
        other = synth_atlas(DIMS, seed=99)
        assert not np.array_equal(atlas.template.data, other.template.data)
        assert np.array_equal(atlas.brain_mask.data, other.brain_mask.data)
        assert np.array_equal(atlas.prob_gm.data, other.prob_gm.data)

    def test_probabilities_sum_below_one(self, atlas):
        total = np.stack([atlas.prob_csf.data, atlas.prob_gm.data, atlas.prob_wm.data]).sum(axis=0)
        assert total.max() <= 1.0 + 1e-9
        brain = atlas.brain_mask.data
        # inside the brain the three maps cover most of the mass
        assert total[brain].min() > 0.5

    def test_priors_never_one_hot_inside_brain(self, atlas):
        """Every tissue keeps a floor probability everywhere in the brain;
        a one-hot prior would pin the posterior to it and hide lesions."""
        brain = atlas.brain_mask.data
        for vol in (atlas.prob_csf, atlas.prob_gm, atlas.prob_wm):
            assert vol.data[brain].min() >= 0.05
            assert vol.data[brain].max() <= 0.95

    def test_zero_outside_brain(self, atlas):
        outside = ~atlas.brain_mask.data
        assert np.all(atlas.template.data[outside] == 0.0)
        assert np.all(atlas.prob_csf.data[outside] == 0.0)
        assert np.all(atlas.prob_gm.data[outside] == 0.0)
        assert np.all(atlas.prob_wm.data[outside] == 0.0)

    def test_small_dims_rejected(self):
        with pytest.raises(ValueError, match=">= 32"):
            synth_atlas((24, 48, 48))

    def test_tissue_statistics_recover_generators(self, atlas):
        means, stds, labels = tissue_statistics(atlas)
        assert np.allclose(means, (176.0, 320.0, 432.0), atol=10.0)
        assert np.allclose(stds, (50.0, 32.0, 32.0), atol=10.0)
        assert sorted(np.unique(labels)) == [0, 1, 2]

    def test_template_mixture_is_fittable(self, atlas):
        values, _ = normalize_intensity(atlas.template, atlas.brain_mask)
        model = fit_em(sample_masked_intensities(values))
        raw_means, _, _ = tissue_statistics(atlas)
        scale = atlas.template.data[atlas.brain_mask.data].mean()
        assert np.allclose(model.means, raw_means / scale, atol=0.05)


class TestSynthPatient:
    def test_deterministic_per_seed(self, atlas, case):
        patient, truth, tumor = case
        p2, t2 = synth_patient(atlas, tumor)
        assert np.array_equal(patient.data, p2.data)
        assert np.array_equal(truth.data, t2.data)

    def test_truth_inside_brain(self, atlas, case):
        _, truth, _ = case
        assert not (truth.data & ~atlas.brain_mask.data).any()
        assert truth.count() > 0

    def test_zero_outside_brain(self, atlas, case):
        patient, _, _ = case
        assert np.all(patient.data[~atlas.brain_mask.data] == 0.0)

    def test_sphere_volume_close_to_continuum(self, case):
        _, truth, tumor = case
        ideal = 4.0 / 3.0 * np.pi * tumor.radii[0] ** 3
        assert abs(truth.count() - ideal) / ideal < 0.05

    def test_lesion_intensity_is_seat_mean_plus_offset_sigma(self, atlas, case):
        patient, truth, tumor = case
        means, stds, labels = tissue_statistics(atlas)
        ci = tuple(d // 2 for d in DIMS)  # default center: middle of the grid
        idx = np.indices(DIMS)
        # centered sphere sits in the ventricle, so the seat is CSF
        seat = int(labels[ci])
        assert seat == 0
        values = patient.data[truth.data]
        assert np.all(values == values[0])
        assert values[0] == pytest.approx(means[seat] + tumor.offset * stds[seat])
        del idx

    def test_blob_shape_deterministic_and_irregular(self, atlas):
        tumor = TumorSpec(shape="blob", radii=(7.0,), offset=4.0, seed=5)
        _, t1 = synth_patient(atlas, tumor)
        _, t2 = synth_patient(atlas, tumor)
        assert np.array_equal(t1.data, t2.data)
        sphere = TumorSpec(shape="sphere", radii=(7.0,), offset=4.0, seed=5)
        _, ts = synth_patient(atlas, sphere)
        assert not np.array_equal(t1.data, ts.data)

    def test_ellipsoid_axes(self, atlas):
        tumor = TumorSpec(shape="ellipsoid", radii=(10.0, 7.0, 5.0), offset=4.0)
        _, truth = synth_patient(atlas, tumor)
        idx = np.nonzero(truth.data)
        half_extent = [(idx[ax].max() - idx[ax].min()) / 2.0 for ax in range(3)]
        assert half_extent[0] > half_extent[1] > half_extent[2]

    def test_tumor_leaving_brain_rejected(self, atlas):
        tumor = TumorSpec(center=(2.0, 2.0, 2.0), radii=(4.0,), offset=4.0)
        with pytest.raises(ValueError, match="outside the brain"):
            synth_patient(atlas, tumor)

    def test_tumor_off_grid_rejected(self, atlas):
        tumor = TumorSpec(center=(-80.0, -80.0, -80.0), radii=(1.0,), offset=4.0)
        with pytest.raises(ValueError, match="no voxels"):
            synth_patient(atlas, tumor)

    def test_control_case_shows_no_abnormality_hotspot(self, atlas):
        """offset 0 plants a lesion indistinguishable from its seat tissue:
        the abnormality map over it must not rise above the healthy-brain
        background (it typically sits well below, since a constant patch at
        the seat mean agrees with the prior better than noisy tissue does)."""
        control = TumorSpec(shape="sphere", radii=(8.0,), offset=0.0, seed=1)
        patient, truth = synth_patient(atlas, control)
        values, _ = normalize_intensity(patient, atlas.brain_mask)
        model = fit_em(sample_masked_intensities(values))
        gbbm = build_gbbm(values, atlas, model)
        brain = atlas.brain_mask.data
        lesion_mean = gbbm.data[truth.data].mean()
        healthy_mean = gbbm.data[brain & ~truth.data].mean()
        assert lesion_mean < healthy_mean + 0.05 * 255.0
        assert lesion_mean < 0.1 * 255.0


class TestCaseSerialization:
    def test_atlas_dir_round_trip_is_idempotent(self, atlas, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        save_atlas_dir(atlas, str(first))
        loaded = load_atlas_dir(str(first))
        save_atlas_dir(loaded, str(second))
        for fname in ATLAS_FILES.values():
            assert (first / fname).read_bytes() == (second / fname).read_bytes()

    def test_missing_file_named_in_error(self, atlas, tmp_path):
        save_atlas_dir(atlas, str(tmp_path))
        (tmp_path / ATLAS_FILES["prob_gm"]).unlink()
        with pytest.raises(FileNotFoundError, match="prob_gm"):
            load_atlas_dir(str(tmp_path))

    def test_mask_stored_as_scalar_rejected(self, atlas, tmp_path):
        from fvfseg.mvol import write_volume
        from fvfseg.volume import ScalarVolume

        save_atlas_dir(atlas, str(tmp_path))
        as_scalar = ScalarVolume(
            atlas.brain_mask.data.astype(np.float32), atlas.spacing
        )
        write_volume(as_scalar, str(tmp_path / ATLAS_FILES["brain_mask"]))
        with pytest.raises(ValueError, match="mask"):
            load_atlas_dir(str(tmp_path))

    def test_save_phantom_case_layout(self, atlas, case, tmp_path):
        patient, truth, tumor = case
        save_phantom_case(str(tmp_path), atlas, patient, truth, tumor, atlas_seed=0)
        expected = set(ATLAS_FILES.values()) | {PATIENT_FILE, TRUTH_FILE, MANIFEST_FILE}
        assert {p.name for p in tmp_path.iterdir()} == expected
        manifest = (tmp_path / MANIFEST_FILE).read_text()
        entries = dict(line.split("=", 1) for line in manifest.splitlines())
        assert entries["shape"] == "sphere"
        assert entries["dims"] == "48,48,48"
        assert entries["center"] == "auto"
        assert int(entries["tumor_voxels"]) == truth.count()
        assert float(entries["offset"]) == tumor.offset


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Small phantom cells: (atlas dims, spacing, atlas seed, lesion).  The
# digests below pin their bytes: a new generator knob must leave them
# unchanged at its default.
PIN_CELLS = {
    "sphere": ((32, 32, 32), (1.0, 1.0, 1.0), 0, TumorSpec("sphere", None, (6.0,), 4.0, 1)),
    "ellipsoid": (
        (32, 32, 32),
        (1.0, 1.0, 1.0),
        0,
        TumorSpec("ellipsoid", None, (7.0, 5.0, 4.0), -4.0, 2),
    ),
    "blob": ((32, 32, 32), (1.0, 1.0, 1.0), 0, TumorSpec("blob", None, (5.0,), 4.0, 3)),
    "control": ((32, 32, 32), (1.0, 1.0, 1.0), 0, TumorSpec("sphere", None, (6.0,), 0.0, 4)),
    "off-centre": (
        (32, 32, 32),
        (1.0, 1.0, 1.0),
        0,
        TumorSpec("sphere", (18.0, 13.5, 16.0), (5.0,), -5.0, 5),
    ),
    "anisotropic": (
        (40, 36, 32),
        (1.0, 1.0, 2.0),
        6,
        TumorSpec("blob", (22.0, 15.5, 34.0), (5.0,), 3.0, 7),
    ),
}

# sha256 of (the atlas's five volumes, the patient and the truth mask)
PINNED = {
    "anisotropic": (
        "e5a2ded813b48885170c9069614021b66ac9799aa9bbe1594590277eb3c2a700",
        "1448550ca8e8b1a6f33b70efaa004b3a7707d2074634aaf3609d47eb511c9c30",
    ),
    "blob": (
        "4b663262337e04fb0eb4e674a7f6d0f4b657ab4d3c6310521b83e8e5b43c31ca",
        "e0dc6c8daf843ac7e23d5d69ce1c581c3d55dcefbdc397181ee52530fd05f293",
    ),
    "control": (
        "4b663262337e04fb0eb4e674a7f6d0f4b657ab4d3c6310521b83e8e5b43c31ca",
        "46d2558e2c5c47ea20901ac576df9b6b08f5c44884814fbc839d60f9bdd47332",
    ),
    "ellipsoid": (
        "4b663262337e04fb0eb4e674a7f6d0f4b657ab4d3c6310521b83e8e5b43c31ca",
        "4d38a1b1a08fc62301b52fad02dc2b0a670bfe9ca4fbb8a35b40f230529db312",
    ),
    "off-centre": (
        "4b663262337e04fb0eb4e674a7f6d0f4b657ab4d3c6310521b83e8e5b43c31ca",
        "23472411339d2da96b9cb0371e9ec8a54e0bb5ca37014661703406b4adf9dd9f",
    ),
    "sphere": (
        "4b663262337e04fb0eb4e674a7f6d0f4b657ab4d3c6310521b83e8e5b43c31ca",
        "a468a1568f96f34526edbde661709a913e768d97ed64b3b315c0075419ecae93",
    ),
}


@pytest.mark.parametrize("cell", sorted(PIN_CELLS))
def test_phantom_bytes_are_pinned(cell):
    dims, spacing, atlas_seed, tumor = PIN_CELLS[cell]
    atlas = synth_atlas(dims, seed=atlas_seed, spacing=spacing)
    patient, truth = synth_patient(atlas, tumor)
    maps = (getattr(atlas, key).data for key in ATLAS_FILES)
    assert (_sha256(*maps), _sha256(patient.data, truth.data)) == PINNED[cell]


@pytest.mark.parametrize(("shape", "radius", "grids"), [("sphere", 8.0, 4.0), ("blob", 7.0, 6.0)])
def test_synth_patient_peak_memory(atlas64, shape, radius, grids):
    """synth_patient holds the patient, a per-voxel factor and the tissue
    labels, not whole-grid coordinate or probability copies: its traced
    peak at 64^3 is 3.1 float64 grids for a sphere and 5.1 for a blob (the
    blob adds its smoothed wobble field), against 13 and 14 when the grid
    coordinates were meshgrids and the labels came from a float64 stack."""
    tumor = TumorSpec(shape, radii=(radius,))
    grid = 8 * 64**3
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        synth_patient(atlas64, tumor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / grid < grids
