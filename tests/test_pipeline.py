"""PipelineConfig and run_pipeline: the settings the config keeps agree
with the defaults of the functions and parameter types it feeds, and the
narrow band's half-width has one default, fvf3d.BAND_HALFWIDTH; the EM fit
leaves every artifact past the abnormality map unchanged against the
reference fit; the fit and the map read one vector of normalized brain
voxels, which the fit leaves intact, and a run indexes the brain mask
once; the map the pipeline thresholds is the map gbbm.mvol holds."""

import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fvfseg import fvf3d, phantom, pipeline
from fvfseg.brainmap import ProbabilisticAtlas, build_gbbm
from fvfseg.candidate import extract_candidate
from fvfseg.mvol import read_volume
from fvfseg.ngmm import (
    TissueMixtureModel,
    fit_em,
    normalize_intensity,
    sample_masked_intensities,
    save_model,
)
from fvfseg.pipeline import (
    CANDIDATE_FILE,
    CANDIDATE_REPORT_FILE,
    EVOLUTION_LOG_FILE,
    GBBM_FILE,
    MODEL_FILE,
    REPORT_FILE,
    SEGMENTATION_FILE,
    PipelineConfig,
    fit_stage,
    gbbm_stage,
    read_scalar,
    run_pipeline,
)

from .oracles import fit_em_oracle


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


class TestDefaultsAgree:
    def test_evolution_params(self):
        assert PipelineConfig().evolution_params() == fvf3d.EvolutionParams()

    def test_candidate_params(self):
        assert PipelineConfig().psi == _default(extract_candidate, "psi")

    def test_band_halfwidth(self):
        assert fvf3d.BAND_HALFWIDTH == 1.0
        for fn in (fvf3d.LevelSetField, fvf3d.signed_distance_init, fvf3d.init_window):
            assert _default(fn, "band_halfwidth") == fvf3d.BAND_HALFWIDTH, fn.__name__


def _sphere_case(path):
    """The 64^3 acceptance sphere (radius 8, +4 sigma, tumor seed 1)."""
    atlas = phantom.synth_atlas((64, 64, 64), seed=0)
    tumor = phantom.TumorSpec(shape="sphere", radii=(8.0,), offset=4.0, seed=1)
    patient, truth = phantom.synth_patient(atlas, tumor)
    phantom.save_phantom_case(str(path), atlas, patient, truth, tumor, atlas_seed=0)
    return PipelineConfig(
        input=str(path / phantom.PATIENT_FILE),
        atlas_dir=str(path),
        ground_truth=str(path / phantom.TRUTH_FILE),
    )


def test_reference_em_model_changes_only_the_gbbm_within_tolerance(tmp_path):
    """The pipeline's binned EM against the per-sample reference fit on
    the same samples: every artifact downstream of the map is the same
    bytes, and the map moves by at most 1e-3 (measured 3.05e-4) with no
    voxel crossing psi."""
    config = _sphere_case(tmp_path / "case")
    fitted = replace(config, output_dir=str(tmp_path / "fitted"))
    report = run_pipeline(fitted)

    atlas = phantom.load_atlas_dir(config.atlas_dir)
    values, _ = normalize_intensity(read_scalar(config.input), atlas.brain_mask)
    samples = sample_masked_intensities(values, max_samples=config.max_samples)
    tol = _default(fit_em, "tol")
    ref = fit_em_oracle(samples, k=3, tol=tol, max_iters=config.em_max_iters)
    model_path = tmp_path / "reference_model.txt"
    save_model(TissueMixtureModel(ref.weights, ref.means, ref.stds), model_path)
    reference = replace(config, model=str(model_path), output_dir=str(tmp_path / "reference"))
    ref_report = run_pipeline(reference)

    assert report["status"] == ref_report["status"] == "ok"
    assert report["em_iterations"] == len(ref.loglik_trace)
    assert report["em_converged"] is ref.converged is True
    assert "em_iterations" not in ref_report and "em_converged" not in ref_report

    out, ref_out = tmp_path / "fitted", tmp_path / "reference"
    for name in (
        CANDIDATE_FILE,
        CANDIDATE_REPORT_FILE,
        EVOLUTION_LOG_FILE,
        SEGMENTATION_FILE,
        REPORT_FILE,
    ):
        assert (out / name).read_bytes() == (ref_out / name).read_bytes(), name
    gbbm = read_scalar(str(out / GBBM_FILE)).data
    ref_gbbm = read_scalar(str(ref_out / GBBM_FILE)).data
    assert np.abs(gbbm.astype(np.float64) - ref_gbbm).max() <= 1e-3
    psi = config.psi
    assert np.array_equal(gbbm > psi, ref_gbbm > psi)


def test_one_brain_mask_index_per_run(tmp_path, monkeypatch):
    """normalize_intensity gathers through the brain mask and build_gbbm
    indexes it: one whole-grid flatnonzero per run."""
    config = _sphere_case(tmp_path / "case")
    flatnonzero, grid_calls = np.flatnonzero, []

    def spy(a):
        grid_calls.append(np.size(a) == 64**3)
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", spy)
    assert run_pipeline(replace(config, output_dir=str(tmp_path / "out")))["status"] == "ok"
    assert sum(grid_calls) == 1


@pytest.fixture(scope="module")
def scan_case():
    """A 64^3 sphere case with a float32 scan, as read from MVOL."""
    atlas = phantom.synth_atlas((64, 64, 64), seed=0)
    tumor = phantom.TumorSpec(shape="sphere", radii=(8.0,), offset=4.0, seed=1)
    patient, _ = phantom.synth_patient(atlas, tumor)
    return atlas, type(patient)(patient.data.astype(np.float32), patient.spacing)


def _laid_out(case, order):
    """The case's atlas and scan with every array in memory ``order``."""
    atlas, patient = case

    def laid(v):
        return type(v)(np.asarray(v.data, order=order), v.spacing)

    fields = ("template", "prob_csf", "prob_gm", "prob_wm", "brain_mask")
    return ProbabilisticAtlas(*(laid(getattr(atlas, f)) for f in fields)), laid(patient)


class TestSharedVector:
    def test_fit_leaves_the_vector_intact(self, scan_case, monkeypatch):
        atlas, patient = _laid_out(scan_case, "F")
        seen = []

        def fit_spy(samples, *args, **kwargs):
            seen.append((samples, samples.copy()))
            return fit_em(samples, *args, **kwargs)

        monkeypatch.setattr(pipeline, "fit_em", fit_spy)
        values, _, _ = fit_stage(patient, atlas, PipelineConfig())
        [(fitted, before)] = seen
        assert fitted is values  # the fit reads the vector itself
        assert values.tobytes() == before.tobytes()
        fresh, _ = normalize_intensity(patient, atlas.brain_mask)
        assert values.tobytes() == fresh.tobytes()

    def test_map_of_the_fitted_vector_equals_a_fresh_gather(self, scan_case):
        atlas, patient = _laid_out(scan_case, "F")
        values, _, model = fit_stage(patient, atlas, PipelineConfig())
        fresh, _ = normalize_intensity(patient, atlas.brain_mask)
        assert np.array_equal(
            build_gbbm(values, atlas, model).data, build_gbbm(fresh, atlas, model).data
        )

    def test_normalize_and_sample_allocate_no_scan_sized_array(self, scan_case):
        atlas, patient = _laid_out(scan_case, "F")
        vector_bytes = 8 * atlas.brain_mask.count()  # 36% of the grid's voxels
        fit_stage(patient, atlas, PipelineConfig())  # warm-up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_stage(patient, atlas, PipelineConfig())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # measured 2.6 float64 brain-voxel vectors (the gathered values, their
        # indices, the quantiles' copy and EM's fixed-size bins); a float64
        # copy of the grid would add 2.8
        assert peak <= 3.5 * vector_bytes, f"peak {peak / vector_bytes:.2f} vectors"

    def test_fit_and_map_do_not_depend_on_memory_layout(self, scan_case, tmp_path):
        models, maps = [], []
        for order in "CF":
            atlas, patient = _laid_out(scan_case, order)
            config = PipelineConfig(output_dir=str(tmp_path / order))
            values, _, model = fit_stage(patient, atlas, config)
            models.append((tmp_path / order / MODEL_FILE).read_bytes())
            maps.append(gbbm_stage(values, atlas, model, config).data)
        assert models[0] == models[1]
        assert np.array_equal(maps[0], maps[1])
        c_map, f_map = (tmp_path / order / GBBM_FILE for order in "CF")
        assert c_map.read_bytes() == f_map.read_bytes()


@pytest.mark.parametrize("order", "CF")
def test_stage_map_is_the_written_map(scan_case, tmp_path, order):
    """gbbm_stage returns the float32, x-fastest map it writes, so the
    candidate stage thresholds the same values in a pipeline run as on
    gbbm.mvol read back."""
    atlas, patient = _laid_out(scan_case, order)
    config = PipelineConfig(output_dir=str(tmp_path))
    values, _, model = fit_stage(patient, atlas, config)
    got = gbbm_stage(values, atlas, model, config).data
    written = read_volume(str(tmp_path / GBBM_FILE)).data
    assert got.dtype == written.dtype == np.float32
    assert got.flags.f_contiguous
    assert np.array_equal(got.view(np.uint32), written.view(np.uint32))
