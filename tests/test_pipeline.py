"""PipelineConfig and run_pipeline: defaults written twice, on the config
and on the functions and parameter types it feeds, must agree; the EM fit
leaves every artifact past the abnormality map unchanged against the
reference fit."""

import inspect
from dataclasses import replace

import numpy as np

from fvfseg import fvf3d, phantom
from fvfseg.candidate import CandidateParams
from fvfseg.ngmm import (
    TissueMixtureModel,
    normalize_intensity,
    sample_masked_intensities,
    save_model,
)
from fvfseg.pipeline import (
    CANDIDATE_FILE,
    CANDIDATE_REPORT_FILE,
    EVOLUTION_LOG_FILE,
    GBBM_FILE,
    REPORT_FILE,
    SEGMENTATION_FILE,
    PipelineConfig,
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
        assert PipelineConfig().candidate_params() == CandidateParams()

    def test_band_halfwidth(self):
        band = PipelineConfig().band_halfwidth
        assert band == 6.0
        for fn in (fvf3d.LevelSetField, fvf3d.signed_distance_init, fvf3d.init_window):
            assert _default(fn, "band_halfwidth") == band, fn.__name__

    def test_edge_sigma(self):
        assert PipelineConfig().edge_sigma == _default(fvf3d.make_force_context, "sigma")


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
    normalized, _ = normalize_intensity(read_scalar(config.input), atlas.brain_mask)
    samples = sample_masked_intensities(
        normalized, atlas.brain_mask, max_samples=config.max_samples, seed=config.seed
    )
    ref = fit_em_oracle(samples, k=3, tol=config.em_tol, max_iters=config.em_max_iters)
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
    psi = config.resolved_psi()
    assert np.array_equal(gbbm > psi, ref_gbbm > psi)
