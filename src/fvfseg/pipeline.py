"""End-to-end orchestration: fit -> abnormality map -> candidate -> level set.

Everything an invocation needs lives in a PipelineConfig: five paths and
the six settings a caller tunes (em_max_iters, max_samples, psi, alpha,
beta, max_iters).  Their defaults are the names the layers that own them
define (ngmm.EM_MAX_ITERS and MAX_SAMPLES, candidate.PSI, the fields of
fvf3d.EvolutionParams), and every other method parameter, the abnormality
map's scale brainmap.OMEGA among them, is fixed in its layer.  The config
checks its settings when it is built, before any stage writes an
artifact.  A flat ``key = value`` text file (comments with #, unknown keys
rejected) can populate it and command-line flags override file values.
The run writes its artifacts into output_dir:

    model.txt             fitted (or copied) mixture model
    gbbm.mvol             abnormality map, scalar32
    candidate.mvol        candidate mask after morphological cleanup
    candidate_report.txt  per-step voxel counts
    segmentation.mvol     final zero-level mask
    evolution.log         one line per checkpoint of the level set: iteration,
                          inside volume, voxels relabelled since the candidate,
                          largest update, mean normal/radial cosine
    report.txt            key=value summary (tm=, iterations=, ...)

All files go through atomic writes, so a crashed run never leaves a
truncated artifact under a final name; the writes are not fsynced, so a
power loss is not covered.  A stage that fails with no candidate or with
a numerically unstable level set removes every later artifact and
report.txt left in output_dir by an earlier run.  Results are a pure
function of the config: reruns produce byte-identical artifacts.  Wall
time is returned in the report dict (and printed by the CLI) but
deliberately kept out of report.txt so the file stays deterministic.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import get_args, get_type_hints

import numpy as np

from . import fvf3d, ngmm
from .brainmap import ProbabilisticAtlas, build_gbbm
from .candidate import PSI, CandidateRegion, check_psi, extract_candidate
from .errors import NoCandidateError, NumericalInstabilityError
from .metrics import tanimoto
from .mvol import atomic_write_text, read_volume, write_volume
from .ngmm import (
    TissueMixtureModel,
    fit_em,
    load_model,
    normalize_intensity,
    sample_masked_intensities,
    save_model,
)
from .phantom import load_atlas_dir
from .volume import BinaryMask, ScalarVolume, require_same_grid

MODEL_FILE = "model.txt"
GBBM_FILE = "gbbm.mvol"
CANDIDATE_FILE = "candidate.mvol"
CANDIDATE_REPORT_FILE = "candidate_report.txt"
SEGMENTATION_FILE = "segmentation.mvol"
EVOLUTION_LOG_FILE = "evolution.log"
REPORT_FILE = "report.txt"
# every artifact, in the order of the stages that write them
ARTIFACTS = (
    MODEL_FILE,
    GBBM_FILE,
    CANDIDATE_FILE,
    CANDIDATE_REPORT_FILE,
    SEGMENTATION_FILE,
    EVOLUTION_LOG_FILE,
    REPORT_FILE,
)


@dataclass
class PipelineConfig:
    # paths
    input: str | None = None
    atlas_dir: str | None = None
    model: str | None = None
    output_dir: str | None = None
    ground_truth: str | None = None
    # mixture fit
    em_max_iters: int = ngmm.EM_MAX_ITERS
    max_samples: int = ngmm.MAX_SAMPLES
    # abnormality map + candidate
    psi: float = PSI
    # level set
    alpha: float = fvf3d.EvolutionParams.alpha
    beta: float = fvf3d.EvolutionParams.beta
    max_iters: int = fvf3d.EvolutionParams.max_iters

    def __post_init__(self):
        # reject bad settings before any stage writes an artifact
        for key in ("em_max_iters", "max_samples"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        check_psi(self.psi)
        self.evolution_params()

    def evolution_params(self) -> fvf3d.EvolutionParams:
        return fvf3d.EvolutionParams(alpha=self.alpha, beta=self.beta, max_iters=self.max_iters)


def _field_kind(hint) -> type:
    # the str, int or float behind an optional field's ``X | None``
    return next((t for t in get_args(hint) if t is not type(None)), hint)


_KINDS = {name: _field_kind(hint) for name, hint in get_type_hints(PipelineConfig).items()}
CONFIG_KEYS = frozenset(_KINDS)


def _coerce(key: str, raw: str):
    kind = _KINDS[key]
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"config key {key!r} needs {what}, got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key=value parser; # comments and blank lines allowed."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(
                f"{source}:{lineno}: unknown config key {key!r}"
                f" (known keys: {', '.join(sorted(CONFIG_KEYS))})"
            )
        if key in out:
            raise ValueError(f"{source}:{lineno}: duplicate config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def load_config(path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Config file values, then overrides (e.g. CLI flags) on top."""
    values = {}
    if path is not None:
        with open(path, encoding="ascii") as fh:
            values.update(parse_config_text(fh.read(), source=path))
    for key, val in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if val is not None:
            values[key] = val
    return PipelineConfig(**values)


def read_scalar(path: str) -> ScalarVolume:
    vol = read_volume(path)
    if not isinstance(vol, ScalarVolume):
        raise ValueError(f"{path} holds a mask, expected a scalar volume")
    return vol


def read_mask(path: str) -> BinaryMask:
    vol = read_volume(path)
    if not isinstance(vol, BinaryMask):
        raise ValueError(f"{path} holds a scalar volume, expected a mask")
    return vol


def _artifact(config: PipelineConfig, name: str) -> str:
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


def _remove_artifacts_after(config: PipelineConfig, name: str) -> None:
    """Remove the artifacts after ``name`` in ARTIFACTS, report.txt
    included, that an earlier run left in ``config.output_dir``, so they
    cannot be mistaken for the output of a run that failed before them."""
    for later in ARTIFACTS[ARTIFACTS.index(name) + 1 :]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(config.output_dir, later))


# Every stage below writes its own artifacts into config.output_dir, so the
# CLI subcommands and run_pipeline produce the same files by construction.


def fit_stage(patient: ScalarVolume, atlas: ProbabilisticAtlas, config: PipelineConfig):
    """Normalize the patient's brain voxels, then fit the mixture to them,
    or load it from ``config.model`` when that is set.

    Writes model.txt when ``config.output_dir`` is set.  Returns the vector
    of normalized brain-voxel values, which the fit leaves as it was and
    gbbm_stage reads, the mean they were divided by and the model.
    """
    values, mean = normalize_intensity(patient, atlas.brain_mask)
    if config.model is None:
        samples = sample_masked_intensities(values, max_samples=config.max_samples)
        model = fit_em(samples, k=3, max_iters=config.em_max_iters)
    else:
        model = load_model(config.model)
    if config.output_dir is not None:
        save_model(model, _artifact(config, MODEL_FILE))
    return values, mean, model


def gbbm_stage(
    values: np.ndarray,
    atlas: ProbabilisticAtlas,
    model: TissueMixtureModel,
    config: PipelineConfig,
) -> ScalarVolume:
    """Abnormality map of the normalized brain-voxel values that fit_stage
    returns, cast once to the float32, x-fastest array that gbbm.mvol holds:
    written as it is and returned, so candidate_stage thresholds gbbm.mvol."""
    gbbm = build_gbbm(values, atlas, model)
    gbbm = ScalarVolume(gbbm.data.astype(np.float32, order="F"), gbbm.spacing)
    write_volume(gbbm, _artifact(config, GBBM_FILE))
    return gbbm


def candidate_stage(
    gbbm: ScalarVolume, atlas: ProbabilisticAtlas, config: PipelineConfig
) -> CandidateRegion:
    """Candidate region of an abnormality map; writes candidate.mvol and
    candidate_report.txt.

    On NoCandidateError the candidate, segmentation and report artifacts
    of an earlier run into the same directory are removed before the error
    propagates, so they cannot be mistaken for this run's output.
    """
    try:
        region = extract_candidate(gbbm, atlas.brain_mask, config.psi)
    except NoCandidateError:
        _remove_artifacts_after(config, GBBM_FILE)
        raise
    write_volume(region.mask, _artifact(config, CANDIDATE_FILE))
    atomic_write_text(_artifact(config, CANDIDATE_REPORT_FILE), _candidate_report_text(region))
    return region


def segment_stage(patient: ScalarVolume, region: CandidateRegion, config: PipelineConfig):
    """Seed a distance field on the candidate's mask and evolve it under
    the force seeded at the candidate's centroid; writes evolution.log and
    segmentation.mvol.

    The distance field is computed on the window around the mask that
    holds evolve's first box (init_window); evolve grows the window to
    hold each later box, on which it rebuilds the distance from the front.
    Returns the final LevelSetField and its zero-level mask.  On
    NumericalInstabilityError the segmentation and report artifacts of an
    earlier run into the same directory are removed before the error
    propagates.
    """
    params = config.evolution_params()
    mask = region.mask
    ctx = fvf3d.make_force_context(patient, mask, center=region.centroid)
    window = fvf3d.init_window(mask, params=params)
    ls = fvf3d.signed_distance_init(mask, window=window)
    log: list = []
    try:
        final = fvf3d.evolve(ls, ctx, params, log=log)
    except NumericalInstabilityError:
        _remove_artifacts_after(config, CANDIDATE_REPORT_FILE)
        raise
    atomic_write_text(_artifact(config, EVOLUTION_LOG_FILE), _evolution_log_text(log))
    seg = fvf3d.zero_level_mask(final)
    write_volume(seg, _artifact(config, SEGMENTATION_FILE))
    return final, seg


def _candidate_report_text(region: CandidateRegion) -> str:
    names = ("binarize", "erode", "component", "dilate")
    lines = [
        f"{name}_voxels={count}"
        for name, count in zip(names, region.step_voxels)
    ]
    lines.append(f"final_voxels={region.voxel_count}")
    lines.append(
        "centroid=" + ",".join(format(c, ".17g") for c in region.centroid)
    )
    return "\n".join(lines) + "\n"


def _evolution_log_text(records: list) -> str:
    lines = []
    for rec in records:
        parts = [
            f"iter={rec['iteration']}",
            f"inside={rec['inside']}",
            f"changed={rec['changed']}",
        ]
        parts.append(f"max_update={format(rec['max_update'], '.17g')}")
        if "cos_gamma_mean" in rec:
            parts.append(f"cos_gamma_mean={format(rec['cos_gamma_mean'], '.17g')}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage and write all artifacts.

    Returns the report as a dict.  When the run fitted its model the dict
    also holds ``em_iterations`` and ``em_converged``; like the wall time,
    they stay out of report.txt.  A NoCandidateError still writes
    report.txt (status=no-candidate) and carries the report dict as its
    ``report`` before propagating, so callers can map it to a distinct exit
    code while keeping the run inspectable.
    """
    for key in ("input", "atlas_dir", "output_dir"):
        if getattr(config, key) is None:
            raise ValueError(f"pipeline config is missing required key {key!r}")
    t0 = time.perf_counter()

    atlas = load_atlas_dir(config.atlas_dir)
    patient = read_scalar(config.input)
    truth = read_mask(config.ground_truth) if config.ground_truth else None
    if truth is not None:
        require_same_grid(truth, patient, "ground truth and patient")

    values, _, model = fit_stage(patient, atlas, config)
    em = {}
    if model.loglik_trace is not None:
        em = {"em_iterations": len(model.loglik_trace), "em_converged": model.converged}
    gbbm = gbbm_stage(values, atlas, model, config)
    try:
        region = candidate_stage(gbbm, atlas, config)
    except NoCandidateError as err:
        empty = BinaryMask(np.zeros(patient.dims, dtype=bool), patient.spacing)
        err.report = _write_report(config, "no-candidate", 0, 0, empty, truth, t0) | em
        raise
    final, seg = segment_stage(patient, region, config)
    return _write_report(config, "ok", region.voxel_count, final.iteration, seg, truth, t0) | em


# runtime_seconds is reported to the caller but never written: artifacts
# must be byte-identical across reruns of the same config
REPORT_KEYS = ("status", "tm", "iterations", "candidate_voxels")


def report_text(report: dict, keys) -> str:
    """One ``key=value`` line for each of ``keys`` that ``report`` holds,
    in the order of ``keys``, floats in .17g."""
    lines = []
    for key in keys:
        if key in report:
            val = report[key]
            lines.append(f"{key}={format(val, '.17g') if isinstance(val, float) else val}\n")
    return "".join(lines)


def _write_report(config, status, candidate_voxels, iterations, seg, truth, t0) -> dict:
    report = {"status": status, "candidate_voxels": candidate_voxels, "iterations": iterations}
    if truth is not None:
        report["tm"] = tanimoto(seg, truth).tanimoto
    report["runtime_seconds"] = time.perf_counter() - t0
    atomic_write_text(_artifact(config, REPORT_FILE), report_text(report, REPORT_KEYS))
    return report
