"""Benchmark workloads: fixed-seed phantom cases written as MVOL files.

The pipeline only ever sees the files written here; everything random is
drawn from the workload seed.  Each workload stresses a different layer:

lesion64    64^3, a +4 sigma lesion of each shape (the set used by
            scripts/run_phantom_study.py) in three noise draws each.
            Every layer does work; EM is
            about half a case and the level set most of the rest.  The
            arrays fit in cache, so per-call Python overhead shows.
control128  128^3 healthy head.  The pipeline must stop at "no candidate",
            so EM (748k samples), GBBM and candidate extraction run at full
            size and the level set never runs: an EM change shows its
            largest gain here and a level-set change must show none.
refit128    128^3 lesion (sphere r=16) re-run with a model fitted during
            set-up, so EM never runs and the level set plus MVOL I/O on
            16 MB arrays dominate: a level-set change shows here and an EM
            change must show none.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from fvfseg.mvol import read_volume
from fvfseg.ngmm import save_model
from fvfseg.phantom import (
    PATIENT_FILE,
    TRUTH_FILE,
    TumorSpec,
    load_atlas_dir,
    save_phantom_case,
    synth_atlas,
    synth_patient,
)
from fvfseg.pipeline import PipelineConfig, fit_stage

MODEL_FILE = "prefit_model.txt"
# The known model for refit128 comes from a uniform subsample of the case's
# brain voxels: set-up stays short, and EM time stays out of the case.
PREFIT_SAMPLES = 50_000
WARMUP_DIMS = 32


@dataclass(frozen=True)
class Lesion:
    shape: str
    radii: tuple[float, ...]
    # Tanimoto floor: the acceptance tests' floors for the r=8 sphere and the
    # ellipsoid; for the blob (0.876-0.897 seen) and the r=16 sphere (0.986)
    # the lowest value seen in development runs less a margin.
    tm_floor: float


@dataclass(frozen=True)
class Workload:
    name: str
    dims: int
    lesions: tuple[Lesion, ...]  # empty: one healthy control case
    refit: bool
    why: str
    # Noise realizations per lesion.  EM iterations vary with the noise, so
    # a run that averages several keeps that variation out of its median.
    realizations: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lesion64",
            64,
            (
                Lesion("sphere", (8.0,), 0.85),
                Lesion("ellipsoid", (10.0, 7.0, 5.0), 0.75),
                Lesion("blob", (7.0,), 0.80),
            ),
            refit=False,
            why="64^3 lesions of three shapes, three noise draws each, on the full pipeline: "
            "every layer works, EM about half and the level set most of the rest",
            realizations=3,
        ),
        Workload(
            "control128",
            128,
            (),
            refit=False,
            why="128^3 healthy head that must end in no-candidate: EM, GBBM and candidate "
            "at full size, level set idle",
        ),
        Workload(
            "refit128",
            128,
            (Lesion("sphere", (16.0,), 0.90),),
            refit=True,
            why="128^3 lesion re-run with a model fitted in set-up: EM idle, level set "
            "and MVOL I/O on 16 MB arrays dominate",
        ),
    )
}


@dataclass
class Case:
    name: str
    config: dict  # PipelineConfig fields
    brain_voxels: int
    tm_floor: float | None  # None: healthy control, must end in no-candidate


def seeds_for(seed: int, held_out: bool, n: int) -> list[int]:
    """Generator seeds for one workload run.

    Held-out runs draw from a separate stream, so no development seed
    ever produces the same inputs as a held-out one.
    """
    stream = np.random.SeedSequence([1 if held_out else 0, seed])
    return [int(v) for v in stream.generate_state(n)]


def build_cases(
    workload: Workload, seed: int, held_out: bool, root: str, dims=None, realizations=None
):
    """Generate and write the workload's cases under ``root``.

    ``dims`` overrides the grid size (lesion radii scale with it) and
    ``realizations`` the noise draws per lesion.  Returns the cases and the
    seconds spent per set-up part.
    """
    dims = dims or workload.dims
    realizations = realizations or workload.realizations
    scale = dims / workload.dims
    control = not workload.lesions
    # A healthy control plants an offset-0 sphere, which is plain tissue.
    lesions = workload.lesions or (Lesion("sphere", (8.0,), 0.0),)
    draws = [(lesion, r) for r in range(realizations) for lesion in lesions]
    atlas_seed, *tumor_seeds = seeds_for(seed, held_out, 1 + len(draws))
    timing = {"gen_s": 0.0, "write_s": 0.0, "prefit_s": 0.0}

    t0 = time.perf_counter()
    atlas = synth_atlas((dims,) * 3, seed=atlas_seed)
    timing["gen_s"] += time.perf_counter() - t0
    brain_voxels = int(atlas.brain_mask.data.sum())

    cases = []
    for (lesion, draw), tumor_seed in zip(draws, tumor_seeds):
        spec = TumorSpec(
            shape=lesion.shape,
            radii=tuple(r * scale for r in lesion.radii),
            offset=0.0 if control else 4.0,
            seed=tumor_seed,
        )
        name = "control" if control else lesion.shape
        if realizations > 1:
            name += f"-{draw}"
        case_dir = os.path.join(root, name)

        t0 = time.perf_counter()
        patient, truth = synth_patient(atlas, spec)
        t1 = time.perf_counter()
        save_phantom_case(case_dir, atlas, patient, truth, spec, atlas_seed)
        t2 = time.perf_counter()
        timing["gen_s"] += t1 - t0
        timing["write_s"] += t2 - t1

        config = {
            "input": os.path.join(case_dir, PATIENT_FILE),
            "atlas_dir": case_dir,
            "output_dir": os.path.join(root, "out", name),
        }
        if not control:
            config["ground_truth"] = os.path.join(case_dir, TRUTH_FILE)
        if workload.refit:
            config["model"] = os.path.join(case_dir, MODEL_FILE)
            _, _, model = fit_stage(
                read_volume(config["input"]),
                load_atlas_dir(case_dir),
                PipelineConfig(max_samples=PREFIT_SAMPLES),
            )
            save_model(model, config["model"])
            timing["prefit_s"] += time.perf_counter() - t2
        cases.append(Case(name, config, brain_voxels, None if control else lesion.tm_floor))
    return cases, timing
