#!/usr/bin/env python3
"""Phantom segmentation study: Tanimoto overlap across lesion shapes and
noise seeds, plus a null-control check.

Generates one synthetic atlas, plants lesions of each shape with several
noise realizations, runs the full pipeline on every case and prints an
overlap table.  A lesion the pipeline finds no candidate for is a miss:
its row reads "none (step N)", N the pipeline step at which the candidate
mask became empty, and the study goes on.  Each shape's summary counts its
detections and averages tm over the detected cases.  The exit status is 1
only when the null control (offset 0) yields a candidate.  Artifacts land
in --work-dir (a temp dir by default, so pass one explicitly if you want
to look at the volumes afterwards).

Usage:
    python3 scripts/run_phantom_study.py --dims 64 --seeds 5
"""

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

from fvfseg.errors import NoCandidateError
from fvfseg.phantom import (
    PATIENT_FILE,
    TRUTH_FILE,
    TumorSpec,
    save_phantom_case,
    synth_atlas,
    synth_patient,
)
from fvfseg.pipeline import PipelineConfig, run_pipeline

RADII = {"sphere": (8.0,), "ellipsoid": (10.0, 7.0, 5.0), "blob": (7.0,)}


def run_one(atlas, case_dir, out_dir, spec, atlas_seed):
    """Run the pipeline on one planted case.  Returns the report, the truth's
    voxel count and, on a miss, the step at which the candidate vanished
    (else None)."""
    patient, truth = synth_patient(atlas, spec)
    save_phantom_case(str(case_dir), atlas, patient, truth, spec, atlas_seed)
    config = PipelineConfig(
        input=str(case_dir / PATIENT_FILE),
        atlas_dir=str(case_dir),
        output_dir=str(out_dir),
        ground_truth=str(case_dir / TRUTH_FILE),
    )
    try:
        return run_pipeline(config), truth.count(), None
    except NoCandidateError as err:
        return err.report, truth.count(), err.step


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", type=int, default=64, help="cubic grid size")
    ap.add_argument("--seeds", type=int, default=5, help="noise seeds per shape")
    ap.add_argument("--offset", type=float, default=4.0,
                    help="lesion intensity offset in seat-tissue sigmas")
    ap.add_argument("--atlas-seed", type=int, default=0)
    ap.add_argument("--work-dir", default=None,
                    help="keep case/output dirs here instead of a temp dir")
    args = ap.parse_args(argv)

    work = Path(args.work_dir) if args.work_dir else Path(tempfile.mkdtemp(prefix="phantom_study_"))
    work.mkdir(parents=True, exist_ok=True)
    dims = (args.dims,) * 3
    atlas = synth_atlas(dims, seed=args.atlas_seed)

    print(f"grid {args.dims}^3, atlas seed {args.atlas_seed}, "
          f"offset {args.offset:+g} sigma, work dir {work}")
    print()
    header = f"{'shape':<10} {'seed':>4} {'tm':>13} {'iters':>6} {'cand_vox':>9} {'truth_vox':>10}"
    print(header)
    print("-" * len(header))

    by_shape = {}
    for shape in ("sphere", "ellipsoid", "blob"):
        for seed in range(1, args.seeds + 1):
            spec = TumorSpec(shape=shape, radii=RADII[shape],
                             offset=args.offset, seed=seed)
            tag = f"{shape}_s{seed}"
            report, truth_vox, missed = run_one(
                atlas, work / f"case_{tag}", work / f"out_{tag}", spec,
                args.atlas_seed,
            )
            tms = by_shape.setdefault(shape, [])
            if missed is None:
                tm = float(report["tm"])
                tms.append(tm)
                tm_text = f"{tm:.4f}"
            else:
                tm_text = f"none (step {missed})"
            print(f"{shape:<10} {seed:>4} {tm_text:>13} {int(report['iterations']):>6} "
                  f"{int(report['candidate_voxels']):>9} {truth_vox:>10}")

    print()
    for shape, tms in by_shape.items():
        line = f"{shape:<10} detected {len(tms)}/{args.seeds}"
        if tms:
            spread = statistics.stdev(tms) if len(tms) > 1 else 0.0
            line += f", mean tm {statistics.mean(tms):.4f} +/- {spread:.4f}"
        print(line)

    # null control: a zero-offset "lesion" must not produce a detection
    spec = TumorSpec(shape="sphere", radii=RADII["sphere"], offset=0.0, seed=1)
    _, _, missed = run_one(atlas, work / "case_control", work / "out_control", spec,
                           args.atlas_seed)
    if missed is None:
        print("\ncontrol    offset 0 -> FALSE POSITIVE", file=sys.stderr)
        return 1
    print(f"\ncontrol    offset 0 -> no candidate at step {missed} (expected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
