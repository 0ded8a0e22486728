"""Command-line front end.

Each stage is a subcommand over MVOL files so a run can be replayed or
debugged piecewise; ``pipeline`` chains them all.  Exit codes: 0 success,
2 I/O or file-format failure, 3 no candidate region survived, 4 numerical
instability in the level set, 1 anything else.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import phantom, pipeline
from .candidate import PSI, CandidateRegion
from .errors import MvolFormatError, NoCandidateError, NumericalInstabilityError
from .metrics import tanimoto
from .pipeline import PipelineConfig, load_config
from .volume import mask_centroid

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_IO = 2
EXIT_NO_CANDIDATE = 3
EXIT_INSTABILITY = 4

_PSI_HELP = f"candidate threshold on the abnormality map (default {PSI:g})"


def _parse_floats(text: str, n_expected=None):
    parts = [p for p in text.split(",") if p.strip()]
    vals = tuple(float(p) for p in parts)
    if n_expected is not None and len(vals) != n_expected:
        raise ValueError(f"expected {n_expected} comma-separated values, got {text!r}")
    return vals


def _parse_dims(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) == 1:
        return (int(parts[0]),) * 3
    if len(parts) == 3:
        return tuple(int(p) for p in parts)
    raise ValueError(f"dims must be N or NX,NY,NZ, got {text!r}")


def _config_from_args(args) -> PipelineConfig:
    overrides = {k: v for k, v in vars(args).items() if k in pipeline.CONFIG_KEYS}
    return load_config(getattr(args, "config", None), overrides)


def _add_common(sub, *flags, input_help="input MVOL file"):
    if "config" in flags:
        sub.add_argument("--config", help="flat key=value config file")
    if "input" in flags:
        sub.add_argument("--input", required=True, help=input_help)
    if "atlas" in flags:
        sub.add_argument("--atlas-dir", dest="atlas_dir", required=True,
                         help="directory with template/prob_*/brain_mask MVOLs")
    if "output" in flags:
        sub.add_argument("--output-dir", dest="output_dir", required=True)


def cmd_phantom(args) -> int:
    dims = _parse_dims(args.dims)
    tumor = phantom.TumorSpec(
        shape=args.shape,
        center=None if args.tumor_center == "auto" else _parse_floats(args.tumor_center, 3),
        radii=_parse_floats(args.radii),
        offset=args.offset,
        seed=args.tumor_seed,
    )
    atlas = phantom.synth_atlas(dims, seed=args.seed)
    patient, truth = phantom.synth_patient(atlas, tumor)
    phantom.save_phantom_case(args.output_dir, atlas, patient, truth, tumor, atlas_seed=args.seed)
    print(f"phantom written to {args.output_dir} (tumor voxels: {truth.count()})")
    return EXIT_OK


def _em_line(iterations: int, converged: bool) -> str:
    stop = "converged" if converged else "hit --max-iters"
    return f"em_iterations={iterations} ({stop})"


def cmd_fit(args) -> int:
    config = _config_from_args(args)
    atlas = phantom.load_atlas_dir(config.atlas_dir)
    values, _, model = pipeline.fit_stage(pipeline.read_scalar(config.input), atlas, config)
    path = os.path.join(config.output_dir, pipeline.MODEL_FILE)
    print(f"model written to {path} (mean over {values.size} masked voxels)")
    if model.loglik_trace is not None:
        print(_em_line(len(model.loglik_trace), model.converged))
    return EXIT_OK


def cmd_gbbm(args) -> int:
    config = _config_from_args(args)
    atlas = phantom.load_atlas_dir(config.atlas_dir)
    values, _, model = pipeline.fit_stage(pipeline.read_scalar(config.input), atlas, config)
    pipeline.gbbm_stage(values, atlas, model, config)
    path = os.path.join(config.output_dir, pipeline.GBBM_FILE)
    print(f"abnormality map written to {path}")
    return EXIT_OK


def cmd_candidate(args) -> int:
    config = _config_from_args(args)
    atlas = phantom.load_atlas_dir(config.atlas_dir)
    region = pipeline.candidate_stage(pipeline.read_scalar(config.input), atlas, config)
    print(f"candidate_voxels={region.voxel_count}")
    return EXIT_OK


def cmd_segment(args) -> int:
    config = _config_from_args(args)
    cand_path = args.candidate or os.path.join(config.output_dir, pipeline.CANDIDATE_FILE)
    patient = pipeline.read_scalar(config.input)
    mask = pipeline.read_mask(cand_path)
    region = CandidateRegion(mask, mask_centroid(mask), mask.count())
    final, _ = pipeline.segment_stage(patient, region, config)
    print(f"iterations={final.iteration}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    seg = pipeline.read_mask(args.input)
    truth = pipeline.read_mask(args.ground_truth)
    report = tanimoto(seg, truth)
    print(f"tm={format(report.tanimoto, '.17g')}")
    print(f"n_input={report.n_x}")
    print(f"n_truth={report.n_g}")
    print(f"n_intersection={report.n_intersection}")
    return EXIT_OK


def _print_report(report: dict) -> None:
    print(pipeline.report_text(report, pipeline.REPORT_KEYS + ("runtime_seconds",)), end="")
    if "em_iterations" in report:
        print(_em_line(report["em_iterations"], report["em_converged"]))


def cmd_pipeline(args) -> int:
    config = _config_from_args(args)
    try:
        report = pipeline.run_pipeline(config)
    except NoCandidateError as err:
        _print_report(err.report)  # then exit 3 through main
        raise
    _print_report(report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvfseg",
        description="atlas-guided tumor segmentation over MVOL volumes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("phantom", help="generate a synthetic case (atlas + patient + truth)")
    _add_common(p, "output")
    p.add_argument("--seed", type=int, default=0, help="atlas noise seed (default 0)")
    p.add_argument("--dims", default="64", help="N or NX,NY,NZ (default 64)")
    p.add_argument("--shape", default="sphere", choices=("sphere", "ellipsoid", "blob"))
    p.add_argument("--radii", default="8", help="comma-separated radii (world units)")
    p.add_argument("--offset", type=float, default=4.0,
                   help="lesion intensity offset in tissue sigmas (0 = control)")
    p.add_argument("--tumor-seed", dest="tumor_seed", type=int, default=0)
    p.add_argument("--tumor-center", dest="tumor_center", default="auto")
    p.set_defaults(func=cmd_phantom)

    p = subs.add_parser("fit", help="fit the three-tissue mixture to a scan")
    _add_common(p, "config", "input", "atlas", "output", input_help="patient scalar MVOL")
    p.add_argument("--max-iters", dest="em_max_iters", type=int, default=None,
                   help="EM iteration cap")
    p.set_defaults(func=cmd_fit)

    p = subs.add_parser("gbbm", help="compute the abnormality map")
    _add_common(p, "config", "input", "atlas", "output", input_help="patient scalar MVOL")
    p.add_argument("--model", default=None, help="serialized model (skips fitting)")
    p.set_defaults(func=cmd_gbbm)

    p = subs.add_parser("candidate", help="extract the candidate region from a map")
    _add_common(p, "config", "input", "atlas", "output",
                input_help="abnormality map MVOL (gbbm.mvol from the gbbm stage),"
                           " NOT the patient scan")
    p.add_argument("--psi", type=float, default=None, help=_PSI_HELP)
    p.set_defaults(func=cmd_candidate)

    p = subs.add_parser("segment", help="refine a candidate mask with the level set")
    _add_common(p, "config", "input", "output",
                input_help="patient scalar MVOL")
    p.add_argument("--candidate", default=None,
                   help="candidate mask (default: candidate.mvol in the output dir)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.set_defaults(func=cmd_segment)

    p = subs.add_parser("evaluate", help="Tanimoto overlap of two masks")
    p.add_argument("--input", required=True, help="segmentation mask MVOL")
    p.add_argument("--ground-truth", dest="ground_truth", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("pipeline", help="run every stage end to end")
    _add_common(p, "config", "input", "atlas", "output")
    p.add_argument("--model", default=None)
    p.add_argument("--ground-truth", dest="ground_truth", default=None)
    p.add_argument("--psi", type=float, default=None, help=_PSI_HELP)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoCandidateError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_CANDIDATE
    except NumericalInstabilityError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INSTABILITY
    except (OSError, MvolFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":
    sys.exit(main())
