#!/usr/bin/env python3
"""Print the sha256 of every deterministic artifact of benchmark workloads.

Builds each named workload's cases with the benchmark's own generator
(perfbench/workloads.py), runs each through run_pipeline and prints one
``workload case file sha256`` line per file: first the case's set-up
inputs (the five atlas volumes, patient.mvol, tumor_truth.mvol,
manifest.txt and, for a refit workload, prefit_model.txt), then its
pipeline artifacts.  Two checkouts produce the same inputs and artifacts
exactly when the outputs of this script diff clean.

``--keep DIR`` builds and runs the cases under DIR/<workload> instead of a
temporary directory and leaves them there (outputs in
DIR/<workload>/out/<case>, inputs in DIR/<workload>/<case>).
``--compare A B`` reads two such kept trees and prints one ``workload case
file verdict`` line per input and per artifact, where the verdict is ``same``
for identical bytes; otherwise, for a scalar .mvol, the largest absolute
difference and the number of voxels on different sides of the default psi;
for a mask .mvol, the number of differing voxels; for model.txt and
prefit_model.txt, the largest relative parameter change; for
evolution.log, field by field over the checkpoints both logs hold, whether
``iter``, ``inside`` and ``changed`` are equal and the largest absolute
difference of ``max_update`` and ``cos_gamma_mean`` (and the two
checkpoint counts when they differ); for other files, ``differs``. A last
line ``N of M same`` sums up, and the exit status is 0 only when every
input and artifact is the same, so the comparison can serve as a gate.

Usage, from the root of a checkout:
    python3 scripts/artifact_digests.py lesion64 control128 refit128 --seed 1 [--held-out]
    python3 scripts/artifact_digests.py lesion64 --seed 1 --keep /tmp/before
    python3 scripts/artifact_digests.py --compare /tmp/before /tmp/after
"""

import argparse
import hashlib
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from fvfseg.errors import NoCandidateError  # noqa: E402
from fvfseg.mvol import read_volume  # noqa: E402
from fvfseg.ngmm import load_model  # noqa: E402
from fvfseg.phantom import ATLAS_FILES, MANIFEST_FILE, PATIENT_FILE, TRUTH_FILE  # noqa: E402
from fvfseg.pipeline import (  # noqa: E402
    ARTIFACTS,
    EVOLUTION_LOG_FILE,
    MODEL_FILE,
    REPORT_FILE,
    PipelineConfig,
    run_pipeline,
)
from fvfseg.volume import ScalarVolume  # noqa: E402
from perfbench.workloads import MODEL_FILE as PREFIT_MODEL_FILE  # noqa: E402
from perfbench.workloads import WORKLOADS, build_cases  # noqa: E402

# The set-up inputs of a case, which build_cases writes to ROOT/<case>
# beside its outputs in ROOT/out/<case>.
INPUTS = (*ATLAS_FILES.values(), PATIENT_FILE, TRUTH_FILE, MANIFEST_FILE, PREFIT_MODEL_FILE)


def _input_dir(out_dir):
    """The input directory of the case whose outputs are in ``out_dir``."""
    return os.path.join(os.path.dirname(os.path.dirname(out_dir)), os.path.basename(out_dir))


def _files(out_dir):
    """(directory, name) of each input, then of each artifact, of a case."""
    return [(_input_dir(out_dir), name) for name in INPUTS] + [
        (out_dir, name) for name in ARTIFACTS
    ]


def digest_workload(workload, seed, held_out, root):
    """Build and run the workload's cases under ``root``; print the digests."""
    cases, _ = build_cases(WORKLOADS[workload], seed, held_out, root)
    for case in cases:
        try:
            run_pipeline(PipelineConfig(**case.config))
        except NoCandidateError:
            pass  # report.txt still records the outcome
        for folder, name in _files(case.config["output_dir"]):
            path = os.path.join(folder, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(workload, case.name, name, digest, flush=True)


def _model_change(path_a, path_b) -> str:
    a, b = load_model(path_a), load_model(path_b)
    if a.n_components != b.n_components:
        return f"K differs ({a.n_components} vs {b.n_components})"
    pairs = zip(a.weights + a.means + a.stds, b.weights + b.means + b.stds)
    rel = max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y), default=0.0)
    return f"max_rel_change={rel:.3g}"


_LOG_COUNTS = ("iter", "inside", "changed")
_LOG_FLOATS = ("max_update", "cos_gamma_mean")


def _read_log(path):
    with open(path) as fh:
        return [dict(part.split("=", 1) for part in line.split()) for line in fh if line.strip()]


def _log_change(path_a, path_b) -> str:
    a, b = _read_log(path_a), _read_log(path_b)
    parts = [] if len(a) == len(b) else [f"checkpoints={len(a)}/{len(b)}"]
    for key in _LOG_COUNTS + _LOG_FLOATS:
        pairs = [(ra[key], rb[key]) for ra, rb in zip(a, b) if key in ra and key in rb]
        if not pairs:
            continue
        if key in _LOG_COUNTS:
            parts.append(f"{key}={'equal' if all(x == y for x, y in pairs) else 'differs'}")
        else:
            diff = max(abs(float(x) - float(y)) for x, y in pairs)
            parts.append(f"{key}_max_abs_diff={diff:.3g}")
    return " ".join(parts)


def _volume_change(path_a, path_b, psi) -> str:
    a, b = read_volume(path_a), read_volume(path_b)
    if type(a) is not type(b) or a.dims != b.dims:
        return "grid or kind differs"
    if isinstance(a, ScalarVolume):
        diff = np.abs(a.data.astype(np.float64) - b.data).max()
        crossings = int(np.count_nonzero((a.data > psi) != (b.data > psi)))
        return f"max_abs_diff={diff:.3g} psi_crossings={crossings}"
    return f"voxels_differ={int(np.count_nonzero(a.data != b.data))}"


def compare_artifact(path_a, path_b, psi) -> str | None:
    """One verdict on the artifact at two paths; None when neither exists."""
    exists_a, exists_b = os.path.exists(path_a), os.path.exists(path_b)
    if not (exists_a or exists_b):
        return None
    if not (exists_a and exists_b):
        return "only in A" if exists_a else "only in B"
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() == fb.read():
            return "same"
    name = os.path.basename(path_a)
    if name in (MODEL_FILE, PREFIT_MODEL_FILE):
        return _model_change(path_a, path_b)
    if name == EVOLUTION_LOG_FILE:
        return _log_change(path_a, path_b)
    if name.endswith(".mvol"):
        return _volume_change(path_a, path_b, psi)
    return "differs"


def _case_dirs(tree):
    """Case output directories under a kept tree, relative and sorted."""
    return sorted(
        os.path.relpath(path, tree)
        for path, _, files in os.walk(tree)
        if REPORT_FILE in files
    )


def compare_trees(tree_a, tree_b) -> bool:
    """Print a verdict per input and per artifact and the summary; True
    when every one of them (at least one) is the same."""
    psi = PipelineConfig().psi  # the workloads run at the default
    same = total = 0
    for rel in sorted(set(_case_dirs(tree_a)) | set(_case_dirs(tree_b))):
        parts = rel.split(os.sep)
        for folder, name in _files(rel):
            verdict = compare_artifact(
                os.path.join(tree_a, folder, name), os.path.join(tree_b, folder, name), psi
            )
            if verdict is not None:
                print(parts[0], parts[-1], name, verdict, flush=True)
                total += 1
                same += verdict == "same"
    print(f"{same} of {total} same", flush=True)
    return total > 0 and same == total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="workload", help=", ".join(sorted(WORKLOADS)))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", action="store_true")
    ap.add_argument("--keep", metavar="DIR", help="build and keep the cases under DIR")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two kept trees")
    args = ap.parse_args(argv)

    if args.compare:
        if args.workloads or args.keep:
            ap.error("--compare takes no workloads and no --keep")
        return 0 if compare_trees(*args.compare) else 1
    if not args.workloads:
        ap.error("name at least one workload")
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        known = ", ".join(sorted(WORKLOADS))
        ap.error(f"unknown workload(s) {', '.join(unknown)}; choose from {known}")
    for workload in args.workloads:
        if args.keep:
            root = os.path.join(args.keep, workload)
            os.makedirs(root)  # refuses a tree that could hold stale outputs
            digest_workload(workload, args.seed, args.held_out, root)
        else:
            with tempfile.TemporaryDirectory() as root:
                digest_workload(workload, args.seed, args.held_out, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
