#!/usr/bin/env python3
"""Print the sha256 of every deterministic artifact of benchmark workloads.

Builds each named workload's cases with the benchmark's own generator
(perfbench/workloads.py), runs each through run_pipeline and prints one
``workload case file sha256`` line per artifact.  Two checkouts produce
the same artifacts exactly when the outputs of this script diff clean.

Usage, from the root of a checkout:
    python3 scripts/artifact_digests.py lesion64 control128 refit128 --seed 1 [--held-out]
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from fvfseg.errors import NoCandidateError  # noqa: E402
from fvfseg.pipeline import (  # noqa: E402
    CANDIDATE_FILE,
    CANDIDATE_REPORT_FILE,
    EVOLUTION_LOG_FILE,
    GBBM_FILE,
    MODEL_FILE,
    REPORT_FILE,
    SEGMENTATION_FILE,
    PipelineConfig,
    run_pipeline,
)
from perfbench.workloads import WORKLOADS, build_cases  # noqa: E402

ARTIFACTS = (
    MODEL_FILE,
    GBBM_FILE,
    CANDIDATE_FILE,
    CANDIDATE_REPORT_FILE,
    SEGMENTATION_FILE,
    EVOLUTION_LOG_FILE,
    REPORT_FILE,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+", choices=sorted(WORKLOADS), metavar="workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--held-out", action="store_true")
    args = ap.parse_args(argv)

    for workload in args.workloads:
        with tempfile.TemporaryDirectory() as root:
            cases, _ = build_cases(WORKLOADS[workload], args.seed, args.held_out, root)
            for case in cases:
                try:
                    run_pipeline(PipelineConfig(**case.config))
                except NoCandidateError:
                    pass  # report.txt still records the outcome
                out_dir = case.config["output_dir"]
                for name in ARTIFACTS:
                    path = os.path.join(out_dir, name)
                    if os.path.exists(path):
                        with open(path, "rb") as fh:
                            digest = hashlib.sha256(fh.read()).hexdigest()
                        print(workload, case.name, name, digest, flush=True)


if __name__ == "__main__":
    main()
