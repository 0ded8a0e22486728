"""Closed-loop worker: one process, one client, cases run back to back.

run.py starts this with a plan file (JSON) and reads the result file it
writes.  Keeping the cases in their own process keeps phantom generation
out of the peak memory reported for the pipeline.

    python3 perfbench/worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict

from fvfseg.errors import NoCandidateError
from fvfseg.mvol import read_volume
from fvfseg.pipeline import (
    CANDIDATE_FILE,
    GBBM_FILE,
    MODEL_FILE,
    REPORT_FILE,
    SEGMENTATION_FILE,
    PipelineConfig,
    run_pipeline,
)

from tracing import ROOT_SPAN, Tracer

# Deterministic artifacts that must repeat byte for byte across runs of a case.
ARTIFACTS = (MODEL_FILE, GBBM_FILE, CANDIDATE_FILE, SEGMENTATION_FILE, REPORT_FILE)


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report_fields(out_dir):
    path = os.path.join(out_dir, REPORT_FILE)
    if not os.path.exists(path):
        return {}
    with open(path, encoding="ascii") as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines() if "=" in line)


def run_case(case, tracer=None):
    """Run one case; returns its record.  Only run_pipeline is timed."""
    out_dir = case["config"]["output_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    config = PipelineConfig(**case["config"])
    record = {"case": case["name"], "traced": tracer is not None, "error": None}
    if tracer is None:
        patched, call = nullcontext(), lambda: run_pipeline(config)
    else:
        patched, call = tracer.installed(), lambda: tracer.call(ROOT_SPAN, run_pipeline, (config,), {})
    with patched:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            call()
            record["outcome"] = "ok"
        except NoCandidateError:
            record["outcome"] = "no-candidate"
        except Exception as err:  # a failed case is counted, the loop goes on
            record["outcome"] = "error"
            record["error"] = f"{type(err).__name__}: {err}"
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = time.process_time() - c0

    report = _report_fields(out_dir)
    record["status"] = report.get("status")
    record["tm"] = float(report["tm"]) if "tm" in report else None
    record["digests"] = {
        name: _digest(os.path.join(out_dir, name))
        for name in ARTIFACTS
        if os.path.exists(os.path.join(out_dir, name))
    }
    cand = os.path.join(out_dir, CANDIDATE_FILE)
    seg = os.path.join(out_dir, SEGMENTATION_FILE)
    if tracer is not None and os.path.exists(cand) and os.path.exists(seg):
        # voxels the level set moved: segmentation XOR candidate
        record["changed_voxels"] = int(
            (read_volume(cand).data != read_volume(seg).data).sum()
        )
    return record


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    warmup_s = []
    for _ in range(plan["warmup_repeats"]):
        t0 = time.perf_counter()
        for case in plan["warmup"]:
            run_case(case)
        warmup_s.append(time.perf_counter() - t0)

    tracer = Tracer() if plan["trace"] else None
    cases = plan["cases"]
    runs = []
    start = time.perf_counter()
    # Start another case only if a median case would still end inside the window.
    while len(runs) < plan["min_runs"] or (
        time.perf_counter() - start + statistics.median(r["wall_s"] for r in runs)
        <= plan["seconds"]
    ):
        i = len(runs)
        case = cases[i % len(cases)]
        # A traced run alternates traced and untraced cases, so the tracing
        # overhead is measured in the same process and time window.
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.case = f"{case['name']}#{i}"
        runs.append(run_case(case, tracer if traced else None))

    result = {
        "warmup_s": warmup_s,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": [asdict(s) for s in tracer.spans] if tracer else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
