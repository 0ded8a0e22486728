#!/usr/bin/env python3
"""fvfseg benchmark: fixed-seed phantom cases through fvfseg.pipeline.run_pipeline.

    python3 perfbench/run.py --workload lesion64 --seed 1 --seconds 30 --trace 0

Set-up generates the workload's cases from the seed, writes them as MVOL
files and warms up, three times over; the median counts.  Then one worker
process runs the cases back to back within --seconds (a closed loop with
one client), one case at least twice.  Every run is checked: lesions must
end status=ok with tm at or above their floor, controls must end in
no-candidate, and repeated runs of a case must write byte-identical
artifacts.  A breach counts as a failed run and makes the exit code 1.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, from spans recorded around each
layer's entry point on every other case.  Everything else (environment,
per-run records, spans) goes to .bench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict
from pathlib import Path

from tracing import Span, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# BLAS/OpenMP pools pinned to one thread, here and in the worker.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
# A run must exit within 180 s; the worker is stopped in time to report.
DEADLINE_S = 170.0

# Reported on the last line with --trace 0; names and units match BENCHMARK.json.
END_TO_END = (
    ("case_s_p50", "s"),
    ("case_s_tail", "s"),
    ("mvox_per_s", "Mvox/s"),
    ("peak_mem_mb", "MB"),
    ("setup_s", "s"),
    ("tm_mean", "ratio"),
)
# Printed, not gated: on a passing run they are 0 or 1 by construction
# (every breach already fails the run), and some are undefined on one
# workload (no lesion in control128, no control in the others).
OUTCOME_RATES = (
    ("detect_rate", "ratio"),
    ("false_alarm_rate", "ratio"),
    ("failed_frac", "ratio"),
)

MODULES = ("pipeline", "phantom", "mvol", "ngmm", "brainmap", "candidate", "fvf3d", "metrics")
# per-layer time: metric -> spans whose self time it sums
STAGE_TIMES = {
    "ngmm.em_s": ("ngmm.fit_em",),
    "ngmm.prep_s": ("ngmm.normalize_intensity", "ngmm.sample_masked_intensities"),
    "fvf3d.init_s": ("fvf3d.make_force_context", "fvf3d.signed_distance_init"),
    "fvf3d.evolve_s": ("fvf3d.evolve",),
    "brainmap.gbbm_s": ("brainmap.build_gbbm",),
    "candidate.extract_s": ("candidate.extract_candidate",),
    "mvol.read_s": ("mvol.read_volume",),
    "mvol.write_s": ("mvol.write_volume", "mvol.atomic_write_text"),
}
# per-layer count: metric -> (spans, count key, unit)
STAGE_COUNTS = {
    "ngmm.em_iters": (("ngmm.fit_em",), "iters", "count"),
    "ngmm.em_samples": (("ngmm.fit_em",), "samples", "count"),
    "fvf3d.iters": (("fvf3d.evolve",), "iters", "count"),
    "fvf3d.checkpoints": (("fvf3d.evolve",), "checkpoints", "count"),
    "candidate.voxels": (("candidate.extract_candidate",), "voxels", "count"),
    "candidate.fail_step": (("candidate.extract_candidate",), "fail_step", "step"),
    "mvol.bytes_read": (("mvol.read_volume",), "bytes", "B"),
    "mvol.bytes_written": (("mvol.write_volume", "mvol.atomic_write_text"), "bytes", "B"),
}
PER_LAYER = (
    tuple((name, "s") for name in STAGE_TIMES)
    + tuple((name, unit) for name, (_, _, unit) in STAGE_COUNTS.items())
    + (("ngmm.em_ns_per_sample_iter", "ns"), ("fvf3d.changed_voxels", "count"))
    + tuple((f"{m}.self_s", "s") for m in MODULES)
    + tuple((f"{m}.warnings", "count") for m in MODULES)
    + (("phantom.gen_s", "s"), ("trace.overhead_s", "s"))
)


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it.  Below twenty samples that percentile is under the
    median (or does not exist), so the maximum is reported as p100."""
    xs = sorted(values)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, n
    return xs[-1], 100.0, n


def breaches(run, case, first):
    """Why ``run`` of ``case`` is wrong; ``first`` is the case's first run."""
    found = []
    if run["outcome"] == "error":
        found.append(f"unexpected exception {run['error']}")
    elif case["tm_floor"] is None:
        if run["outcome"] != "no-candidate" or run["status"] != "no-candidate":
            found.append(f"control ended {run['outcome']}/{run['status']}, expected no-candidate")
    elif run["outcome"] != "ok" or run["status"] != "ok":
        found.append(f"lesion ended {run['outcome']}/{run['status']}, expected ok")
    elif run["tm"] is None or run["tm"] < case["tm_floor"]:
        found.append(f"tm {run['tm']} below floor {case['tm_floor']}")
    if first is not None and run["digests"] != first["digests"]:
        names = sorted(
            k for k in set(run["digests"]) | set(first["digests"])
            if run["digests"].get(k) != first["digests"].get(k)
        )
        found.append(f"artifacts differ from the first run: {', '.join(names)}")
    return found


def end_to_end(runs, cases, failed, peak_rss_mb, setup_s):
    by_name = {c["name"]: c for c in cases}
    walls = [r["wall_s"] for r in runs]
    tail_s, tail_pct, n = tail(walls)
    lesion = [r for r in runs if by_name[r["case"]]["tm_floor"] is not None]
    control = [r for r in runs if by_name[r["case"]]["tm_floor"] is None]
    # tm per distinct case (repeats are byte-identical).  A control holds no
    # lesion, and fvfseg.metrics.tanimoto scores an empty output against an
    # empty truth as 1; a control that yields a candidate scores 0.
    tm = {}
    for r in runs:
        if by_name[r["case"]]["tm_floor"] is None:
            tm.setdefault(r["case"], 1.0 if r["outcome"] == "no-candidate" else 0.0)
        else:
            tm.setdefault(r["case"], r["tm"] or 0.0)
    metrics = {
        "case_s_p50": statistics.median(walls),
        "case_s_tail": tail_s,
        "mvox_per_s": statistics.median(
            by_name[r["case"]]["brain_voxels"] / r["wall_s"] / 1e6 for r in runs
        ),
        "peak_mem_mb": peak_rss_mb,
        "setup_s": setup_s,
        "tm_mean": statistics.fmean(tm.values()),
        "detect_rate": (
            sum(r["status"] == "ok" for r in lesion) / len(lesion) if lesion else None
        ),
        "false_alarm_rate": (
            sum(r["outcome"] != "no-candidate" for r in control) / len(control)
            if control
            else None
        ),
        "failed_frac": failed / len(runs),
    }
    return metrics, {"tail_percentile": tail_pct, "tail_samples": n}


def per_layer(runs, spans, gen_s):
    """Medians over the traced runs of each layer's per-case numbers."""
    spans = [Span(**s) for s in spans]
    times = defaultdict(Counter)  # case id -> span name -> self seconds
    counts = defaultdict(Counter)  # case id -> (span name, count key) -> total
    for span, own in zip(spans, self_times(spans)):
        times[span.case][span.name] += own
        for key, value in span.counts.items():
            if key != "error":
                counts[span.case][span.name, key] += value

    values = defaultdict(list)
    for i, run in enumerate(runs):
        if not run["traced"]:
            continue
        case = f"{run['case']}#{i}"
        row = {}
        for name, span_names in STAGE_TIMES.items():
            row[name] = sum(times[case][s] for s in span_names)
        for name, (span_names, key, _) in STAGE_COUNTS.items():
            row[name] = sum(counts[case][s, key] for s in span_names)
        work = row["ngmm.em_samples"] * row["ngmm.em_iters"]
        row["ngmm.em_ns_per_sample_iter"] = row["ngmm.em_s"] * 1e9 / work if work else 0.0
        row["fvf3d.changed_voxels"] = run.get("changed_voxels", 0)
        for m in MODULES:
            row[f"{m}.self_s"] = sum(t for n, t in times[case].items() if n.startswith(m + "."))
            row[f"{m}.warnings"] = sum(
                c for (n, key), c in counts[case].items() if key == "warnings" and n.startswith(m + ".")
            )
        for name, value in row.items():
            values[name].append(value)

    out = {name: statistics.median(v) for name, v in values.items()}
    out["phantom.gen_s"] = gen_s
    traced = [r["wall_s"] for r in runs if r["traced"]]
    untraced = [r["wall_s"] for r in runs if not r["traced"]]
    out["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced) if untraced else 0.0
    )
    return out


def environment(args, dims):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.held_out,
        "dims": dims,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "loop": "closed, 1 client, 1 worker process",
    }


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def set_up(workload, args, dims, work):
    """Write the cases and their warm-up copy SETUP_REPEATS times over;
    returns the cases, the warm-up cases and each repeat's timings."""
    from workloads import WARMUP_DIMS, build_cases

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases, parts = build_cases(workload, args.seed, args.held_out, str(work / "cases"), dims)
        warmup, _ = build_cases(
            workload, args.seed, args.held_out, str(work / "warmup"), min(dims, WARMUP_DIMS), 1
        )
        parts["total_s"] = time.perf_counter() - t0
        setups.append(parts)
    return cases, warmup, setups


def run_worker(plan, work, timeout):
    """Run the closed loop in one worker process; None if it failed."""
    plan_path = work / "plan.json"
    result_path = work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(BENCH_DIR), str(SRC)])
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path), str(result_path)],
            env=env,
            stdout=sys.stderr,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print("benchmark: worker ran past the deadline and was stopped", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"benchmark: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def judge(runs, cases):
    """Attach each run's breaches; returns (failed runs, whether a case repeated)."""
    by_name = {c["name"]: c for c in cases}
    first = {}
    failed = 0
    for run in runs:
        run["breaches"] = breaches(run, by_name[run["case"]], first.get(run["case"]))
        first.setdefault(run["case"], run)
        failed += bool(run["breaches"])
    return failed, len(first) < len(runs)


def main(argv=None):
    started = time.perf_counter()
    if not (SRC / "fvfseg" / "__init__.py").is_file():
        print(f"benchmark: no fvfseg sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    import fvfseg

    if Path(fvfseg.__file__).resolve().parent != SRC / "fvfseg":
        print(f"benchmark: imported fvfseg from {fvfseg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--held-out", action="store_true",
        help="draw inputs from the held-out seed stream, disjoint from development seeds",
    )
    ap.add_argument("--dims", type=int, default=None, help="override the grid size (smoke tests)")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    dims = args.dims or workload.dims
    stem = f"{args.workload}-d{dims}-s{args.seed}{'-heldout' if args.held_out else ''}-t{args.trace}"
    work = OUT / "work" / stem
    shutil.rmtree(work, ignore_errors=True)

    cases, warmup, setups = set_up(workload, args, dims, work)
    plan = {
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "min_runs": len(cases) + 1,  # at least one case runs twice
        "warmup_repeats": SETUP_REPEATS,
        "cases": [asdict(c) for c in cases],
        "warmup": [asdict(c) for c in warmup],
    }
    result = run_worker(plan, work, max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    if result is None:
        return 1
    runs = result["runs"]
    failed, repeated = judge(runs, plan["cases"])
    correct = failed == 0 and repeated

    for parts, warmup_s in zip(setups, result["warmup_s"]):
        parts["warmup_s"] = warmup_s
    setup_s = statistics.median(s["total_s"] + s["warmup_s"] for s in setups)
    e2e, tail_info = end_to_end(runs, plan["cases"], failed, result["peak_rss_mb"], setup_s)
    units = dict(END_TO_END + OUTCOME_RATES + PER_LAYER)
    if args.trace:
        shown = per_layer(runs, result["spans"], statistics.median(s["gen_s"] for s in setups))
        reported = {name: shown[name] for name, _ in PER_LAYER}
    else:
        shown = e2e
        reported = {name: e2e[name] for name, _ in END_TO_END}

    environment_record = environment(args, dims)
    OUT.mkdir(exist_ok=True)
    summary = {
        "environment": environment_record,
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "end_to_end": e2e,
        **tail_info,
        "per_layer": shown if args.trace else None,
        "setup": setups,
        "runs": runs,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print("environment " + json.dumps(environment_record, sort_keys=True))
    print(f"{args.workload}: {len(runs)} runs, {failed} failed, window {args.seconds:g} s")
    for i, run in enumerate(runs):
        for why in run["breaches"]:
            print(f"  FAILED run {i} ({run['case']}): {why}")
    if not repeated:
        print("  FAILED: no case ran twice, so determinism was not checked")
    for name, unit in PER_LAYER if args.trace else END_TO_END + OUTCOME_RATES:
        print(f"  {name:<28} {_fmt(shown[name]):>12} {unit}")
    if args.trace:
        ranked = sorted(MODULES, key=lambda m: -shown[f"{m}.self_s"])
        print("  self time by module: " + ", ".join(
            f"{m} {shown[f'{m}.self_s']:.4g} s" for m in ranked
        ))
    else:
        print(
            f"  (case_s_tail is p{tail_info['tail_percentile']:.4g} of "
            f"{tail_info['tail_samples']} runs)"
        )
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": reported[name], "unit": units[name]} for name in reported},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
