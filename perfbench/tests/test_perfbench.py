"""Tests of the benchmark itself: span arithmetic, gates, metric names, and a
32^3 smoke run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from tracing import ENTRY_POINTS, Span, Tracer, self_times  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        Span("pipeline.run_pipeline", 0.0, 10.0, None, "c"),
        Span("ngmm.fit_em", 1.0, 3.0, 0, "c"),
        Span("mvol.read_volume", 2.0, 4.0, 0, "c"),  # overlaps the previous child
        Span("fvf3d.evolve", 9.0, 12.0, 0, "c"),  # runs past the parent's end
        Span("mvol.read_volume", 1.5, 2.0, 1, "c"),  # grandchild: not the root's
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 2.0, 3.0, 0.5])


def test_tracer_nests_spans_counts_own_warnings_and_restores_patches():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.case = "c#0"

    def inner():
        warnings.warn("inner", UserWarning)
        warnings.warn("inner", UserWarning)

    def outer():
        tracer.call("candidate.extract_candidate", inner, (), {})
        warnings.warn("outer", UserWarning)
        return 7

    assert tracer.call("pipeline.run_pipeline", outer, (), {}) == 7
    root, child = tracer.spans
    assert (child.parent, root.parent) == (0, None)
    assert child.counts["warnings"] == 2 and root.counts["warnings"] == 1
    assert root.start < child.start < child.end < root.end

    import fvfseg.pipeline

    original = fvfseg.pipeline.fit_em
    with tracer.installed():
        assert fvfseg.pipeline.fit_em is not original
    assert fvfseg.pipeline.fit_em is original
    assert all(hasattr(__import__(m, fromlist=[a]), a) for m, a, _, _ in ENTRY_POINTS)


def test_tracer_records_the_failing_step_and_reraises():
    from fvfseg.errors import NoCandidateError

    tracer = Tracer()

    def fail():
        raise NoCandidateError(3)

    with pytest.raises(NoCandidateError):
        tracer.call("candidate.extract_candidate", fail, (), {})
    assert tracer.spans[0].counts["fail_step"] == 3


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(i) for i in range(19)]) == (18.0, 100.0, 19)
    value, pct, n = run.tail([float(i) for i in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)  # ten samples, 30..39, lie beyond


def test_breaches_cover_outcome_floor_and_determinism():
    lesion = {"tm_floor": 0.8}
    control = {"tm_floor": None}
    good = {"outcome": "ok", "status": "ok", "tm": 0.9, "digests": {"a": "1"}, "error": None}
    assert run.breaches(good, lesion, good) == []
    assert run.breaches({**good, "tm": 0.7}, lesion, None)
    assert run.breaches(good, control, None)
    assert run.breaches({**good, "digests": {"a": "2"}}, lesion, good)
    nocand = {**good, "outcome": "no-candidate", "status": "no-candidate", "tm": None}
    assert run.breaches(nocand, control, None) == []
    assert run.breaches(nocand, lesion, None)
    assert run.breaches({**good, "outcome": "error", "error": "ValueError: x"}, lesion, None)


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["lesion64", "control128", "refit128"])
def test_smoke_run_at_32_cubed(workload, trace):
    proc = _bench(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), "--dims", "32",
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    group = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _spec()[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["attempted"] >= 2
    # Detection is unreliable below 64^3, so a lesion may fail its gate
    # here; the exit code must still agree with the verdict.
    assert (proc.returncode == 0) == result["correct"]
    if workload == "control128":
        assert result["correct"] and result["failed"] == 0


def test_exits_nonzero_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "lesion64", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
