"""scripts/artifact_digests.py --compare on two tiny kept trees."""

import importlib.util
import os
import shutil

import numpy as np
import pytest

from fvfseg.mvol import atomic_write_text, write_volume
from fvfseg.ngmm import TissueMixtureModel, save_model
from fvfseg.pipeline import (
    CANDIDATE_FILE,
    CANDIDATE_REPORT_FILE,
    EVOLUTION_LOG_FILE,
    GBBM_FILE,
    MODEL_FILE,
    REPORT_FILE,
)
from fvfseg.phantom import ATLAS_FILES, MANIFEST_FILE, PATIENT_FILE, TRUTH_FILE
from fvfseg.volume import BinaryMask, ScalarVolume

UNIT = (1.0, 1.0, 1.0)
SCRIPT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts", "artifact_digests.py")


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_case(out, model, gbbm, candidate, report):
    os.makedirs(out)
    save_model(model, os.path.join(out, MODEL_FILE))
    write_volume(ScalarVolume(gbbm, UNIT), os.path.join(out, GBBM_FILE))
    write_volume(BinaryMask(candidate, UNIT), os.path.join(out, CANDIDATE_FILE))
    atomic_write_text(os.path.join(out, REPORT_FILE), report)


def test_compare_reports_each_artifact(digests, tmp_path, capsys):
    model = TissueMixtureModel((0.2, 0.5, 0.3), (0.6, 1.0, 1.25), (0.08, 0.1, 0.12))
    moved = TissueMixtureModel((0.2, 0.5, 0.3), (0.6, 1.0, 1.25 * (1 + 2e-6)), (0.08, 0.1, 0.12))
    gbbm = np.linspace(0.0, 200.0, 4 * 5 * 6, dtype=np.float32).reshape(4, 5, 6)
    candidate = gbbm > 153.0
    shifted = gbbm.copy()
    shifted[0, 0, 0] += 0.25  # stays below psi = 153
    shifted[3, 4, 5] = 150.0  # crosses psi
    fewer = candidate.copy()
    fewer[3, 4, 5] = False

    a, b = tmp_path / "a", tmp_path / "b"
    _write_case(a / "wl" / "out" / "case1", model, gbbm, candidate, "status=ok\n")
    _write_case(b / "wl" / "out" / "case1", moved, shifted, fewer, "status=no-candidate\n")
    _write_case(a / "wl" / "out" / "case2", model, gbbm, candidate, "status=ok\n")
    shutil.copytree(a / "wl" / "out" / "case2", b / "wl" / "out" / "case2")
    atomic_write_text(str(a / "wl" / "out" / "case2" / CANDIDATE_REPORT_FILE), "final_voxels=1\n")

    assert digests.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "wl case1 model.txt max_rel_change=2e-06",
        "wl case1 gbbm.mvol max_abs_diff=50 psi_crossings=1",
        "wl case1 candidate.mvol voxels_differ=1",
        "wl case1 report.txt differs",
        "wl case2 model.txt same",
        "wl case2 gbbm.mvol same",
        "wl case2 candidate.mvol same",
        "wl case2 candidate_report.txt only in A",
        "wl case2 report.txt same",
        "4 of 9 same",
    ]


def _log_line(it, inside, changed, max_update, cos=None):
    line = f"iter={it} inside={inside} changed={changed} max_update={max_update!r}"
    return line + ("" if cos is None else f" cos_gamma_mean={cos!r}") + "\n"


def test_compare_gives_evolution_log_field_by_field(digests, tmp_path, capsys):
    model = TissueMixtureModel((0.2, 0.5, 0.3), (0.6, 1.0, 1.25), (0.08, 0.1, 0.12))
    gbbm = np.zeros((3, 3, 3), dtype=np.float32)
    a, b = tmp_path / "a", tmp_path / "b"
    logs = {
        # equal counts, floats moved
        "c1": (
            _log_line(20, 100, 5, 0.5, 0.25) + _log_line(40, 110, 15, 0.75, 0.5),
            _log_line(20, 100, 5, 0.5, 0.25) + _log_line(40, 110, 15, 0.625, 0.5 + 2**-20),
        ),
        # one more checkpoint, and inside/changed differ on the shared one
        "c2": (
            _log_line(20, 100, 5, 0.5, 0.25),
            _log_line(20, 101, 6, 0.5, 0.25) + _log_line(40, 101, 6, 0.25, 0.25),
        ),
        # no force context: no cos_gamma_mean
        "c3": (_log_line(20, 100, 5, 0.5), _log_line(20, 100, 5, 0.5)),
    }
    for case, (log_a, log_b) in logs.items():
        for tree, text in ((a, log_a), (b, log_b)):
            out = tree / "wl" / "out" / case
            _write_case(out, model, gbbm, gbbm > 1, "status=ok\n")
            atomic_write_text(str(out / EVOLUTION_LOG_FILE), text)

    assert digests.main(["--compare", str(a), str(b)]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if "evolution.log" in line]
    assert lines == [
        "wl c1 evolution.log iter=equal inside=equal changed=equal"
        " max_update_max_abs_diff=0.125 cos_gamma_mean_max_abs_diff=9.54e-07",
        "wl c2 evolution.log checkpoints=1/2 iter=equal inside=differs changed=differs"
        " max_update_max_abs_diff=0 cos_gamma_mean_max_abs_diff=0",
        "wl c3 evolution.log same",
    ]


def test_compare_of_identical_trees_exits_zero(digests, tmp_path, capsys):
    model = TissueMixtureModel((0.2, 0.5, 0.3), (0.6, 1.0, 1.25), (0.08, 0.1, 0.12))
    gbbm = np.linspace(0.0, 200.0, 27, dtype=np.float32).reshape(3, 3, 3)
    a, b = tmp_path / "a", tmp_path / "b"
    _write_case(a / "wl" / "out" / "case", model, gbbm, gbbm > 153.0, "status=ok\n")
    shutil.copytree(a, b)
    assert digests.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "4 of 4 same"
    # nothing to compare is no pass
    (tmp_path / "e1").mkdir()
    (tmp_path / "e2").mkdir()
    assert digests.main(["--compare", str(tmp_path / "e1"), str(tmp_path / "e2")]) == 1
    assert capsys.readouterr().out.splitlines() == ["0 of 0 same"]


def _write_inputs(case_dir, template, truth, manifest, prefit=None):
    """The set-up inputs of a case; ``prefit`` is (file name, model)."""
    os.makedirs(case_dir)
    for name in (*ATLAS_FILES.values(), PATIENT_FILE):
        write_volume(ScalarVolume(template, UNIT), os.path.join(case_dir, name))
    write_volume(BinaryMask(truth, UNIT), os.path.join(case_dir, TRUTH_FILE))
    atomic_write_text(os.path.join(case_dir, MANIFEST_FILE), manifest)
    if prefit is not None:
        save_model(prefit[1], os.path.join(case_dir, prefit[0]))


def test_compare_reports_each_input_before_the_artifacts(digests, tmp_path, capsys):
    model = TissueMixtureModel((0.2, 0.5, 0.3), (0.6, 1.0, 1.25), (0.08, 0.1, 0.12))
    moved = TissueMixtureModel((0.2, 0.5, 0.3), (0.6 * (1 - 3e-5), 1.0, 1.25), (0.08, 0.1, 0.12))
    prefit = digests.PREFIT_MODEL_FILE
    template = np.linspace(0.0, 1.0, 27, dtype=np.float32).reshape(3, 3, 3)
    truth = template > 0.5
    a, b = tmp_path / "a", tmp_path / "b"
    for tree in (a, b):
        _write_case(tree / "wl" / "out" / "case", model, template, truth, "status=ok\n")
        _write_case(tree / "wl" / "out" / "ctl", model, template, truth, "status=ok\n")
        _write_inputs(tree / "wl" / "ctl", template, truth, "offset=0\n")
    _write_inputs(a / "wl" / "case", template, truth, "offset=4\n", (prefit, model))
    _write_inputs(b / "wl" / "case", template, ~truth, "offset=3\n", (prefit, moved))
    (b / "wl" / "ctl" / PATIENT_FILE).unlink()

    assert digests.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    atlas = [f"{name} same" for name in ATLAS_FILES.values()]
    outputs = [f"{name} same" for name in (MODEL_FILE, GBBM_FILE, CANDIDATE_FILE, REPORT_FILE)]
    assert lines == [
        *(f"wl case {verdict}" for verdict in atlas),
        "wl case patient.mvol same",
        "wl case tumor_truth.mvol voxels_differ=27",
        "wl case manifest.txt differs",
        "wl case prefit_model.txt max_rel_change=3e-05",
        *(f"wl case {verdict}" for verdict in outputs),
        *(f"wl ctl {verdict}" for verdict in atlas),
        "wl ctl patient.mvol only in A",
        "wl ctl tumor_truth.mvol same",
        "wl ctl manifest.txt same",
        *(f"wl ctl {verdict}" for verdict in outputs),
        "21 of 25 same",
    ]


def test_compare_rejects_workloads(digests):
    with pytest.raises(SystemExit):
        digests.main(["lesion64", "--compare", "a", "b"])
