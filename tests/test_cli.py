import os
import shutil

import numpy as np
import pytest

from fvfseg import fvf3d, pipeline
from fvfseg.cli import (
    EXIT_GENERIC,
    EXIT_INSTABILITY,
    EXIT_IO,
    EXIT_NO_CANDIDATE,
    EXIT_OK,
    main,
)
from fvfseg.mvol import read_volume, write_volume
from fvfseg.phantom import ATLAS_FILES, MANIFEST_FILE, PATIENT_FILE, TRUTH_FILE
from fvfseg.volume import ScalarVolume

DIMS_FLAG = "48"


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    """One phantom case shared by the whole module, built through the CLI."""
    path = tmp_path_factory.mktemp("case")
    code = main(
        [
            "phantom",
            "--output-dir", str(path),
            "--dims", DIMS_FLAG,
            "--shape", "sphere",
            "--radii", "8",
            "--offset", "4",
            "--seed", "0",
            "--tumor-seed", "1",
        ]
    )
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def pipeline_out(case_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    code = main(
        [
            "pipeline",
            "--input", str(case_dir / PATIENT_FILE),
            "--atlas-dir", str(case_dir),
            "--output-dir", str(out),
            "--ground-truth", str(case_dir / TRUTH_FILE),
        ]
    )
    assert code == EXIT_OK
    return out


def _files(out):
    """Each file of ``out`` by name: its bytes and its modification time, so
    a file rewritten with the same bytes still shows."""
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}


# a well-formed model file of two components
TWO_COMPONENT_MODEL = (
    "K=2\nweight_0=0.5\nmean_0=0.8\nstd_0=0.1\nweight_1=0.5\nmean_1=1.1\nstd_1=0.1\n"
)


class TestPhantomCommand:
    def test_writes_complete_case(self, case_dir, capsys):
        expected = set(ATLAS_FILES.values()) | {PATIENT_FILE, TRUTH_FILE, MANIFEST_FILE}
        assert {p.name for p in case_dir.iterdir()} == expected

    def test_dims_triple_accepted(self, tmp_path):
        code = main(
            ["phantom", "--output-dir", str(tmp_path), "--dims", "48,48,40",
             "--radii", "6"]
        )
        assert code == EXIT_OK
        assert read_volume(tmp_path / PATIENT_FILE).dims == (48, 48, 40)

    def test_bad_dims_exit_one(self, tmp_path, capsys):
        code = main(["phantom", "--output-dir", str(tmp_path), "--dims", "48,48"])
        assert code == EXIT_GENERIC
        assert "error:" in capsys.readouterr().err

    def test_weak_offset_exit_one(self, tmp_path, capsys):
        code = main(
            ["phantom", "--output-dir", str(tmp_path), "--dims", DIMS_FLAG,
             "--offset", "1.5"]
        )
        assert code == EXIT_GENERIC
        assert "offset" in capsys.readouterr().err


class TestPipelineCommand:
    def test_report_lines_on_stdout(self, case_dir, pipeline_out, tmp_path, capsys):
        capsys.readouterr()  # drop fixture output
        out = tmp_path / "run"
        code = main(
            [
                "pipeline",
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(out),
                "--ground-truth", str(case_dir / TRUTH_FILE),
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert keys == [
            "status", "tm", "iterations", "candidate_voxels", "runtime_seconds", "em_iterations"
        ]
        values = dict(line.split("=", 1) for line in lines)
        assert values["status"] == "ok"
        count, stop = values["em_iterations"].split()
        assert int(count) > 1 and stop == "(converged)"
        assert 0.0 <= float(values["tm"]) <= 1.0
        assert int(values["iterations"]) > 0
        assert int(values["candidate_voxels"]) > 0

    def test_writes_all_artifacts(self, pipeline_out):
        expected = {
            pipeline.MODEL_FILE,
            pipeline.GBBM_FILE,
            pipeline.CANDIDATE_FILE,
            pipeline.CANDIDATE_REPORT_FILE,
            pipeline.SEGMENTATION_FILE,
            pipeline.EVOLUTION_LOG_FILE,
            pipeline.REPORT_FILE,
        }
        assert {p.name for p in pipeline_out.iterdir()} == expected

    def test_evolution_log_counts_changed_voxels(self, pipeline_out):
        lines = (pipeline_out / pipeline.EVOLUTION_LOG_FILE).read_text().splitlines()
        last = dict(part.split("=", 1) for part in lines[-1].split())
        candidate = read_volume(str(pipeline_out / pipeline.CANDIDATE_FILE)).data
        segmentation = read_volume(str(pipeline_out / pipeline.SEGMENTATION_FILE)).data
        assert int(last["changed"]) == int((candidate != segmentation).sum())
        assert int(last["inside"]) == int(segmentation.sum())

    def test_report_file_deterministic_keys(self, pipeline_out):
        text = (pipeline_out / pipeline.REPORT_FILE).read_text()
        entries = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert entries["status"] == "ok"
        assert float(entries["tm"]) > 0.0
        assert int(entries["iterations"]) > 0
        # wall time goes to stdout only; the file must rerun byte-identical
        assert "runtime_seconds" not in entries

    def test_missing_atlas_dir_exit_two(self, case_dir, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        code = main(
            [
                "pipeline",
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(missing),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_IO
        assert "nowhere" in capsys.readouterr().err

    def test_control_case_exit_three_with_report(self, tmp_path, capsys):
        case = tmp_path / "control"
        assert (
            main(
                ["phantom", "--output-dir", str(case), "--dims", DIMS_FLAG,
                 "--offset", "0", "--tumor-seed", "3"]
            )
            == EXIT_OK
        )
        out = tmp_path / "out"
        code = main(
            [
                "pipeline",
                "--input", str(case / PATIENT_FILE),
                "--atlas-dir", str(case),
                "--output-dir", str(out),
                "--ground-truth", str(case / TRUTH_FILE),
            ]
        )
        assert code == EXIT_NO_CANDIDATE
        assert "error:" in capsys.readouterr().err
        report = dict(
            line.split("=", 1)
            for line in (out / pipeline.REPORT_FILE).read_text().strip().splitlines()
        )
        assert report["status"] == "no-candidate"
        assert report["candidate_voxels"] == "0"
        assert float(report["tm"]) == 0.0  # empty segmentation vs nonempty truth

    def test_control_case_prints_report_and_em_line(self, tmp_path, capsys):
        """EM ran on a no-candidate run too, so stdout says how it stopped;
        report.txt keeps only its deterministic keys."""
        case = tmp_path / "control"
        assert (
            main(
                ["phantom", "--output-dir", str(case), "--dims", DIMS_FLAG,
                 "--offset", "0", "--tumor-seed", "3"]
            )
            == EXIT_OK
        )
        capsys.readouterr()
        out = tmp_path / "out"
        code = main(
            [
                "pipeline",
                "--input", str(case / PATIENT_FILE),
                "--atlas-dir", str(case),
                "--output-dir", str(out),
            ]
        )
        assert code == EXIT_NO_CANDIDATE
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "status=no-candidate"
        assert "iterations=0" in lines and "candidate_voxels=0" in lines
        assert any(line.startswith("runtime_seconds=") for line in lines)
        assert lines[-1].startswith("em_iterations=") and lines[-1].endswith(" (converged)")
        assert (out / pipeline.REPORT_FILE).read_text() == (
            "status=no-candidate\niterations=0\ncandidate_voxels=0\n"
        )

    def test_no_candidate_run_clears_stale_artifacts(self, case_dir, tmp_path):
        """A control run into a directory that holds an ok run must not
        leave that run's candidate and segmentation next to its report."""
        control = tmp_path / "control"
        assert (
            main(
                ["phantom", "--output-dir", str(control), "--dims", DIMS_FLAG,
                 "--offset", "0", "--tumor-seed", "3"]
            )
            == EXIT_OK
        )
        out = tmp_path / "out"
        for case, expected in ((case_dir, EXIT_OK), (control, EXIT_NO_CANDIDATE)):
            code = main(
                [
                    "pipeline",
                    "--input", str(case / PATIENT_FILE),
                    "--atlas-dir", str(case),
                    "--output-dir", str(out),
                ]
            )
            assert code == expected
        assert {p.name for p in out.iterdir()} == {
            pipeline.MODEL_FILE,
            pipeline.GBBM_FILE,
            pipeline.REPORT_FILE,
        }
        assert "status=no-candidate" in (out / pipeline.REPORT_FILE).read_text()

    def test_unstable_dt_from_config_exit_four(self, case_dir, tmp_path, monkeypatch, capsys):
        # every run resolves dt to a step deliberately past the stability bound
        monkeypatch.setattr(fvf3d.EvolutionParams, "resolve_dt", lambda self, spacing: 2.5)
        code = main(
            [
                "pipeline",
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INSTABILITY
        assert "iteration" in capsys.readouterr().err

    def test_unstable_rerun_clears_later_artifacts(
        self, case_dir, pipeline_out, tmp_path, monkeypatch
    ):
        """A rerun that fails in the level set must not leave the ok run's
        segmentation, evolution log and report next to its new candidate."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        monkeypatch.setattr(fvf3d.EvolutionParams, "resolve_dt", lambda self, spacing: 2.5)
        code = main(
            [
                "pipeline",
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(out),
            ]
        )
        assert code == EXIT_INSTABILITY
        assert {p.name for p in out.iterdir()} == {
            pipeline.MODEL_FILE,
            pipeline.GBBM_FILE,
            pipeline.CANDIDATE_FILE,
            pipeline.CANDIDATE_REPORT_FILE,
        }

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--alpha", "-1", "alpha"),
            ("--beta", "-1", "beta"),
            ("--max-iters", "0", "max_iters"),
            ("--psi", "-1", "psi"),
            ("--alpha", "nan", "alpha"),
            ("--alpha", "inf", "alpha"),
            ("--beta", "inf", "beta"),
            ("--beta", "1e308", "beta"),
        ],
    )
    def test_bad_setting_exit_one_before_any_write(
        self, flag, value, name, case_dir, pipeline_out, tmp_path, capsys
    ):
        """A rejected setting leaves an earlier run's artifacts as they were:
        no file is rewritten, not even with the same bytes."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        before = _files(out)
        code = main(
            [
                "pipeline",
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(out),
                flag, value,
            ]
        )
        assert code == EXIT_GENERIC
        assert name in capsys.readouterr().err
        assert _files(out) == before

    @pytest.mark.parametrize("command", ["pipeline", "gbbm"])
    def test_two_component_model_exit_one_before_any_write(
        self, command, case_dir, pipeline_out, tmp_path, capsys
    ):
        """A well-formed model file of two components is rejected when it
        is read, before model.txt or any other artifact is rewritten."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        model = tmp_path / "two.txt"
        model.write_text(TWO_COMPONENT_MODEL)
        before = _files(out)
        code = main(
            [
                command,
                "--model", str(model),
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(out),
            ]
        )
        assert code == EXIT_GENERIC
        assert "per tissue" in capsys.readouterr().err
        assert _files(out) == before

    def test_negative_atlas_value_at_a_brain_voxel_exit_one_before_any_write(
        self, case_dir, pipeline_out, tmp_path, capsys
    ):
        """An atlas probability a hair below 0 (within float32 rounding of
        0, which cannot make a non-negative value negative) fails when the
        atlas is loaded."""
        atlas = tmp_path / "atlas"
        shutil.copytree(case_dir, atlas)
        brain = read_volume(str(atlas / ATLAS_FILES["brain_mask"]))
        csf = read_volume(str(atlas / ATLAS_FILES["prob_csf"]))
        csf.data[np.unravel_index(np.flatnonzero(brain.data)[0], brain.dims)] = -5e-7
        write_volume(csf, str(atlas / ATLAS_FILES["prob_csf"]))
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        before = _files(out)
        code = main(
            [
                "pipeline",
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(atlas),
                "--output-dir", str(out),
            ]
        )
        assert code == EXIT_GENERIC
        assert "prob_csf has values outside [0, 1]" in capsys.readouterr().err
        assert _files(out) == before

    @pytest.mark.parametrize("key", ["em_max_iters", "max_samples"])
    def test_bad_fit_setting_in_a_config_file_exit_one_before_any_write(
        self, key, case_dir, pipeline_out, tmp_path, capsys
    ):
        """The fit's settings are checked when the config is built, also
        when --model means no fit runs."""
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        config = tmp_path / "fit.cfg"
        config.write_text(f"{key} = 0\n")
        before = _files(out)
        code = main(
            [
                "pipeline",
                "--config", str(config),
                "--model", str(pipeline_out / pipeline.MODEL_FILE),
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(out),
            ]
        )
        assert code == EXIT_GENERIC
        assert key in capsys.readouterr().err
        assert _files(out) == before

    @pytest.mark.parametrize(
        "key",
        [
            "em_tol",
            "strip_depth",
            "erode_iters",
            "dilate_iters",
            "connectivity",
            "dt",
            "reinit_every",
            "stop_tol",
            "band_halfwidth",
            "edge_sigma",
            "omega",
        ],
    )
    def test_fixed_parameter_config_key_exit_one(self, key, case_dir, tmp_path, capsys):
        """Method parameters the pipeline fixes are not config keys."""
        config = tmp_path / "fixed.cfg"
        config.write_text(f"psi = 153\n{key} = 1\n")
        code = main(
            [
                "pipeline",
                "--config", str(config),
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_GENERIC
        assert f"{config}:2: unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_exit_one(self, case_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("psi = 153\nfrobnicate = 7\n")
        code = main(
            [
                "pipeline",
                "--config", str(config),
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_GENERIC
        err = capsys.readouterr().err
        assert "frobnicate" in err and ":2:" in err

    def test_flag_overrides_config_file(self, case_dir, tmp_path):
        # psi in the file is impossibly high; the flag rescues the run
        config = tmp_path / "strict.cfg"
        config.write_text("psi = 100000\n")
        out = tmp_path / "out"
        args = [
            "pipeline",
            "--config", str(config),
            "--input", str(case_dir / PATIENT_FILE),
            "--atlas-dir", str(case_dir),
            "--output-dir", str(out),
        ]
        assert main(args) == EXIT_NO_CANDIDATE
        assert main(args + ["--psi", "153"]) == EXIT_OK


class TestStagedCommands:
    def test_stage_chain_reproduces_pipeline(self, case_dir, pipeline_out, tmp_path):
        """fit -> gbbm -> candidate -> segment must leave byte-identical
        artifacts to the one-shot pipeline run."""
        out = tmp_path / "staged"
        patient = str(case_dir / PATIENT_FILE)
        atlas = str(case_dir)
        common = ["--atlas-dir", atlas, "--output-dir", str(out)]

        assert main(["fit", "--input", patient] + common) == EXIT_OK
        assert (
            main(
                ["gbbm", "--input", patient, "--model",
                 str(out / pipeline.MODEL_FILE)] + common
            )
            == EXIT_OK
        )
        assert (
            main(
                ["candidate", "--input", str(out / pipeline.GBBM_FILE)] + common
            )
            == EXIT_OK
        )
        assert (
            main(
                ["segment", "--input", patient, "--output-dir", str(out),
                 "--candidate", str(out / pipeline.CANDIDATE_FILE)]
            )
            == EXIT_OK
        )

        for fname in (
            pipeline.MODEL_FILE,
            pipeline.GBBM_FILE,
            pipeline.CANDIDATE_FILE,
            pipeline.CANDIDATE_REPORT_FILE,
            pipeline.SEGMENTATION_FILE,
            pipeline.EVOLUTION_LOG_FILE,
        ):
            assert (out / fname).read_bytes() == (pipeline_out / fname).read_bytes(), fname

    def test_stage_chain_composes_with_omega(self, case_dir, pipeline_out, tmp_path):
        """fit -> gbbm --model -> candidate --psi 60 leaves the map and the
        candidate of pipeline --psi 60, a candidate the default psi does
        not give."""
        patient = str(case_dir / PATIENT_FILE)
        psi = ["--psi", "60"]
        one_shot = tmp_path / "one-shot"
        common = ["--input", patient, "--atlas-dir", str(case_dir)]
        assert main(["pipeline", "--output-dir", str(one_shot)] + common + psi) == EXIT_OK
        out = tmp_path / "staged"
        common = ["--atlas-dir", str(case_dir), "--output-dir", str(out)]
        assert main(["fit", "--input", patient] + common) == EXIT_OK
        model = ["--model", str(out / pipeline.MODEL_FILE)]
        assert main(["gbbm", "--input", patient] + model + common) == EXIT_OK
        gbbm = str(out / pipeline.GBBM_FILE)
        assert main(["candidate", "--input", gbbm] + common + psi) == EXIT_OK
        for name in (pipeline.GBBM_FILE, pipeline.CANDIDATE_FILE, pipeline.CANDIDATE_REPORT_FILE):
            assert (out / name).read_bytes() == (one_shot / name).read_bytes(), name
        for name in (pipeline.CANDIDATE_FILE, pipeline.CANDIDATE_REPORT_FILE):
            assert (out / name).read_bytes() != (pipeline_out / name).read_bytes(), name

    def test_candidate_compares_a_float32_map_with_psi_in_float64(self, case_dir, tmp_path):
        """A map value of 153.0 exceeds --psi 152.99999999, which rounds to
        153.0 in float32."""
        truth = read_volume(str(case_dir / TRUTH_FILE))
        gbbm = tmp_path / pipeline.GBBM_FILE
        data = np.where(truth.data, np.float32(153.0), np.float32(0.0))
        write_volume(ScalarVolume(data, truth.spacing), str(gbbm))
        assert read_volume(str(gbbm)).data.dtype == np.float32
        args = ["candidate", "--input", str(gbbm), "--atlas-dir", str(case_dir),
                "--output-dir", str(tmp_path)]
        assert main(args + ["--psi", "152.99999999"]) == EXIT_OK
        assert main(args + ["--psi", "153"]) == EXIT_NO_CANDIDATE

    def test_fixed_model_pipeline_reproduces_fitted_run(
        self, case_dir, pipeline_out, tmp_path
    ):
        """pipeline --model with the model that fit wrote leaves the same
        artifacts, report.txt included, as the run that fitted it."""
        fitted = tmp_path / "fit"
        common = ["--input", str(case_dir / PATIENT_FILE), "--atlas-dir", str(case_dir)]
        assert main(["fit", "--output-dir", str(fitted)] + common) == EXIT_OK
        out = tmp_path / "fixed"
        code = main(
            ["pipeline", "--output-dir", str(out),
             "--model", str(fitted / pipeline.MODEL_FILE),
             "--ground-truth", str(case_dir / TRUTH_FILE)] + common
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in pipeline_out.iterdir())
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (pipeline_out / name).read_bytes(), name

    def test_fit_max_iters_caps_em(self, case_dir, pipeline_out, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "capped"
        code = main(
            ["fit", "--input", str(case_dir / PATIENT_FILE), "--atlas-dir", str(case_dir),
             "--output-dir", str(out), "--max-iters", "1"]
        )
        assert code == EXIT_OK
        capped = (out / pipeline.MODEL_FILE).read_text()
        assert capped != (pipeline_out / pipeline.MODEL_FILE).read_text()
        assert capsys.readouterr().out.splitlines()[-1] == "em_iterations=1 (hit --max-iters)"

    def test_fit_max_iters_zero_names_the_key(self, case_dir, tmp_path, capsys):
        out = tmp_path / "zero"
        code = main(
            ["fit", "--input", str(case_dir / PATIENT_FILE), "--atlas-dir", str(case_dir),
             "--output-dir", str(out), "--max-iters", "0"]
        )
        assert code == EXIT_GENERIC
        assert "em_max_iters" in capsys.readouterr().err
        assert not out.exists()

    def test_no_candidate_stage_clears_the_earlier_report(
        self, case_dir, pipeline_out, tmp_path
    ):
        """The candidate stage on a control's map, run into the directory of
        an ok run, leaves neither that run's candidate nor its ok report."""
        control, control_out = tmp_path / "control", tmp_path / "control_out"
        assert (
            main(
                ["phantom", "--output-dir", str(control), "--dims", DIMS_FLAG,
                 "--offset", "0", "--tumor-seed", "3"]
            )
            == EXIT_OK
        )
        common = ["--atlas-dir", str(control)]
        gbbm = ["gbbm", "--input", str(control / PATIENT_FILE), "--output-dir", str(control_out)]
        assert main(gbbm + common) == EXIT_OK
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        code = main(
            ["candidate", "--input", str(control_out / pipeline.GBBM_FILE),
             "--output-dir", str(out)] + common
        )
        assert code == EXIT_NO_CANDIDATE
        assert {p.name for p in out.iterdir()} == {pipeline.MODEL_FILE, pipeline.GBBM_FILE}

    def test_candidate_reports_voxel_count(self, case_dir, pipeline_out, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "cand"
        code = main(
            [
                "candidate",
                "--input", str(pipeline_out / pipeline.GBBM_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(out),
            ]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.startswith("candidate_voxels=")
        assert int(stdout.split("=", 1)[1]) > 0


class TestEvaluateCommand:
    def test_prints_overlap_counts(self, case_dir, pipeline_out, capsys):
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--input", str(pipeline_out / pipeline.SEGMENTATION_FILE),
                "--ground-truth", str(case_dir / TRUTH_FILE),
            ]
        )
        assert code == EXIT_OK
        entries = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert set(entries) == {"tm", "n_input", "n_truth", "n_intersection"}
        seg = read_volume(pipeline_out / pipeline.SEGMENTATION_FILE)
        truth = read_volume(case_dir / TRUTH_FILE)
        assert int(entries["n_input"]) == seg.count()
        assert int(entries["n_truth"]) == truth.count()
        inter = int(np.logical_and(seg.data, truth.data).sum())
        assert int(entries["n_intersection"]) == inter
        union = seg.count() + truth.count() - inter
        assert float(entries["tm"]) == pytest.approx(inter / union)

    def test_perfect_self_overlap(self, case_dir, capsys):
        capsys.readouterr()
        truth = str(case_dir / TRUTH_FILE)
        assert main(["evaluate", "--input", truth, "--ground-truth", truth]) == EXIT_OK
        assert "tm=1\n" in capsys.readouterr().out

    def test_evaluate_scalar_input_exit_one(self, case_dir, capsys):
        code = main(
            [
                "evaluate",
                "--input", str(case_dir / PATIENT_FILE),
                "--ground-truth", str(case_dir / TRUTH_FILE),
            ]
        )
        assert code == EXIT_GENERIC
        assert "mask" in capsys.readouterr().err

    def test_evaluate_malformed_header_exit_two(self, case_dir, tmp_path, capsys):
        blob = (case_dir / TRUTH_FILE).read_bytes()
        end = blob.index(b"\n\n")
        header = blob[:end].replace(blob[:end].split(b"\n")[1], b"dims 2.5 3 4", 1)
        bad = tmp_path / "bad.mvol"
        bad.write_bytes(header + blob[end:])
        code = main(["evaluate", "--input", str(bad), "--ground-truth", str(bad)])
        assert code == EXIT_IO
        assert "dims 2.5 3 4" in capsys.readouterr().err

    def test_evaluate_underscored_spacing_exit_two(self, case_dir, tmp_path, capsys):
        blob = (case_dir / TRUTH_FILE).read_bytes()
        end = blob.index(b"\n\n")
        header = blob[:end].split(b"\n")
        header[2] = b"spacing 1 1 1_0"
        bad = tmp_path / "bad.mvol"
        bad.write_bytes(b"\n".join(header) + blob[end:])
        code = main(["evaluate", "--input", str(bad), "--ground-truth", str(bad)])
        assert code == EXIT_IO
        assert "spacing 1 1 1_0" in capsys.readouterr().err


class TestSeedFlag:
    """``--seed`` exists only on ``phantom``, as the atlas noise seed; the
    fit's subsample has no seed to set."""

    def test_seed_config_key_exit_one(self, case_dir, tmp_path, capsys):
        config = tmp_path / "seed.cfg"
        config.write_text("seed = 1\n")
        code = main(
            [
                "fit",
                "--config", str(config),
                "--input", str(case_dir / PATIENT_FILE),
                "--atlas-dir", str(case_dir),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_GENERIC
        assert "unknown config key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "gbbm", "pipeline"])
    def test_seed_flag_is_a_usage_error(self, command, case_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    command,
                    "--input", str(case_dir / PATIENT_FILE),
                    "--atlas-dir", str(case_dir),
                    "--output-dir", str(tmp_path / "out"),
                    "--seed", "1",
                ]
            )
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_phantom_seed_is_the_atlas_noise_seed(self, tmp_path, capsys):
        out = tmp_path / "case"
        assert main(["phantom", "--output-dir", str(out), "--dims", "32", "--radii", "4",
                     "--seed", "3"]) == EXIT_OK
        assert "atlas_seed=3" in (out / MANIFEST_FILE).read_text().splitlines()
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "--help"])
        assert exc.value.code == 0
        assert "atlas noise seed (default 0)" in " ".join(capsys.readouterr().out.split())


class TestUsageErrors:
    def test_missing_required_flag_is_systemexit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline"])  # --input/--atlas-dir/--output-dir required
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["gbbm", "candidate", "pipeline"])
    def test_omega_flag_is_a_usage_error(self, command, case_dir, tmp_path, capsys):
        """The map's scale is a constant; psi is the one detection setting."""
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    command,
                    "--input", str(case_dir / PATIENT_FILE),
                    "--atlas-dir", str(case_dir),
                    "--output-dir", str(tmp_path / "out"),
                    "--omega", "100",
                ]
            )
        assert exc.value.code == 2
        assert "--omega" in capsys.readouterr().err

    def test_entry_point_module(self):
        import fvfseg.__main__  # noqa: F401  -- importable without side effects
