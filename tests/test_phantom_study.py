"""scripts/run_phantom_study.py on a grid small enough to miss a lesion."""

import importlib.util
import os

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "scripts", "run_phantom_study.py"
)


def test_a_missed_lesion_is_a_row_not_the_end_of_the_study(tmp_path, capsys):
    # at 40^3 the sphere's candidate vanishes at step 3, while the
    # ellipsoid and the blob are detected
    spec = importlib.util.spec_from_file_location("run_phantom_study", SCRIPT)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    assert study.main(["--dims", "40", "--seeds", "1", "--work-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line for line in lines if line.split()[1:2] == ["1"]}
    assert "none (step 3)" in rows["sphere"]
    assert "none" not in rows["ellipsoid"] and "none" not in rows["blob"]
    assert "sphere     detected 0/1" in lines
    assert any(line.startswith("ellipsoid  detected 1/1, mean tm ") for line in lines)
    assert any("no candidate" in line and "(expected)" in line for line in lines)
