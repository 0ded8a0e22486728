"""README's "Library use" block runs as written against a phantom case."""

import os
import re

from fvfseg import phantom

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _library_block() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    atlas = phantom.synth_atlas((64, 64, 64), seed=0)
    tumor = phantom.TumorSpec(shape="sphere", radii=(8.0,), offset=4.0, seed=1)
    patient, truth = phantom.synth_patient(atlas, tumor)
    phantom.save_phantom_case(str(tmp_path / "case"), atlas, patient, truth, tumor, atlas_seed=0)
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_block(), README, "exec"), {"__name__": "readme"})
    tm = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert tm > 0.85
