"""README's "Library use" block runs as written against a phantom case, its
table of config keys lists exactly the keys the config parser takes, and
its table of library-only parameters names parameters that exist."""

import dataclasses
import importlib
import inspect
import os
import re

from fvfseg import phantom, pipeline

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _library_block() -> str:
    section = _readme().split("\n## Library use\n", 1)[1]
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


def test_config_key_table_names_every_key():
    """The CLI section's key table: one row per PipelineConfig field, so a
    new setting fails here until README documents it."""
    section = _readme().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    table = re.search(r"^\| key .*?\n\n", section, re.M | re.S).group(0)
    keys = re.findall(r"^\| `(\w+)` +\|", table, re.M)
    assert len(keys) == len(set(keys))
    assert set(keys) == pipeline.CONFIG_KEYS


def test_library_parameter_table_names_existing_parameters():
    """The CLI section's table of library-only parameters: each row names a
    parameter of every function, or a field of every dataclass, in its
    second column, so a deleted knob fails here until README drops it."""
    section = _readme().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    table = re.search(r"^\| parameter .*?\n\n", section, re.M | re.S).group(0)
    rows = re.findall(r"^\| `(\w+)` +\| (.*?) *\|$", table, re.M)
    assert rows
    for name, owners in rows:
        paths = re.findall(r"`(fvfseg[\w.]+)`", owners)
        assert paths, name
        for path in paths:
            module, _, attr = path.rpartition(".")
            owner = getattr(importlib.import_module(module), attr)
            if dataclasses.is_dataclass(owner):
                names = {f.name for f in dataclasses.fields(owner)}
            else:
                names = set(inspect.signature(owner).parameters)
            assert name in names, f"{path} has no parameter {name!r}"
