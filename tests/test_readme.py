"""README's quick start prints what README shows, its "Library use" block
runs as written against a phantom case, its table of config keys lists
exactly the keys the config parser takes, and its table of library-only
parameters names parameters that exist and lists every knob of the level
set and the fit that no config key sets."""

import dataclasses
import importlib
import inspect
import os
import re
import shlex

from fvfseg import cli, fvf3d, ngmm, phantom, pipeline

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme() -> str:
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _quick_start():
    """The quick start's commands, each as its argument list without the
    program name, and the lines README says the last one prints."""
    section = _readme().split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in script.replace("\\\n", " ").splitlines()]
    printed = re.search(r"which prints\n\n```\n(.*?)```", section, re.S).group(1)
    return commands, printed.splitlines()


def test_quick_start_prints_what_readme_shows(tmp_path, monkeypatch, capsys):
    """Every printed line but the wall time, so a change that moves tm, a
    count or the EM line fails here until README shows the new output."""
    commands, want = _quick_start()
    assert [c[0] for c in commands] == ["phantom", "pipeline"]
    assert commands[0][commands[0].index("--dims") + 1] == "64"
    monkeypatch.chdir(tmp_path)
    for args in commands:
        capsys.readouterr()
        assert cli.main(args) == cli.EXIT_OK
    got = capsys.readouterr().out.splitlines()

    def timeless(lines):
        return [line for line in lines if not line.startswith("runtime_seconds=")]

    assert len(got) == len(want)
    assert timeless(got) == timeless(want)
    assert "runtime_seconds=..." in want


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


def _library_rows():
    """(parameter, owners column) of each row of the CLI section's table of
    library-only parameters."""
    section = _readme().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    table = re.search(r"^\| parameter .*?\n\n", section, re.M | re.S).group(0)
    return re.findall(r"^\| `(\w+)` +\| (.*?) *\|$", table, re.M)


def test_library_parameter_table_names_existing_parameters():
    """The CLI section's table of library-only parameters: each row names a
    parameter of every function, or a field of every dataclass, in its
    second column, so a deleted knob fails here until README drops it."""
    rows = _library_rows()
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


def test_library_parameter_table_lists_every_knob_no_config_key_sets():
    """The other way round: every field of EvolutionParams that is no config
    key, and every defaulted parameter of fit_em that no ``em_`` key sets,
    has a row naming its owner, so a new knob fails here until README lists
    it or it becomes a constant."""
    listed = {
        (name, path)
        for name, owners in _library_rows()
        for path in re.findall(r"`(fvfseg[\w.]+)`", owners)
    }
    keys = pipeline.CONFIG_KEYS
    fit_keys = {key.removeprefix("em_") for key in keys if key.startswith("em_")}
    knobs = {
        (f.name, "fvfseg.fvf3d.EvolutionParams")
        for f in dataclasses.fields(fvf3d.EvolutionParams)
        if f.name not in keys
    } | {
        (name, "fvfseg.ngmm.fit_em")
        for name, p in inspect.signature(ngmm.fit_em).parameters.items()
        if p.default is not p.empty and name not in fit_keys
    }
    assert ("dt", "fvfseg.fvf3d.EvolutionParams") in knobs
    assert knobs <= listed, f"README lists no row for {sorted(knobs - listed)}"
