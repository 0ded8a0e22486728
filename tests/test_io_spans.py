"""The benchmark's tracer sees every MVOL read and every artifact write.

perfbench/tracing.py times file I/O by patching the names the pipeline
reaches mvol through; a refactor that moved a read or a write past those
names would silently move its time out of ``mvol.read_s`` and
``mvol.write_s``.  One 48^3 lesion case runs through run_pipeline under
the tracer, and every file it reads or writes must show up as exactly one
span whose byte count is the file's size.
"""

import os

from fvfseg import phantom
from fvfseg.pipeline import ARTIFACTS, PipelineConfig, run_pipeline
from perfbench.tracing import Tracer


def test_one_span_per_file_with_its_size(tmp_path):
    case, out = tmp_path / "case", tmp_path / "out"
    atlas = phantom.synth_atlas((48, 48, 48), seed=0)
    tumor = phantom.TumorSpec(shape="sphere", radii=(8.0,), offset=4.0, seed=1)
    patient, truth = phantom.synth_patient(atlas, tumor)
    phantom.save_phantom_case(str(case), atlas, patient, truth, tumor, atlas_seed=0)
    config = PipelineConfig(
        input=str(case / phantom.PATIENT_FILE),
        atlas_dir=str(case),
        output_dir=str(out),
        ground_truth=str(case / phantom.TRUTH_FILE),
    )
    with Tracer().installed() as tracer:
        assert run_pipeline(config)["status"] == "ok"

    def span_bytes(name):
        return sorted(s.counts["bytes"] for s in tracer.spans if s.name == name)

    def sizes(directory, names):
        return sorted(os.path.getsize(directory / n) for n in names)

    read = [phantom.PATIENT_FILE, *phantom.ATLAS_FILES.values(), phantom.TRUTH_FILE]
    assert len(read) == 7
    assert span_bytes("mvol.read_volume") == sizes(case, read)
    assert sorted(os.listdir(out)) == sorted(ARTIFACTS)
    volumes = [n for n in ARTIFACTS if n.endswith(".mvol")]
    texts = [n for n in ARTIFACTS if not n.endswith(".mvol")]
    assert (len(volumes), len(texts)) == (3, 4)
    assert span_bytes("mvol.write_volume") == sizes(out, volumes)
    assert span_bytes("mvol.atomic_write_text") == sizes(out, texts)
