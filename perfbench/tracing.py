"""Span recording around fvfseg's layer entry points, from outside the package.

A Tracer patches the module attributes that ``fvfseg.pipeline``,
``fvfseg.phantom``, ``fvfseg.mvol`` and ``fvfseg.fvf3d`` look up at call
time, so every call
into a layer opens a span (name, start, end, parent, case id) and closes it
when the call returns or raises.  Python warnings raised inside a span are
counted against that span, not against its ancestors.  Spans stay in memory
until the caller writes them out.
"""

from __future__ import annotations

import importlib
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str  # "<module>.<function>"
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    case: str
    counts: dict = field(default_factory=dict)


def _path_bytes(position):
    """Counter giving the size of the file named by argument ``position``."""

    def count(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        return {"bytes": os.path.getsize(path)}

    return count


def _em_counts(args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    return {"samples": len(samples), "iters": len(result.loglik_trace)}


def _candidate_counts(args, kwargs, result):
    return {"voxels": result.voxel_count}


def _evolve_counts(args, kwargs, result):
    log = kwargs.get("log")
    return {
        "iters": result.iteration - args[0].iteration,
        "checkpoints": 0 if log is None else len(log),
    }


# (module attribute patched, span name, counter of (args, kwargs, result))
# Every name the pipeline reaches a layer through is listed, so the layers'
# own time never lands in the caller's self time.
ENTRY_POINTS = (
    ("fvfseg.pipeline", "load_atlas_dir", "phantom.load_atlas_dir", None),
    ("fvfseg.phantom", "read_volume", "mvol.read_volume", _path_bytes(0)),
    ("fvfseg.pipeline", "read_volume", "mvol.read_volume", _path_bytes(0)),
    ("fvfseg.pipeline", "normalize_intensity", "ngmm.normalize_intensity", None),
    ("fvfseg.pipeline", "sample_masked_intensities", "ngmm.sample_masked_intensities", None),
    ("fvfseg.pipeline", "fit_em", "ngmm.fit_em", _em_counts),
    ("fvfseg.pipeline", "build_gbbm", "brainmap.build_gbbm", None),
    ("fvfseg.pipeline", "extract_candidate", "candidate.extract_candidate", _candidate_counts),
    ("fvfseg.fvf3d", "make_force_context", "fvf3d.make_force_context", None),
    ("fvfseg.fvf3d", "signed_distance_init", "fvf3d.signed_distance_init", None),
    ("fvfseg.fvf3d", "evolve", "fvf3d.evolve", _evolve_counts),
    ("fvfseg.pipeline", "write_volume", "mvol.write_volume", _path_bytes(1)),
    ("fvfseg.pipeline", "atomic_write_text", "mvol.atomic_write_text", _path_bytes(0)),
    # save_model imports atomic_write_text from fvfseg.mvol when called
    ("fvfseg.mvol", "atomic_write_text", "mvol.atomic_write_text", _path_bytes(0)),
    ("fvfseg.pipeline", "tanimoto", "metrics.tanimoto", None),
)

ROOT_SPAN = "pipeline.run_pipeline"


class Tracer:
    """Collects spans for one process; not thread-safe (the benchmark runs
    one case at a time in one thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.case = ""

    def call(self, name, fn, args, kwargs, counter=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.clock(), 0.0, parent, self.case)
        self.spans.append(span)
        self._stack.append(index)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
        except BaseException as err:
            span.end = self.clock()
            span.counts["error"] = type(err).__name__
            step = getattr(err, "step", None)
            if step is not None:
                span.counts["fail_step"] = step
            raise
        else:
            span.end = self.clock()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result
        finally:
            self._stack.pop()
            span.counts["warnings"] = len(caught)

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name, counter in ENTRY_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    count once, so the result never goes below zero.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out
