"""Defaults written twice, on PipelineConfig and on the functions and
parameter types it feeds, must agree."""

import inspect

from fvfseg import fvf3d
from fvfseg.candidate import CandidateParams
from fvfseg.pipeline import PipelineConfig


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


class TestDefaultsAgree:
    def test_evolution_params(self):
        assert PipelineConfig().evolution_params() == fvf3d.EvolutionParams()

    def test_candidate_params(self):
        assert PipelineConfig().candidate_params() == CandidateParams()

    def test_band_halfwidth(self):
        band = PipelineConfig().band_halfwidth
        assert band == 6.0
        for fn in (fvf3d.LevelSetField, fvf3d.signed_distance_init, fvf3d.init_window):
            assert _default(fn, "band_halfwidth") == band, fn.__name__

    def test_edge_sigma(self):
        assert PipelineConfig().edge_sigma == _default(fvf3d.make_force_context, "sigma")
