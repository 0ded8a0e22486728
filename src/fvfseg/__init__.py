"""Atlas-guided volumetric tumor segmentation.

Stages: intensity normalization + three-tissue mixture fit, Bayesian
abnormality mapping against atlas priors, morphological candidate
extraction, and level-set refinement driven by a static fluid-vector
force.  See the module docstrings for the individual pieces; the
``fvfseg`` console script chains them over MVOL volume files.
"""

from .brainmap import (
    ProbabilisticAtlas,
    build_gbbm,
    cc_to_cm,
    pearson_cc,
    posterior_triple,
    spatial_prior,
)
from .candidate import CandidateRegion, extract_candidate
from .errors import (
    GridMismatchError,
    MvolFormatError,
    NoCandidateError,
    NumericalInstabilityError,
)
from .fvf3d import (
    EvolutionParams,
    ForceContext,
    LevelSetField,
    evolve,
    make_force_context,
    reinitialize,
    signed_distance_init,
    zero_level_mask,
)
from .metrics import OverlapReport, tanimoto
from .mvol import read_volume, write_volume
from .ngmm import (
    TissueMixtureModel,
    fit_em,
    load_model,
    normalize_intensity,
    sample_masked_intensities,
    save_model,
)
from .phantom import TumorSpec, load_atlas_dir, save_atlas_dir, synth_atlas, synth_patient
from .pipeline import PipelineConfig, load_config, run_pipeline
from .volume import BinaryMask, ScalarVolume

__version__ = "0.1.0"
