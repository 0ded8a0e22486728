"""Atlas-guided Bayesian abnormality mapping.

For every brain voxel we hold two tissue-probability triples (CSF, GM, WM):

* the *prior* read off a probabilistic atlas at that location, and
* the *posterior* obtained by reweighting the prior with the Gaussian
  likelihood of the voxel's normalized intensity under each mixture
  component.

Healthy tissue leaves the two triples strongly correlated.  The Pearson
correlation CC between them is therefore a per-voxel normality score, which
a conflict mapping turns into an abnormality score CM:

    CM = 1 - CC   if CC > 0
    CM = -CC      otherwise

The mapping is deliberately discontinuous at CC = 0: zero correlation maps
to 0, while any infinitesimally positive correlation maps to nearly 1.
Scaling CM by omega (0..255 by default) yields the abnormality volume used
for candidate extraction.

The intensities come in as the vector the mixture was fitted to: the
normalized brain voxels in the brain mask's memory order
(``ngmm.normalize_intensity``); no scan grid is read here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ngmm import TissueMixtureModel, gaussian_pdf
from .volume import BinaryMask, ScalarVolume, mask_index, require_same_grid

BAYES_DENOMINATOR_FLOOR = 1e-300
CC_VARIANCE_FLOOR = 1e-12

# build_gbbm works on chunks of this many brain voxels: its chain holds about
# 18 float64 temporaries per voxel, so the 750k brain voxels of a 128^3 head
# at once would take ~110 MB on top of the inputs, while a chunk takes ~2 MB.
GBBM_CHUNK_VOXELS = 1 << 14


@dataclass
class ProbabilisticAtlas:
    """Intensity template plus per-tissue probability maps on one grid."""

    template: ScalarVolume
    prob_csf: ScalarVolume
    prob_gm: ScalarVolume
    prob_wm: ScalarVolume
    brain_mask: BinaryMask

    # Probability maps travel through float32 files, so the unit-interval
    # and unit-sum checks get slack well above float32 rounding (~1e-7).
    _PROB_TOL = 1e-6

    def __post_init__(self):
        for name in ("prob_csf", "prob_gm", "prob_wm"):
            require_same_grid(self.template, getattr(self, name), f"template and {name}")
        require_same_grid(self.template, self.brain_mask, "template and brain mask")
        # in the maps' memory order (Fortran when read from MVOL), so that
        # each sum is one contiguous pass
        total = np.zeros_like(self.prob_csf.data, dtype=np.float64)
        for name in ("prob_csf", "prob_gm", "prob_wm"):
            p = getattr(self, name).data
            if p.min() < -self._PROB_TOL or p.max() > 1 + self._PROB_TOL:
                raise ValueError(f"{name} has values outside [0, 1]")
            total += p
        if total.max() > 1 + self._PROB_TOL:
            raise ValueError("tissue probabilities sum to more than 1 somewhere")

    @property
    def dims(self):
        return self.template.dims

    @property
    def spacing(self):
        return self.template.spacing

    def probability_stack(self) -> np.ndarray:
        """(3, nx, ny, nz) array in CSF, GM, WM order."""
        return np.stack([self.prob_csf.data, self.prob_gm.data, self.prob_wm.data]).astype(
            np.float64
        )


def _triples(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 1 or arr.shape[0] != 3:
        raise ValueError(f"{what} needs a leading axis of length 3, got shape {arr.shape}")
    return arr


def spatial_prior(xi) -> np.ndarray:
    """Normalized tissue prior from raw atlas probabilities.

    ``xi`` holds (CSF, GM, WM) along a leading axis of length 3: a (3,)
    vector for one voxel, or a (3, ...) stack such as
    ProbabilisticAtlas.probability_stack().  Voxels where all three maps
    read zero get the uninformative prior (1/3, 1/3, 1/3).
    """
    xi = _triples(xi, "spatial_prior")
    s = xi.sum(axis=0)
    return np.divide(xi, s, out=np.full_like(xi, 1.0 / 3.0), where=s > 0.0)


def posterior_triple(
    model: TissueMixtureModel, prior, x, diagnostics: dict | None = None
) -> np.ndarray:
    """Bayes update of a tissue prior with the intensity likelihoods.

    p(k | x) = prior_k * N(x; mu_k, sigma_k) / sum_j prior_j * N(x; mu_j, sigma_j)

    ``prior`` has a leading axis of length 3 and ``x`` the shape of the
    remaining axes (a (3,) prior with a scalar x for one voxel).  Where
    every weighted likelihood underflows (denominator below 1e-300) the
    intensity carries no usable evidence and the prior is returned
    unchanged; ``diagnostics`` (a dict, optional) receives that boolean
    mask under "degenerate_bayes".
    """
    if model.n_components != 3:
        raise ValueError(f"posterior needs a 3-component model, got K={model.n_components}")
    p = _triples(prior, "prior")
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise ValueError("prior must hold nonnegative finite values")
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("intensity must be finite")
    post = p * np.stack([gaussian_pdf(x, m, s) for m, s in zip(model.means, model.stds)])
    denom = post.sum(axis=0)
    degenerate = denom < BAYES_DENOMINATOR_FLOOR
    np.divide(post, denom, out=post, where=~degenerate)
    np.copyto(post, p, where=degenerate)
    if diagnostics is not None:
        diagnostics["degenerate_bayes"] = degenerate
    return post


def pearson_cc(a, b, diagnostics: dict | None = None):
    """Pearson correlation of 3-vectors along the leading axis, 0.0 where
    either is (near) constant (variance below 1e-12).

    ``diagnostics`` (a dict, optional) receives the boolean mask of those
    near-constant voxels under "degenerate_cc".
    """
    a = _triples(a, "pearson_cc")
    b = _triples(b, "pearson_cc")
    if a.shape != b.shape:
        raise ValueError(f"pearson_cc inputs differ in shape: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("pearson_cc inputs must be finite")
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    var_a = (ac * ac).sum(axis=0) / 3.0
    var_b = (bc * bc).sum(axis=0) / 3.0
    cov = (ac * bc).sum(axis=0) / 3.0
    defined = (var_a >= CC_VARIANCE_FLOOR) & (var_b >= CC_VARIANCE_FLOOR)
    denom = np.sqrt(var_a * var_b, where=defined, out=np.ones_like(var_a))
    cc = np.divide(cov, denom, out=np.zeros_like(cov), where=defined)
    if diagnostics is not None:
        diagnostics["degenerate_cc"] = ~defined
    return np.clip(cc, -1.0, 1.0)


def cc_to_cm(cc):
    """Conflict mapping: positive correlation folds to 1-CC, the rest to -CC."""
    cc = np.asarray(cc, dtype=np.float64)
    if not (np.abs(cc) <= 1.0).all():
        raise ValueError("CC must lie in [-1, 1]")
    return np.where(cc > 0.0, 1.0 - cc, -cc)


def build_gbbm(
    values: np.ndarray,
    atlas: ProbabilisticAtlas,
    model: TissueMixtureModel,
    omega: float = 255.0,
    diagnostics: dict | None = None,
) -> ScalarVolume:
    """Whole-volume abnormality map: omega * CM at brain voxels, 0 elsewhere.

    ``values`` holds the normalized intensity of each brain voxel of the
    atlas, as ``ngmm.normalize_intensity`` returns it for a scan registered
    onto the atlas grid; a vector of another length is rejected.  The map
    is the composition spatial_prior -> posterior_triple -> pearson_cc ->
    cc_to_cm, run on chunks of GBBM_CHUNK_VOXELS brain voxels so the
    temporaries stay a fraction of the grid; every voxel's value is the
    same as from one pass over the whole volume.  Optional ``diagnostics``
    (a dict) receives counts of degenerate brain voxels.
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    voxels, order = mask_index(atlas.brain_mask)
    x = np.asarray(values, dtype=np.float64)
    if x.shape != voxels.shape:
        raise ValueError(f"need {voxels.size} brain-voxel values, got shape {x.shape}")
    # views when the maps are laid out like the mask, as an atlas read from MVOL is
    maps = [p.data.ravel(order) for p in (atlas.prob_csf, atlas.prob_gm, atlas.prob_wm)]
    out = np.zeros(atlas.dims, order=order)
    flat_out = out.ravel(order)
    counts = {"degenerate_bayes": 0, "degenerate_cc": 0}
    for start in range(0, voxels.size, GBBM_CHUNK_VOXELS):
        stop = start + GBBM_CHUNK_VOXELS
        chunk = voxels[start:stop]
        masks = None if diagnostics is None else {}
        prior = spatial_prior(np.stack([m[chunk] for m in maps]).astype(np.float64))
        posterior = posterior_triple(model, prior, x[start:stop], masks)
        cc = pearson_cc(posterior, prior, masks)
        flat_out[chunk] = omega * cc_to_cm(cc)
        if masks is not None:
            for key in counts:
                counts[key] += int(masks[key].sum())

    if diagnostics is not None:
        diagnostics["degenerate_bayes_voxels"] = counts["degenerate_bayes"]
        diagnostics["degenerate_cc_voxels"] = counts["degenerate_cc"]
    return ScalarVolume(out, atlas.spacing)
