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
Scaling CM by the map's fixed unit OMEGA = 255 (an 8-bit grey range)
yields the abnormality volume used for candidate extraction.

The intensities come in as the vector the mixture was fitted to: the
normalized brain voxels in the brain mask's memory order
(``ngmm.normalize_intensity``); no scan grid is read here.

Each formula is written once, as an in-place step on (3, n) rows of n
voxels.  The public functions validate their inputs, copy them and run
the step; ``build_gbbm`` checks its inputs once and runs the steps on
per-part chunk buffers, cutting the brain voxels into contiguous parts
that ``volume.run_parts`` runs on the CPUs.  The map has the bits of the
public chain on the whole volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ngmm import TissueMixtureModel, _gaussian_pdf_into
from .volume import (
    BinaryMask,
    ScalarVolume,
    mask_order,
    require_same_grid,
    run_parts,
    split_planes,
)

BAYES_DENOMINATOR_FLOOR = 1e-300
CC_VARIANCE_FLOOR = 1e-12
OMEGA = 255.0

# build_gbbm works on chunks of this many brain voxels: its kernel holds 10
# float64 and 2 bool buffers per voxel, so the 750k brain voxels of a 128^3
# head at once would take ~62 MB on top of the inputs, while a chunk's
# buffers take 1.3 MB, allocated once per part.
GBBM_CHUNK_VOXELS = 1 << 14
# the numpy passes build_gbbm's kernel makes over a chunk, which split_planes
# weighs against PART_WORK: a 128^3 head's 750k brain voxels run in two
# parts, a 64^3 head's 94k in one
GBBM_PASSES = 76

_MAP_NAMES = ("prob_csf", "prob_gm", "prob_wm")
# ProbabilisticAtlas sums its maps over chunks of this many voxels: a
# float64 chunk of 512 KiB stays in cache between the two additions
_SUM_CHUNK_VOXELS = 1 << 16


@dataclass
class ProbabilisticAtlas:
    """Intensity template plus per-tissue probability maps on one grid.

    No map value is below 0, and none above 1, nor any voxel's sum of the
    three, by more than _PROB_TOL: the maps travel through float32 files,
    whose rounding (~1e-7) can push a value a hair past 1 but cannot make
    a non-negative value negative.
    """

    template: ScalarVolume
    prob_csf: ScalarVolume
    prob_gm: ScalarVolume
    prob_wm: ScalarVolume
    brain_mask: BinaryMask

    _PROB_TOL = 1e-6

    def __post_init__(self):
        for name in _MAP_NAMES:
            require_same_grid(self.template, getattr(self, name), f"template and {name}")
        require_same_grid(self.template, self.brain_mask, "template and brain mask")
        maps = [getattr(self, name).data for name in _MAP_NAMES]
        for name, p in zip(_MAP_NAMES, maps):
            if p.min() < 0 or p.max() > 1 + self._PROB_TOL:
                raise ValueError(f"{name} has values outside [0, 1]")
        # The float64 sum csf + gm + wm, a chunk of voxels at a time in the
        # maps' memory order (Fortran when read from MVOL): each voxel's sum
        # is the same wherever the chunks are cut.
        order = "F" if maps[0].flags.f_contiguous else "C"
        csf, gm, wm = (p.ravel(order) for p in maps)
        total = np.empty(min(csf.size, _SUM_CHUNK_VOXELS))
        for start in range(0, csf.size, _SUM_CHUNK_VOXELS):
            part = slice(start, start + _SUM_CHUNK_VOXELS)
            t = total[: csf[part].size]
            np.add(csf[part], gm[part], out=t, dtype=np.float64)
            t += wm[part]
            if t.max() > 1 + self._PROB_TOL:
                raise ValueError("tissue probabilities sum to more than 1 somewhere")

    @property
    def dims(self):
        return self.template.dims

    @property
    def spacing(self):
        return self.template.spacing


def _triples(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim < 1 or arr.shape[0] != 3:
        raise ValueError(f"{what} needs a leading axis of length 3, got shape {arr.shape}")
    return arr


def _rows(arr: np.ndarray) -> np.ndarray:
    """A (3, n) float64 copy of a (3, ...) stack, for the in-place steps."""
    return np.array(arr, dtype=np.float64, order="C").reshape(3, -1)


def _shaped(flat: np.ndarray, shape):
    """``flat`` in ``shape``; a numpy scalar when ``shape`` is ()."""
    return flat.reshape(shape)[()]


# The in-place steps of the map, each on (3, n) rows of n voxels with (n,)
# scratch, in the operation order of the whole-array formulas they replace
# (a sum over the three rows is (r0 + r1) + r2, as numpy reduces a stack's
# leading axis).  The public functions validate, copy and call them;
# build_gbbm calls them on its chunk buffers.  A repair under a mask runs
# only when the mask holds a voxel.


def _prior_rows(xi, total, blank):
    """Divide each column of ``xi`` by its sum, or set it to 1/3 where the
    sum is not positive."""
    np.add(xi[0], xi[1], out=total)
    total += xi[2]
    np.less_equal(total, 0.0, out=blank)
    repair = blank.any()
    if repair:
        np.copyto(total, 1.0, where=blank)
    xi /= total
    if repair:
        np.copyto(xi, 1.0 / 3.0, where=blank)


def _posterior_rows(model, prior, x, post, denom, degenerate, scratch):
    """``post`` = the Bayes update of ``prior`` by the likelihoods of ``x``,
    or ``prior`` itself where the denominator is below the floor, which
    ``degenerate`` marks."""
    for row, p, mean, std in zip(post, prior, model.means, model.stds):
        _gaussian_pdf_into(x, mean, std, row, scratch)
        row *= p
    np.add(post[0], post[1], out=denom)
    denom += post[2]
    np.less(denom, BAYES_DENOMINATOR_FLOOR, out=degenerate)
    repair = degenerate.any()
    if repair:
        np.copyto(denom, 1.0, where=degenerate)
    post /= denom
    if repair:
        np.copyto(post, prior, where=degenerate)


def _centre_rows(a, mean):
    np.add(a[0], a[1], out=mean)
    mean += a[2]
    mean /= 3.0
    a -= mean


def _mean_product(a, b, out, scratch):
    """The mean over the rows of a * b, into ``out``."""
    np.multiply(a[0], b[0], out=out)
    for ra, rb in zip(a[1:], b[1:]):
        np.multiply(ra, rb, out=scratch)
        out += scratch
    out /= 3.0


def _pearson_rows(a, b, cc, var_a, var_b, undefined, scratch):
    """``cc`` = the Pearson correlation of the columns of ``a`` and ``b``,
    clipped to [-1, 1], and 0.0 where either variance is below the floor,
    which ``undefined`` marks.  Centres ``a`` and ``b`` in place."""
    _centre_rows(a, scratch)
    _centre_rows(b, scratch)
    _mean_product(a, a, var_a, scratch)
    _mean_product(b, b, var_b, scratch)
    _mean_product(a, b, cc, scratch)
    np.less(var_a, CC_VARIANCE_FLOOR, out=undefined)
    undefined |= var_b < CC_VARIANCE_FLOOR
    var_a *= var_b
    repair = undefined.any()
    if repair:
        np.copyto(var_a, 1.0, where=undefined)
        np.copyto(cc, 0.0, where=undefined)
    np.sqrt(var_a, out=var_a)
    cc /= var_a
    np.clip(cc, -1.0, 1.0, out=cc)


def _cm_rows(cc, positive):
    """The conflict mapping of ``cc``, in place: 1 - CC where CC > 0 (as
    1 + -CC, the same bits), -CC elsewhere."""
    np.greater(cc, 0.0, out=positive)
    np.negative(cc, out=cc)
    np.add(cc, 1.0, out=cc, where=positive)


def spatial_prior(xi) -> np.ndarray:
    """Normalized tissue prior from raw atlas probabilities.

    ``xi`` holds (CSF, GM, WM) along a leading axis of length 3: a (3,)
    vector for one voxel, or a (3, ...) stack of an atlas's three maps.
    Voxels where all three maps read zero get the uninformative prior
    (1/3, 1/3, 1/3).
    """
    xi = _triples(xi, "spatial_prior")
    rows = _rows(xi)
    n = rows.shape[1]
    _prior_rows(rows, np.empty(n), np.empty(n, dtype=bool))
    return rows.reshape(xi.shape)


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
    p = _triples(prior, "prior")
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise ValueError("prior must hold nonnegative finite values")
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("intensity must be finite")
    shape = p.shape[1:]
    rows = _rows(p)
    x = np.broadcast_to(x, shape).reshape(-1)
    n = rows.shape[1]
    post = np.empty_like(rows)
    degenerate = np.empty(n, dtype=bool)
    _posterior_rows(model, rows, x, post, np.empty(n), degenerate, np.empty(n))
    if diagnostics is not None:
        diagnostics["degenerate_bayes"] = degenerate.reshape(shape)
    return post.reshape(p.shape)


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
    ra, rb = _rows(a), _rows(b)
    n = ra.shape[1]
    cc, undefined = np.empty(n), np.empty(n, dtype=bool)
    _pearson_rows(ra, rb, cc, np.empty(n), np.empty(n), undefined, np.empty(n))
    if diagnostics is not None:
        diagnostics["degenerate_cc"] = undefined.reshape(a.shape[1:])
    return _shaped(cc, a.shape[1:])


def cc_to_cm(cc):
    """Conflict mapping: positive correlation folds to 1-CC, the rest to -CC."""
    cc = np.asarray(cc, dtype=np.float64)
    if not (np.abs(cc) <= 1.0).all():
        raise ValueError("CC must lie in [-1, 1]")
    cm = np.array(cc, order="C").reshape(-1)
    _cm_rows(cm, np.empty(cm.size, dtype=bool))
    return _shaped(cm, cc.shape)


class _ChunkBuffers:
    """The buffers build_gbbm's kernel runs a chunk of n voxels in."""

    def __init__(self, n: int):
        self.prior = np.empty((3, n))
        self.post = np.empty((3, n))
        self.scalars = np.empty((4, n))
        self.flags = np.empty((2, n), dtype=bool)

    def run(self, maps, voxels, x, model) -> tuple[np.ndarray, int, int]:
        """The map's values OMEGA * CM at the brain voxels ``voxels``, whose
        intensities are ``x``, with their degenerate Bayes and CC counts.
        The values are a view of these buffers."""
        n = voxels.size
        prior, post = self.prior[:, :n], self.post[:, :n]
        u, v, w, cc = self.scalars[:, :n]  # u, v, w: scratch
        flag, positive = self.flags[:, :n]
        for row, m in zip(prior, maps):
            row[:] = m[voxels]
        _prior_rows(prior, u, flag)
        _posterior_rows(model, prior, x, post, u, flag, v)
        bayes = int(np.count_nonzero(flag))
        _pearson_rows(post, prior, cc, u, v, flag, w)
        cc_count = int(np.count_nonzero(flag))
        _cm_rows(cc, positive)
        cc *= OMEGA
        return cc, bayes, cc_count


def build_gbbm(
    values: np.ndarray,
    atlas: ProbabilisticAtlas,
    model: TissueMixtureModel,
    diagnostics: dict | None = None,
) -> ScalarVolume:
    """Whole-volume abnormality map: OMEGA * CM at brain voxels, 0 elsewhere.

    ``values`` holds the normalized intensity of each brain voxel of the
    atlas, as ``ngmm.normalize_intensity`` returns it for a scan registered
    onto the atlas grid; a vector of another length is rejected.  The map
    is the composition spatial_prior -> posterior_triple -> pearson_cc ->
    cc_to_cm, run by their in-place steps on chunks of GBBM_CHUNK_VOXELS
    brain voxels, so the temporaries stay a fraction of the grid; every
    voxel's value is the same as from one pass over the whole volume.  The
    brain voxels are cut into contiguous parts (``volume.split_planes``,
    at GBBM_PASSES passes per voxel), each with its own chunk buffers,
    which ``volume.run_parts`` runs on the CPUs.  The values are checked
    once here; the atlas's maps and the model's three components were
    checked when they were built.  Optional ``diagnostics`` (a dict)
    receives counts of degenerate brain voxels.
    """
    order = mask_order(atlas.brain_mask)
    voxels = np.flatnonzero(atlas.brain_mask.data.ravel(order))
    x = np.asarray(values, dtype=np.float64)
    if x.shape != voxels.shape:
        raise ValueError(f"need {voxels.size} brain-voxel values, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("intensity must be finite")
    # views when the maps are laid out like the mask, as an atlas read from MVOL is
    maps = [p.data.ravel(order) for p in (atlas.prob_csf, atlas.prob_gm, atlas.prob_wm)]
    out = np.zeros(atlas.dims, order=order)
    flat_out = out.ravel(order)

    def part(job):
        (lo, hi), buffers = job
        counts = [0, 0]
        for start in range(lo, hi, GBBM_CHUNK_VOXELS):
            chunk = slice(start, min(start + GBBM_CHUNK_VOXELS, hi))
            index = voxels[chunk]
            cm, bayes, cc = buffers.run(maps, index, x[chunk], model)
            flat_out[index] = cm
            counts[0] += bayes
            counts[1] += cc
        return counts

    parts = split_planes(0, voxels.size, GBBM_PASSES)
    size = min(GBBM_CHUNK_VOXELS, max(hi - lo for lo, hi in parts))
    jobs = [(p, _ChunkBuffers(size)) for p in parts]  # allocated in this thread
    counts = run_parts(part, jobs)
    if diagnostics is not None:
        diagnostics["degenerate_bayes_voxels"] = sum(c[0] for c in counts)
        diagnostics["degenerate_cc_voxels"] = sum(c[1] for c in counts)
    return ScalarVolume(out, atlas.spacing)
