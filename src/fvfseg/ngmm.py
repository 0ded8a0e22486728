"""Normalized Gaussian mixture modelling of tissue intensities.

A scan is first normalized by its mean intensity over the brain mask, which
maps the (scanner-dependent) raw range onto a common scale where tissue
modes from different acquisitions line up.  Only brain voxels are read,
and their normalized values form one vector that both the fit and the
abnormality map (``brainmap.build_gbbm``) read, so nothing here may sort
or write it in place.  A K-component
univariate Gaussian mixture is then fitted to that vector with EM.  For
K = 3 the components are labelled CSF/GM/WM in ascending order of mean,
matching the usual T1 ordering: fluid darkest, white matter brightest.

EM runs on a weighted histogram of the samples (grouped-data EM,
McLachlan & Jones 1988): the samples are binned once into ``EM_BINS``
bins with exact fixed-point moments, in chunks of ``EM_CHUNK_SAMPLES``,
and every iteration costs O(bins), not O(samples).  Each bin stands in at
the exact mean of its samples, and its scatter enters the variances, so
the fit matches per-sample EM to a tolerance set by the bin width.  The
quantiles that place the bins and start the means are np.quantile's,
read by exact selection (``_quantiles``): a chunked count over
``_SELECT_BINS`` bins finds the few bins that hold the wanted ranks, and
only their samples are copied and partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .volume import BinaryMask, ScalarVolume, mask_order, require_same_grid

VARIANCE_FLOOR = 1e-6
# the default caps of fit_em's iterations and of the samples it is given
EM_MAX_ITERS = 500
MAX_SAMPLES = 2_000_000
# EM's histogram: bins over the widened central span of the samples, each
# quantized to 2**_LEVEL_BITS fixed-point levels
EM_BINS = 16384
_LEVEL_BITS = 15
# samples binned per np.bincount call: at 2**14 samples every per-chunk bin
# sum of the levels and of their squares is an integer below 2**44, exact
# in float64
EM_CHUNK_SAMPLES = 16384
# the bins span the samples' _TAIL_QUANTILE and 1 - _TAIL_QUANTILE
# quantiles, widened by a quarter of that span on each side
_TAIL_QUANTILE = 0.0005
# fit_em's initial quantiles are read by selection: the samples are counted
# into this many bins over [min, max], and only the bins that hold a wanted
# rank are gathered and partitioned
_SELECT_BINS = 4096
_FLOAT_MAX = float(np.finfo(np.float64).max)
_STD_FLOOR = math.sqrt(VARIANCE_FLOOR)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(eq=True)
class TissueMixtureModel:
    """Univariate Gaussian mixture, components sorted by ascending mean."""

    weights: tuple[float, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]
    loglik_trace: tuple[float, ...] | None = field(default=None, compare=False, repr=False)
    converged: bool | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.weights = tuple(float(w) for w in self.weights)
        self.means = tuple(float(m) for m in self.means)
        self.stds = tuple(float(s) for s in self.stds)
        k = len(self.weights)
        if k < 1 or len(self.means) != k or len(self.stds) != k:
            raise ValueError("weights, means and stds must have one common nonzero length")
        vals = self.weights + self.means + self.stds
        if any(not math.isfinite(v) for v in vals):
            raise ValueError("model parameters must be finite")
        if any(w < 0 for w in self.weights) or abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-9")
        if any(s < _STD_FLOOR * (1 - 1e-12) for s in self.stds):
            raise ValueError(f"stds must respect the floor {_STD_FLOOR}")
        if any(a > b for a, b in zip(self.means, self.means[1:])):
            raise ValueError("means must be sorted ascending")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def labels(self) -> tuple[str, ...] | None:
        return ("CSF", "GM", "WM") if self.n_components == 3 else None


def normalize_intensity(scan: ScalarVolume, mask: BinaryMask):
    """The scan's values at the voxels of ``mask``, in the mask's memory
    order (``volume.mask_order``), widened to float64 (exact) and divided by
    their mean, together with that mean.

    The values are gathered through the mask itself, with no index of its
    voxels.  The mean is summed in the mask's memory order, so for a
    float64 scan in Fortran order it can differ in its last bit from a sum
    in C order.
    """
    require_same_grid(scan, mask, "scan and mask")
    order = mask_order(mask)
    values = np.asarray(scan.data.ravel(order)[mask.data.ravel(order)], dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot normalize against an empty mask")
    m = float(values.mean())
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"masked mean must be positive to normalize, got {m}")
    values /= m
    return values, m


def gaussian_pdf(x, mean: float, std: float):
    """Normal density; accepts a scalar or an array for ``x``."""
    if not (std > 0 and math.isfinite(std)):
        raise ValueError(f"std must be positive and finite, got {std}")
    z = np.asarray(x, dtype=np.float64)
    out = _gaussian_pdf_into(z, mean, std, np.empty_like(z), np.empty_like(z))
    return float(out) if np.isscalar(x) else out


def _gaussian_pdf_into(x, mean: float, std: float, out, z):
    """N(x; mean, std) into ``out`` as exp(-0.5 * z * z) / (std * sqrt(2 pi))
    with z = (x - mean) / std, held in the scratch ``z``; returns ``out``."""
    np.subtract(x, mean, out=z)
    z /= std
    np.multiply(z, -0.5, out=out)
    out *= z
    np.exp(out, out=out)
    out /= std * math.sqrt(2.0 * math.pi)
    return out


def sample_masked_intensities(values: np.ndarray, max_samples: int = MAX_SAMPLES) -> np.ndarray:
    """``values`` itself when it holds at most ``max_samples`` values, else
    a uniform subsample of that size drawn with seed 0, in the order of
    ``values``."""
    if max_samples < 1:
        raise ValueError("max_samples must be >= 1")
    if values.size <= max_samples:
        return values
    idx = np.random.default_rng(0).choice(values.size, size=max_samples, replace=False)
    return values[np.sort(idx)]


def _log_weighted_densities(x, weights, means, stds, out):
    """Fill row j of ``out`` (k, n) with log w_j + log N(x; mu_j, sigma_j)."""
    consts = np.log(weights) - np.log(stds) - _LOG_SQRT_2PI
    for row, mu, sigma, c in zip(out, means, stds, consts):
        np.subtract(x, mu, out=row)
        np.square(row, out=row)
        row *= -0.5 / (sigma * sigma)
        row += c
    return out


def _log_normalize(terms, peak, log_z):
    """Normalize the columns of ``terms`` (k, n) in log space, in place.

    On entry column i holds the log-weighted densities of sample i; on
    return it holds that sample's responsibilities, and ``log_z[i]`` the log
    of its mixture density.  The column max is subtracted before the single
    ``exp`` pass, so a sample whose every weighted density underflows in
    linear space still gets finite values.  ``peak`` is scratch of length n.
    Returns ``log_z``.
    """
    np.max(terms, axis=0, out=peak)
    terms -= peak
    np.exp(terms, out=terms)
    np.sum(terms, axis=0, out=log_z)
    terms /= log_z
    np.log(log_z, out=log_z)
    log_z += peak
    return log_z


def _select_bins(xc, lo, scale):
    """The selection bin of each sample of ``xc``: floor((x/2 - lo/2) * scale),
    at most _SELECT_BINS - 1.  Halving keeps the difference finite, and every
    step is monotone in x, so the bins hold the samples in sorted order."""
    t = np.multiply(xc, 0.5)
    t -= 0.5 * lo
    t *= scale
    np.minimum(t, _SELECT_BINS - 1, out=t)
    return t.astype(np.intp)


def _order_statistics(x, ranks):
    """The values at the 0-based ``ranks`` (sorted, distinct) of the finite
    samples ``x`` in ascending order, without sorting or copying ``x``.

    One pass in chunks of EM_CHUNK_SAMPLES counts the samples per bin
    (``_select_bins``); the cumulative counts give the bin and the rank
    inside it of each wanted rank.  A second pass gathers the samples of
    those bins, in bin order, and one partition of them places each wanted
    rank.  The gathered samples are a few bins' worth, not the vector."""
    lo, hi = float(x.min()), float(x.max())
    half_span = 0.5 * hi - 0.5 * lo
    # a span too small for _SELECT_BINS / span to be finite gets the largest
    # finite scale: (x/2 - lo/2) * scale then still stays below the bin count
    scale = _SELECT_BINS / max(half_span, _SELECT_BINS / _FLOAT_MAX) if half_span > 0 else 0.0
    count = np.zeros(_SELECT_BINS, dtype=np.int64)
    for start in range(0, x.size, EM_CHUNK_SAMPLES):
        count += np.bincount(
            _select_bins(x[start : start + EM_CHUNK_SAMPLES], lo, scale), minlength=_SELECT_BINS
        )
    below = np.cumsum(count) - count  # samples in the lower bins
    bins = np.searchsorted(below, ranks, side="right") - 1
    wanted = np.zeros(_SELECT_BINS, dtype=bool)
    wanted[bins] = True
    picked = []
    for start in range(0, x.size, EM_CHUNK_SAMPLES):
        xc = x[start : start + EM_CHUNK_SAMPLES]
        picked.append(xc[wanted[_select_bins(xc, lo, scale)]])
    gathered = np.concatenate(picked)
    # the gathered samples below bin b are those of the wanted bins below it
    kept = np.where(wanted, count, 0)
    kth = np.cumsum(kept)[bins] - kept[bins] + (ranks - below[bins])
    gathered.partition(kth)
    return gathered[kth]


def _quantiles(x, q):
    """``np.quantile(x, q)`` for finite 1-d ``x`` and ``q`` in [0, 1], bit
    for bit: numpy's linear method (virtual index (n - 1) * q, its two
    neighbouring ranks, clipped to the last, and its interpolation), with
    the ranks' values read by ``_order_statistics`` instead of a
    partitioned copy of ``x``.  One exception: where tied 0.0 and -0.0
    samples hold a rank, either zero may be read, as in np.quantile, whose
    pick depends on its partition's internal order."""
    n = x.size
    virtual = (n - 1) * q
    prev = np.floor(virtual)
    nxt = prev + 1
    last = virtual >= n - 1
    prev[last] = -1
    nxt[last] = -1
    prev = prev.astype(np.intp)
    nxt = nxt.astype(np.intp)
    ranks = np.unique(np.concatenate((prev, nxt)) % n)
    values = _order_statistics(x, ranks)
    a = values[np.searchsorted(ranks, prev % n)]
    b = values[np.searchsorted(ranks, nxt % n)]
    gamma = virtual - prev
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def _bin_moments(x, lo, hi):
    """Exact per-bin moments of the samples of ``x`` inside [lo, hi].

    [lo, hi] is cut into EM_BINS * 2**15 levels.  A sample's fixed-point
    position is the index t of its level (clipped, so hi falls in the last
    one): the high bits of t are the bin and its low 15 bits the level f
    inside the bin.  When lo == hi every sample inside sits at t = 0.

    For each chunk of ``EM_CHUNK_SAMPLES``, ``np.bincount`` sums 1, f and
    f*f per bin; each such sum is an integer below 2**44, so it is exact in
    float64, and it is added into an int64 accumulator.  The sums therefore
    do not depend on the order of the samples or of the chunks.  Returns
    the count, sum f and sum f*f per bin and the samples outside [lo, hi],
    unsorted.
    """
    levels = EM_BINS << _LEVEL_BITS
    scale = levels / (hi - lo) if hi > lo else 0.0
    count = np.zeros(EM_BINS, dtype=np.int64)
    sum_f = np.zeros(EM_BINS, dtype=np.int64)
    sum_f2 = np.zeros(EM_BINS, dtype=np.int64)
    outside = []
    for start in range(0, x.size, EM_CHUNK_SAMPLES):
        xc = x[start : start + EM_CHUNK_SAMPLES]
        inside = (xc >= lo) & (xc <= hi)
        if not inside.all():
            outside.append(xc[~inside])
            xc = xc[inside]
        t = ((xc - lo) * scale).astype(np.int64)  # truncation is floor: xc >= lo
        np.minimum(t, levels - 1, out=t)
        b = t >> _LEVEL_BITS
        f = (t & ((1 << _LEVEL_BITS) - 1)).astype(np.float64)
        count += np.bincount(b, minlength=EM_BINS)
        sum_f += np.bincount(b, weights=f, minlength=EM_BINS).astype(np.int64)
        np.square(f, out=f)
        sum_f2 += np.bincount(b, weights=f, minlength=EM_BINS).astype(np.int64)
    outside = np.concatenate(outside) if outside else np.empty(0)
    return count, sum_f, sum_f2, outside


def _binned_samples(x, lo, hi):
    """The samples as weighted points for EM: (points, counts, scatter).

    [lo, hi] is cut into ``EM_BINS`` bins, each quantized to 2**15 levels
    (``_bin_moments``).  Each non-empty bin gives one point at the exact
    mean of its quantized samples, weighted by its count; its scatter is
    their summed squared deviation about that mean plus the quantization
    variance step**2/12 per sample, where step is the level width.  Each
    sample outside [lo, hi] is a unit-weight point with no scatter; these
    follow the bins, sorted.  When lo == hi the bin width is 0 and every
    sample equal to lo lands in one bin at exactly lo.
    """
    count, sum_f, sum_f2, outside = _bin_moments(x, lo, hi)
    step = (hi - lo) / (EM_BINS << _LEVEL_BITS)
    full = np.flatnonzero(count)
    c = count[full].astype(np.float64)
    s1 = sum_f[full].astype(np.float64)
    mean_f = s1 / c
    spread = np.maximum(sum_f2[full].astype(np.float64) - s1 * mean_f, 0.0) + c / 12.0
    points = lo + step * ((full << _LEVEL_BITS) + mean_f + 0.5)
    return (
        np.concatenate((points, np.sort(outside))),
        np.concatenate((c, np.ones(outside.size))),
        np.concatenate((step * step * spread, np.zeros(outside.size))),
    )


def fit_em(
    samples,
    k: int = 3,
    tol: float = 1e-6,
    max_iters: int = EM_MAX_ITERS,
) -> TissueMixtureModel:
    """Fit a K-component univariate Gaussian mixture with EM.

    Initialization is deterministic: component means start at the
    (2j+1)/(2k) sample quantiles, all stds at sample_std/k, weights
    uniform.

    The samples are binned once and every iteration runs over the bins,
    the grouped-data EM of McLachlan & Jones (1988).  The bins cover the
    span between the 0.0005 and 0.9995 quantiles, widened by a quarter of
    it on each side, in ``EM_BINS`` bins of 2**15 fixed-point levels each
    (``_binned_samples``).  A bin enters EM as one point at the exact mean
    of its quantized samples, weighted by its count; a sample outside the
    span enters as a point of its own.  The bin sums are exact integers,
    so the fit is bitwise invariant to the order of the samples.  Every
    sum over the points is numpy's pairwise sum of an elementwise product,
    never a BLAS dot, whose partial sums follow the BLAS thread count, so
    the fit is also the same bits on any number of CPUs.  The initial std
    comes from the moments of these points and scatters.

    Per iteration, the E-step fills row j with
    log w_j + log N(x; mu_j, sigma_j) at each point and normalizes the
    columns in log space (``_log_normalize``), giving the responsibilities
    r and the log mixture density log z.  The M-step weights r by the
    points' counts c: n_j = sum c*r, the mean moves by
    sum c*r*(x - mu_j) / n_j (so samples that all equal v give exactly v),
    and the variance is sum c*r*(x - mu_j)^2 about the new mean plus
    sum r*scatter, over n_j.  A component whose count falls below 1e-12
    keeps its parameters; variances are floored at ``VARIANCE_FLOOR``.

    The per-sample log-likelihood sum c*log z / n is tracked every
    iteration (exposed as ``loglik_trace`` on the result) and must never
    decrease; a decrease beyond 1e-9 raises, since it signals a numerical
    problem.  The result's ``converged`` is false when ``max_iters`` ran out
    before the gain in log-likelihood fell below ``tol``.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < k:
        raise ValueError(f"need at least {k} samples to fit {k} components, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("samples contain non-finite values")
    if k < 1 or max_iters < 1 or not (tol > 0):
        raise ValueError("k and max_iters must be >= 1 and tol > 0")

    qs = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    q = _quantiles(x, np.concatenate(([_TAIL_QUANTILE, 1.0 - _TAIL_QUANTILE], qs)))
    margin = 0.25 * (q[1] - q[0])
    points, counts, scatter = _binned_samples(x, q[0] - margin, q[1] + margin)

    n = x.size
    centre = float(np.multiply(counts, points).sum()) / n
    variance = float(np.multiply(counts, np.square(points - centre)).sum() + scatter.sum()) / n
    means = q[2:].copy()
    stds = np.full(k, max(math.sqrt(variance) / k, _STD_FLOOR))
    weights = np.full(k, 1.0 / k)

    terms = np.empty((k, points.size))
    peak = np.empty(points.size)
    log_z = np.empty(points.size)
    trace = []
    prev_ll = -np.inf
    converged = False
    for _ in range(max_iters):
        _log_weighted_densities(points, weights, means, stds, terms)
        ll = float(np.multiply(counts, _log_normalize(terms, peak, log_z), out=log_z).sum()) / n
        if not math.isfinite(ll):
            raise ValueError("EM log-likelihood became non-finite")
        if ll < prev_ll - 1e-9:
            raise ValueError(f"EM log-likelihood decreased ({prev_ll} -> {ll})")
        trace.append(ll)
        if ll - prev_ll < tol and len(trace) > 1:
            converged = True
            break
        prev_ll = ll

        within = np.multiply(terms, scatter).sum(axis=1)
        terms *= counts  # responsibilities times counts
        nk = terms.sum(axis=1)
        dev, prod = peak, log_z  # the E-step is done with its scratch rows
        for j in range(k):
            if nk[j] < 1e-12:
                continue  # starved component: keep its parameters
            np.subtract(points, means[j], out=dev)
            shift = float(np.multiply(terms[j], dev, out=prod).sum()) / nk[j]
            dev -= shift
            np.square(dev, out=dev)
            means[j] += shift
            var = (np.multiply(terms[j], dev, out=prod).sum() + within[j]) / nk[j]
            stds[j] = math.sqrt(max(var, VARIANCE_FLOOR))
        weights = nk / n

    order = np.argsort(means, kind="stable")
    return TissueMixtureModel(
        weights=tuple(weights[order]),
        means=tuple(means[order]),
        stds=tuple(stds[order]),
        loglik_trace=tuple(trace),
        converged=converged,
    )


def model_to_text(model: TissueMixtureModel) -> str:
    lines = [f"K={model.n_components}"]
    for j in range(model.n_components):
        lines.append(f"weight_{j}={format(model.weights[j], '.17g')}")
        lines.append(f"mean_{j}={format(model.means[j], '.17g')}")
        lines.append(f"std_{j}={format(model.stds[j], '.17g')}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> TissueMixtureModel:
    entries = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad model line {line!r}, expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"duplicate model key {key!r}")
        entries[key] = value
    if "K" not in entries:
        raise ValueError("model text is missing the K entry")
    k = int(entries.pop("K"))
    expected = {f"{kind}_{j}" for j in range(k) for kind in ("weight", "mean", "std")}
    if set(entries) != expected:
        raise ValueError(
            f"model text keys do not match K={k}: "
            f"missing {sorted(expected - set(entries))}, stray {sorted(set(entries) - expected)}"
        )
    return TissueMixtureModel(
        weights=tuple(float(entries[f"weight_{j}"]) for j in range(k)),
        means=tuple(float(entries[f"mean_{j}"]) for j in range(k)),
        stds=tuple(float(entries[f"std_{j}"]) for j in range(k)),
    )


def save_model(model: TissueMixtureModel, path) -> None:
    from .mvol import atomic_write_text

    atomic_write_text(path, model_to_text(model))


def load_model(path) -> TissueMixtureModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_text(fh.read())
