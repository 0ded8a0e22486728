"""Normalized Gaussian mixture modelling of tissue intensities.

A scan is first normalized by its mean intensity over the brain mask, which
maps the (scanner-dependent) raw range onto a common scale where tissue
modes from different acquisitions line up.  A K-component univariate
Gaussian mixture is then fitted to the normalized masked intensities with
EM.  For K = 3 the components are labelled CSF/GM/WM in ascending order of
mean, matching the usual T1 ordering: fluid darkest, white matter
brightest.

Each EM iteration is a single pass over the sorted samples in chunks of
``EM_CHUNK_SAMPLES``: the E-step and the M-step's sums run on one chunk
while it is in cache, and the variances come from second moments about
the previous means (the shifted-data identity), so no (k, n) array of
responsibilities is ever held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .volume import BinaryMask, ScalarVolume, require_same_grid

VARIANCE_FLOOR = 1e-6
# samples per EM chunk: for a 3-component fit the (k, chunk) E-step buffers,
# the two scratch rows and the chunk itself take 768 KB, well inside a 2 MB
# L2 cache
EM_CHUNK_SAMPLES = 16384
_STD_FLOOR = math.sqrt(VARIANCE_FLOOR)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class NormalizationRecord:
    """How a volume was brought onto the normalized intensity scale."""

    mean: float
    note: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.mean) and self.mean > 0):
            raise ValueError(f"normalization mean must be positive and finite, got {self.mean}")


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


def normalize_intensity(vol: ScalarVolume, mask: BinaryMask):
    """Divide a volume by its mean over ``mask``.

    Returns the rescaled volume together with a NormalizationRecord; the
    masked mean of the result is 1 by construction.  Voxels outside the
    mask are divided as well.
    """
    require_same_grid(vol, mask, "volume and mask")
    n = mask.count()
    if n == 0:
        raise ValueError("cannot normalize against an empty mask")
    data = np.asarray(vol.data, dtype=np.float64)
    m = float(data[mask.data].mean())
    if not (math.isfinite(m) and m > 0):
        raise ValueError(f"masked mean must be positive to normalize, got {m}")
    out = ScalarVolume(data / m, vol.spacing)
    return out, NormalizationRecord(mean=m, note=f"mean over {n} masked voxels")


def gaussian_pdf(x, mean: float, std: float):
    """Normal density; accepts a scalar or an array for ``x``."""
    if not (std > 0 and math.isfinite(std)):
        raise ValueError(f"std must be positive and finite, got {std}")
    z = (np.asarray(x, dtype=np.float64) - mean) / std
    out = np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))
    return float(out) if np.isscalar(x) else out


def sample_masked_intensities(
    vol: ScalarVolume, mask: BinaryMask, max_samples: int = 2_000_000, seed: int = 0
) -> np.ndarray:
    """Masked voxel values, uniformly subsampled to at most ``max_samples``."""
    require_same_grid(vol, mask, "volume and mask")
    if max_samples < 1:
        raise ValueError("max_samples must be >= 1")
    values = np.asarray(vol.data, dtype=np.float64)[mask.data]
    if values.size > max_samples:
        rng = np.random.default_rng(seed)
        idx = rng.choice(values.size, size=max_samples, replace=False)
        values = values[np.sort(idx)]
    return values


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


def fit_em(
    samples,
    k: int = 3,
    tol: float = 1e-6,
    max_iters: int = 500,
) -> TissueMixtureModel:
    """Fit a K-component univariate Gaussian mixture with EM.

    Initialization is deterministic: component means start at the
    (2j+1)/(2k) sample quantiles, all stds at sample_std/k, weights
    uniform.  Samples are sorted internally, so permuting the input
    changes nothing.

    Each iteration is one pass over the sorted samples in chunks of
    ``EM_CHUNK_SAMPLES``, on (k, chunk) buffers small enough to stay in
    cache.  Per chunk, the E-step fills row j with
    log w_j + log N(x; mu_j, sigma_j), subtracts the per-sample max and
    makes one ``exp`` pass; the column sums give both the per-sample log
    mixture density and, by division, the responsibilities r
    (``_log_normalize``).  The chunk then adds its share of the
    log-likelihood and of three k-vectors: the effective counts
    n_j = sum r, the first moments sum r*x and the second moments about
    the old means, S_j = sum r*(x - mu_j)^2.  After the pass the new mean
    is sum r*x / n_j and the variance comes from the shifted-data identity
    S_j/n_j - (mu_new - mu_j)^2, so the responsibilities are never stored
    and never read twice.  A component whose count falls below 1e-12
    keeps its parameters; variances are floored at ``VARIANCE_FLOOR``.

    The per-sample log-likelihood is tracked every iteration (exposed as
    ``loglik_trace`` on the result) and must never decrease; a decrease
    beyond 1e-9 raises, since it signals a numerical problem.  The result's
    ``converged`` is false when ``max_iters`` ran out before the gain in
    log-likelihood fell below ``tol``.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if x.size < k:
        raise ValueError(f"need at least {k} samples to fit {k} components, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("samples contain non-finite values")
    if k < 1 or max_iters < 1 or not (tol > 0):
        raise ValueError("k and max_iters must be >= 1 and tol > 0")

    qs = (2.0 * np.arange(k) + 1.0) / (2.0 * k)
    means = np.quantile(x, qs)
    stds = np.full(k, max(float(x.std()) / k, _STD_FLOOR))
    weights = np.full(k, 1.0 / k)

    n = x.size
    width = min(n, EM_CHUNK_SAMPLES)
    terms_buf = np.empty((k, width))
    peak_buf = np.empty(width)
    log_z_buf = np.empty(width)
    trace = []
    prev_ll = -np.inf
    converged = False
    for _ in range(max_iters):
        nk = np.zeros(k)
        first = np.zeros(k)
        second = np.zeros(k)
        ll_sum = 0.0
        for start in range(0, n, width):
            xc = x[start : start + width]
            terms = terms_buf[:, : xc.size]
            peak = peak_buf[: xc.size]
            _log_weighted_densities(xc, weights, means, stds, terms)
            ll_sum += float(_log_normalize(terms, peak, log_z_buf[: xc.size]).sum())
            nk += terms.sum(axis=1)
            first += terms @ xc
            sq_dev = peak  # the E-step is done with its scratch row
            for j in range(k):
                np.subtract(xc, means[j], out=sq_dev)
                np.square(sq_dev, out=sq_dev)
                second[j] += terms[j] @ sq_dev
        ll = ll_sum / n
        if not math.isfinite(ll):
            raise ValueError("EM log-likelihood became non-finite")
        if ll < prev_ll - 1e-9:
            raise ValueError(f"EM log-likelihood decreased ({prev_ll} -> {ll})")
        trace.append(ll)
        if ll - prev_ll < tol and len(trace) > 1:
            converged = True
            break
        prev_ll = ll

        for j in range(k):
            if nk[j] < 1e-12:
                continue  # starved component: keep its parameters
            mu = first[j] / nk[j]
            var = second[j] / nk[j] - (mu - means[j]) ** 2
            means[j] = mu
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
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
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
