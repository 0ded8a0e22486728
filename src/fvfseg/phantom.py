"""Deterministic synthetic head phantoms with known tumors.

The pseudo-head is a set of concentric spherical shells centred in the
grid: a CSF ventricle core, a WM shell, a GM band, and a thin CSF rim,
all inside a spherical brain mask.  Shell radii are fixed fractions of
the smallest grid dimension, so any grid of 32 voxels or more per axis
produces the same anatomy at its own scale.

Tissue statistics (arbitrary raw units):

    tissue   mean    std
    CSF      176.0   50.0
    GM       320.0   32.0
    WM       432.0   32.0

GM and WM share the same spread, so their equal-likelihood split sits at
the midpoint 376 = 176 + 4 * 50: a CSF-seated lesion at +4 sigma lands
exactly on that split.  Its posterior then divides evenly between GM and
WM while the local prior backs CSF, which drives the prior/posterior
correlation to -1 regardless of the patient's own intensity
normalization (both the lesion value and the fitted means divide by the
same masked mean).  Keep this alignment in mind before touching the
numbers.

The atlas probability maps are smoothed shell indicators mixed with a
uniform floor, never one-hot: a degenerate prior forces the posterior to
reproduce it exactly, which would make any lesion invisible to the
correlation score.

Positions come from ``volume.world_offsets``: per-axis offsets from the
grid centre ((n - 1) / 2 * spacing per axis) or from the lesion centre,
broadcast over the grid, so the shell radius and the lesion test are the
only grid-sized geometry.  Voxels are assigned their tissue by the argmax
of the three probability maps, compared map against map.

All randomness flows from explicit seeds; equal seeds give bit-identical
volumes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .brainmap import ProbabilisticAtlas
from .mvol import atomic_write_text, read_volume, write_volume
from .volume import BinaryMask, ScalarVolume, gaussian_smooth, morphology, whole_box, world_offsets

# Shell radii as fractions of min(dims).
_VENTRICLE_FRAC = 0.205
_WM_FRAC = 0.315
_GM_FRAC = 0.40
_BRAIN_FRAC = 0.44

_TISSUE_MEANS = (176.0, 320.0, 432.0)  # CSF, GM, WM
_TISSUE_STDS = (50.0, 32.0, 32.0)

_PRIOR_SMOOTH_SIGMA = 1.5  # voxels
_PRIOR_FLOOR = 0.06

_MIN_DIM = 32

ATLAS_FILES = {
    "template": "template.mvol",
    "prob_csf": "prob_csf.mvol",
    "prob_gm": "prob_gm.mvol",
    "prob_wm": "prob_wm.mvol",
    "brain_mask": "brain_mask.mvol",
}

PATIENT_FILE = "patient.mvol"
TRUTH_FILE = "tumor_truth.mvol"
MANIFEST_FILE = "manifest.txt"

_SHAPES = ("sphere", "ellipsoid", "blob")


@dataclass(frozen=True)
class TumorSpec:
    """Planted lesion: geometry plus an intensity offset in units of the
    seat tissue's sigma.  offset 0 is the null control; otherwise the
    magnitude must be at least 3 so the lesion is actually abnormal."""

    shape: str = "sphere"
    center: tuple[float, float, float] | None = None  # world coords, None = grid centre
    radii: tuple[float, ...] = (8.0,)
    offset: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        n_expected = 3 if self.shape == "ellipsoid" else 1
        if len(self.radii) != n_expected:
            raise ValueError(
                f"{self.shape} tumor takes {n_expected} radii, got {len(self.radii)}"
            )
        if any(not (r > 0 and math.isfinite(r)) for r in self.radii):
            raise ValueError(f"radii must be positive and finite, got {self.radii}")
        if self.center is not None:
            ctr = tuple(float(c) for c in self.center)
            if len(ctr) != 3 or any(not math.isfinite(c) for c in ctr):
                raise ValueError(f"center must be a finite 3-tuple, got {self.center!r}")
            object.__setattr__(self, "center", ctr)
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")
        if self.offset != 0.0 and abs(self.offset) < 3.0:
            raise ValueError(
                f"offset must be 0 (control) or at least 3 sigma in magnitude, got {self.offset}"
            )


def _grid_center(dims, spacing):
    return tuple((n - 1) / 2.0 * s for n, s in zip(dims, spacing))


def _shell_masks(dims, spacing):
    dx, dy, dz = world_offsets(whole_box(dims), spacing, _grid_center(dims, spacing))
    r = np.sqrt(dx**2 + dy**2 + dz**2)
    scale = min(d * s for d, s in zip(dims, spacing))
    vent = r < _VENTRICLE_FRAC * scale
    wm = (r >= _VENTRICLE_FRAC * scale) & (r < _WM_FRAC * scale)
    gm = (r >= _WM_FRAC * scale) & (r < _GM_FRAC * scale)
    rim = (r >= _GM_FRAC * scale) & (r < _BRAIN_FRAC * scale)
    brain = r < _BRAIN_FRAC * scale
    return (vent | rim, gm, wm), brain


def _soft_prior(indicator, brain, spacing):
    # float32 holds 0 and 1 exactly and the Gaussian computes in float64,
    # so the narrower indicator gives the same bits
    shell = ScalarVolume(indicator.astype(np.float32), spacing)
    soft = gaussian_smooth(shell, _PRIOR_SMOOTH_SIGMA).data
    soft *= 1.0 - 3.0 * _PRIOR_FLOOR
    soft += _PRIOR_FLOOR
    soft[~brain] = 0.0
    return np.clip(soft, 0.0, 1.0, out=soft)


def synth_atlas(dims, seed: int = 0, spacing=(1.0, 1.0, 1.0)) -> ProbabilisticAtlas:
    """Concentric-shell pseudo-atlas: template with per-tissue noise,
    floor-mixed smooth probability maps, spherical brain mask."""
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3 or any(d < _MIN_DIM for d in dims):
        raise ValueError(f"each dimension must be >= {_MIN_DIM}, got {dims}")
    spacing = tuple(float(s) for s in spacing)

    (csf, gm, wm), brain = _shell_masks(dims, spacing)
    template = np.random.default_rng(seed).standard_normal(dims)
    for tissue_mask, mu, sd in zip((csf, gm, wm), _TISSUE_MEANS, _TISSUE_STDS):
        template[tissue_mask] = mu + sd * template[tissue_mask]
    template[~brain] = 0.0

    return ProbabilisticAtlas(
        template=ScalarVolume(template, spacing),
        prob_csf=ScalarVolume(_soft_prior(csf, brain, spacing), spacing),
        prob_gm=ScalarVolume(_soft_prior(gm, brain, spacing), spacing),
        prob_wm=ScalarVolume(_soft_prior(wm, brain, spacing), spacing),
        brain_mask=BinaryMask(brain, spacing),
    )


def tissue_statistics(atlas: ProbabilisticAtlas):
    """Per-tissue (mean, std) of the template, tissues assigned by the
    argmax of the probability maps (CSF 0, GM 1, WM 2; a tie goes to the
    first).  Works for any atlas, not just the synthetic one.

    The statistics are computed over each tissue region eroded by one
    voxel: argmax assignment is unreliable within a voxel of a tissue
    interface, and a thin misassigned rim is enough to inflate the stds
    well past the true within-tissue spread.
    """
    csf, gm, wm = atlas.prob_csf.data, atlas.prob_gm.data, atlas.prob_wm.data
    labels = (gm > csf).astype(np.uint8)
    labels[wm > np.maximum(csf, gm)] = 2
    brain = atlas.brain_mask.data
    means = np.empty(3)
    stds = np.empty(3)
    for t in range(3):
        sel = brain & (labels == t)
        interior = morphology(BinaryMask(sel, atlas.spacing), "erode").data
        if interior.sum() >= 2:
            sel = interior
        if sel.sum() < 2:
            raise ValueError(f"atlas has fewer than 2 voxels of tissue {t}")
        vals = atlas.template.data[sel]
        means[t] = vals.mean()
        stds[t] = vals.std()
    return means, stds, labels


def _tumor_mask(tumor: TumorSpec, dims, spacing, blob_rng):
    center = tumor.center if tumor.center is not None else _grid_center(dims, spacing)
    dx, dy, dz = world_offsets(whole_box(dims), spacing, center)
    if tumor.shape == "sphere":
        mask = dx * dx + dy * dy + dz * dz < tumor.radii[0] ** 2
    elif tumor.shape == "ellipsoid":
        ra, rb, rc = tumor.radii
        mask = (dx / ra) ** 2 + (dy / rb) ** 2 + (dz / rc) ** 2 < 1.0
    else:  # blob: sphere with a smooth radial wobble
        eta = gaussian_smooth(
            ScalarVolume(blob_rng.standard_normal(dims), spacing), 3.0
        ).data
        peak = float(np.abs(eta).max())
        if peak > 0:
            eta = eta / peak
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)
        mask = dist < tumor.radii[0] * (1.0 + 0.25 * eta)
    return mask, center


def synth_patient(atlas: ProbabilisticAtlas, tumor: TumorSpec):
    """Patient volume with fresh per-tissue noise and the tumor region
    overwritten at seat-tissue mean + offset * sigma (constant).  Returns
    (patient, ground-truth mask)."""
    dims = atlas.dims
    spacing = atlas.spacing
    means, stds, labels = tissue_statistics(atlas)
    brain = atlas.brain_mask.data

    root = np.random.SeedSequence(tumor.seed)
    noise_rng, blob_rng = (np.random.default_rng(s) for s in root.spawn(2))

    patient = noise_rng.standard_normal(dims)
    patient *= stds[labels]
    patient += means[labels]
    patient[~brain] = 0.0

    mask, center = _tumor_mask(tumor, dims, spacing, blob_rng)
    if not mask.any():
        raise ValueError("tumor region contains no voxels on this grid")
    if (mask & ~brain).any():
        raise ValueError("tumor region extends outside the brain mask")

    ci = tuple(
        min(max(int(round(center[ax] / spacing[ax])), 0), dims[ax] - 1) for ax in range(3)
    )
    if not brain[ci]:
        raise ValueError(f"tumor center voxel {ci} is outside the brain mask")
    seat = int(labels[ci])
    patient[mask] = means[seat] + tumor.offset * stds[seat]

    return ScalarVolume(patient, spacing), BinaryMask(mask, spacing)


# ---------------------------------------------------------------------------
# Directory layout shared with the pipeline


def save_atlas_dir(atlas: ProbabilisticAtlas, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for key, fname in ATLAS_FILES.items():
        write_volume(getattr(atlas, key), os.path.join(path, fname))


def load_atlas_dir(path: str) -> ProbabilisticAtlas:
    vols = {}
    for key, fname in ATLAS_FILES.items():
        fpath = os.path.join(path, fname)
        if not os.path.exists(fpath):
            raise FileNotFoundError(f"atlas directory is missing {fpath}")
        vols[key] = read_volume(fpath)
    mask = vols["brain_mask"]
    if not isinstance(mask, BinaryMask):
        raise ValueError("brain_mask.mvol must be a mask volume")
    for key in ("template", "prob_csf", "prob_gm", "prob_wm"):
        if isinstance(vols[key], BinaryMask):
            raise ValueError(f"{ATLAS_FILES[key]} must be a scalar volume")
    return ProbabilisticAtlas(**vols)


def _fmt(v) -> str:
    return format(float(v), ".17g")


def save_phantom_case(
    path: str,
    atlas: ProbabilisticAtlas,
    patient: ScalarVolume,
    truth: BinaryMask,
    tumor: TumorSpec,
    atlas_seed: int,
) -> None:
    """Write atlas + patient + ground truth + a manifest of every
    generator parameter."""
    save_atlas_dir(atlas, path)
    write_volume(patient, os.path.join(path, PATIENT_FILE))
    write_volume(truth, os.path.join(path, TRUTH_FILE))
    lines = [
        f"dims={atlas.dims[0]},{atlas.dims[1]},{atlas.dims[2]}",
        f"spacing={_fmt(atlas.spacing[0])},{_fmt(atlas.spacing[1])},{_fmt(atlas.spacing[2])}",
        f"atlas_seed={atlas_seed}",
        f"tumor_seed={tumor.seed}",
        f"shape={tumor.shape}",
        f"center={'auto' if tumor.center is None else ','.join(_fmt(c) for c in tumor.center)}",
        f"radii={','.join(_fmt(r) for r in tumor.radii)}",
        f"offset={_fmt(tumor.offset)}",
        f"tumor_voxels={int(truth.count())}",
    ]
    atomic_write_text(os.path.join(path, MANIFEST_FILE), "\n".join(lines) + "\n")
