"""Regular-grid volume types and the grid operations everything else builds on.

Conventions used throughout the package:

* a volume is an ``(nx, ny, nz)`` array indexed ``[x, y, z]``; the linear
  (serialized) order is x-fastest, i.e. ``data.ravel(order="F")``
* ``spacing`` is the voxel pitch in millimetres per axis
* the world position of voxel ``(i, j, k)`` is ``(i*sx, j*sy, k*sz)``
* binary morphology uses the discrete Chebyshev ball of the given radius
  (a ``(2r+1)^3`` cube, so the 26-neighbourhood at radius 1) and treats
  everything outside the grid as background

All operations are pure functions: they never mutate their inputs, so they
are safe to call from worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import GridMismatchError

Triple = tuple[float, float, float]


def _check_spacing(spacing):
    s = tuple(float(v) for v in spacing)
    if len(s) != 3 or any(not math.isfinite(v) or v <= 0 for v in s):
        raise ValueError(f"spacing must be three positive finite values, got {spacing!r}")
    return s


@dataclass
class ScalarVolume:
    """One floating-point value per voxel on a regular grid."""

    data: np.ndarray
    spacing: Triple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3 or any(n < 1 for n in self.data.shape):
            raise ValueError(f"volume data must be 3-d and non-empty, got shape {self.data.shape}")
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        if not np.isfinite(self.data).all():
            raise ValueError("volume data contains non-finite values")
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass
class BinaryMask:
    """Boolean membership per voxel, same grid conventions as ScalarVolume."""

    data: np.ndarray
    spacing: Triple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3 or any(n < 1 for n in self.data.shape):
            raise ValueError(f"mask data must be 3-d and non-empty, got shape {self.data.shape}")
        if self.data.dtype != np.bool_:
            self.data = self.data.astype(bool)
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def count(self) -> int:
        return int(self.data.sum())


@dataclass
class VectorField:
    """Per-voxel 3-vectors stored as three component arrays."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    spacing: Triple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if not (self.x.shape == self.y.shape == self.z.shape) or self.x.ndim != 3:
            raise ValueError("vector field components must share one 3-d shape")
        self.spacing = _check_spacing(self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.x.shape

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.x**2 + self.y**2 + self.z**2)


def require_same_grid(a, b, what: str = "volumes"):
    if a.dims != b.dims or a.spacing != b.spacing:
        raise GridMismatchError(
            f"{what} must share one grid: {a.dims}/{a.spacing} vs {b.dims}/{b.spacing}"
        )


def world_coordinates(dims, spacing):
    """Three (nx, ny, nz) arrays holding the world x/y/z of every voxel."""
    axes = [np.arange(n, dtype=np.float64) * s for n, s in zip(dims, spacing)]
    return np.meshgrid(*axes, indexing="ij")


def _ball(radius: int) -> np.ndarray:
    # Chebyshev ball: all offsets with max-norm <= radius.
    return np.ones((2 * radius + 1,) * 3, dtype=bool)


def morphology(mask: BinaryMask, mode: str, radius: int = 1, iterations: int = 1) -> BinaryMask:
    """Binary erosion or dilation, out-of-grid voxels counted as background."""
    if mode not in ("erode", "dilate"):
        raise ValueError(f"mode must be 'erode' or 'dilate', got {mode!r}")
    if radius < 1 or iterations < 1:
        raise ValueError("radius and iterations must both be >= 1")
    op = ndimage.binary_erosion if mode == "erode" else ndimage.binary_dilation
    out = op(mask.data, structure=_ball(radius), iterations=iterations, border_value=0)
    return BinaryMask(out, mask.spacing)


def _linear_index_min(labels: np.ndarray, lab: int, dims) -> int:
    # smallest x-fastest linear index of a labelled component
    ix, iy, iz = np.nonzero(labels == lab)
    nx, ny = dims[0], dims[1]
    return int(np.min(ix + nx * (iy + ny * iz)))


def largest_component(mask: BinaryMask, connectivity: int = 26) -> BinaryMask:
    """Keep only the largest connected component.

    Ties are broken deterministically in favour of the component containing
    the smallest x-fastest linear voxel index.
    """
    if connectivity not in (6, 26):
        raise ValueError(f"connectivity must be 6 or 26, got {connectivity}")
    if not mask.data.any():
        raise ValueError("largest_component of an empty mask")
    structure = ndimage.generate_binary_structure(3, 1 if connectivity == 6 else 3)
    labels, n = ndimage.label(mask.data, structure=structure)
    counts = np.bincount(labels.ravel())
    counts[0] = 0
    best = counts.max()
    tied = np.flatnonzero(counts == best)
    if len(tied) > 1:
        winner = min(tied, key=lambda lab: _linear_index_min(labels, lab, mask.dims))
    else:
        winner = tied[0]
    return BinaryMask(labels == winner, mask.spacing)


def _gauss_kernel(sigma: float) -> np.ndarray:
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_smooth(vol: ScalarVolume, sigma: float) -> ScalarVolume:
    """Separable Gaussian blur, kernel cut at 3*sigma and renormalized,
    edges replicated."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    k = _gauss_kernel(sigma)
    out = np.asarray(vol.data, dtype=np.float64)
    for axis in range(3):
        out = ndimage.correlate1d(out, k, axis=axis, mode="nearest")
    return ScalarVolume(out, vol.spacing)


def central_gradient(vol: ScalarVolume) -> VectorField:
    """Finite-difference gradient in world units: central differences in the
    interior, one-sided on the faces."""
    if any(n < 3 for n in vol.dims):
        raise ValueError(f"central gradient needs at least 3 voxels per axis, got {vol.dims}")
    gx, gy, gz = np.gradient(np.asarray(vol.data, dtype=np.float64), *vol.spacing, edge_order=1)
    return VectorField(gx, gy, gz, vol.spacing)


def mask_boundary_strip(mask: BinaryMask, depth: int) -> BinaryMask:
    """Peel ``depth`` voxel layers off a mask (erosion by the radius-1 ball,
    ``depth`` times)."""
    if depth < 1:
        raise ValueError(f"strip depth must be >= 1, got {depth}")
    return morphology(mask, "erode", radius=1, iterations=depth)
