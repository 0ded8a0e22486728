"""Candidate tumor region extraction from an abnormality map.

The abnormality volume is noisy at tissue interfaces and near the skull
edge, so a fixed five-step cleanup isolates one solid candidate blob:

1. zero the map outside a boundary-stripped copy of the brain mask
2. threshold (strictly greater than psi)
3. erode, to break thin bridges and drop isolated speckle
4. keep the largest connected component
5. dilate, clipped to the stripped brain mask, to restore the lost margin

If the mask is empty after any step the extraction fails with the step
index, which the CLI maps to its own exit code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCandidateError
from .volume import (
    BinaryMask,
    ScalarVolume,
    largest_component,
    mask_boundary_strip,
    morphology,
    require_same_grid,
)


@dataclass
class CandidateParams:
    psi: float = 153.0  # 0.6 * the default omega of 255
    strip_depth: int = 2
    erode_iters: int = 2
    dilate_iters: int = 2
    connectivity: int = 26

    def __post_init__(self):
        if not (math.isfinite(self.psi) and self.psi >= 0):
            raise ValueError(f"psi must be finite and >= 0, got {self.psi}")
        if self.strip_depth < 1:
            raise ValueError(f"strip_depth must be >= 1, got {self.strip_depth}")
        if self.erode_iters < 0 or self.dilate_iters < 0:
            raise ValueError("erode_iters and dilate_iters must be >= 0")
        if self.connectivity not in (6, 26):
            raise ValueError(f"connectivity must be 6 or 26, got {self.connectivity}")


@dataclass
class CandidateRegion:
    mask: BinaryMask
    centroid: tuple[float, float, float]
    voxel_count: int
    step_voxels: tuple[int, ...] = ()

    def __post_init__(self):
        if self.voxel_count < 1:
            raise ValueError("candidate region cannot be empty")


def binarize_gbbm(gbbm: ScalarVolume, psi: float) -> BinaryMask:
    """Voxels whose abnormality score strictly exceeds psi."""
    if not (math.isfinite(psi) and psi >= 0):
        raise ValueError(f"psi must be finite and >= 0, got {psi}")
    return BinaryMask(gbbm.data > psi, gbbm.spacing)


def mask_centroid(mask: BinaryMask) -> tuple[float, float, float]:
    """Voxel-count-weighted mean world position of a nonempty mask."""
    idx = np.nonzero(mask.data)
    if idx[0].size == 0:
        raise ValueError("centroid of an empty mask")
    return tuple(float(idx[ax].mean() * mask.spacing[ax]) for ax in range(3))


def extract_candidate(
    gbbm: ScalarVolume,
    brain_mask: BinaryMask,
    params: CandidateParams | None = None,
) -> CandidateRegion:
    """Run the five cleanup steps and return the surviving blob.

    Raises NoCandidateError with the 1-based step index if the mask
    empties along the way.
    """
    params = params or CandidateParams()
    require_same_grid(gbbm, brain_mask, "abnormality map and brain mask")

    stripped = mask_boundary_strip(brain_mask, params.strip_depth)
    zeroed = ScalarVolume(np.where(stripped.data, gbbm.data, 0.0), gbbm.spacing)

    mask = binarize_gbbm(zeroed, params.psi)
    counts = [mask.count()]
    if counts[-1] == 0:
        raise NoCandidateError(2, f"no voxel exceeds psi={params.psi} inside the stripped brain")

    if params.erode_iters > 0:
        mask = morphology(mask, "erode", radius=1, iterations=params.erode_iters)
    counts.append(mask.count())
    if counts[-1] == 0:
        raise NoCandidateError(3, f"mask vanished after {params.erode_iters} erosions")

    mask = largest_component(mask, params.connectivity)
    counts.append(mask.count())

    if params.dilate_iters > 0:
        mask = morphology(mask, "dilate", radius=1, iterations=params.dilate_iters)
        mask = BinaryMask(mask.data & stripped.data, mask.spacing)
    counts.append(mask.count())

    return CandidateRegion(
        mask=mask,
        centroid=mask_centroid(mask),
        voxel_count=mask.count(),
        step_voxels=tuple(counts),
    )
