"""Candidate tumor region extraction from an abnormality map.

The abnormality volume is noisy at tissue interfaces and near the skull
edge, so a fixed five-step cleanup isolates one solid candidate blob:

1. strip strip_depth voxel layers off the brain mask (erosion)
2. threshold inside the stripped mask (strictly greater than psi), as
   one AND of (map > psi) and that mask; since psi >= 0 this equals
   zeroing the map outside the mask and then thresholding
3. erode, to break thin bridges and drop isolated speckle
4. keep the largest connected component
5. dilate, clipped to the stripped brain mask, to restore the lost margin

If the mask is empty after any step the extraction fails with the step
index, which the CLI maps to its own exit code.

Steps 1-3 run on the whole grid: speckle above psi reaches the skull, so
the thresholded mask spans the brain.  Steps 4 and 5 run on the bounding
box of the eroded mask grown by dilate_iters + 1 voxels, which holds every
component and everything the dilation can reach; the result, its counts
and its centroid are the same as on the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoCandidateError
from .volume import (
    BinaryMask,
    ScalarVolume,
    bounding_box,
    grow_box,
    largest_component,
    mask_centroid,
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

    stripped = morphology(brain_mask, "erode", iterations=params.strip_depth)
    mask = BinaryMask((gbbm.data > params.psi) & stripped.data, gbbm.spacing)
    counts = [mask.count()]
    if counts[-1] == 0:
        raise NoCandidateError(2, f"no voxel exceeds psi={params.psi} inside the stripped brain")

    if params.erode_iters > 0:
        mask = morphology(mask, "erode", radius=1, iterations=params.erode_iters)
    counts.append(mask.count())
    if counts[-1] == 0:
        raise NoCandidateError(3, f"mask vanished after {params.erode_iters} erosions")

    dims = mask.dims
    box = grow_box(bounding_box(mask.data), (params.dilate_iters + 1,) * 3, dims)
    # The x-fastest order of voxels within the box is their order in the
    # grid, so largest_component breaks ties as it would on the whole grid.
    blob = largest_component(BinaryMask(mask.data[box], mask.spacing), params.connectivity)
    counts.append(blob.count())

    if params.dilate_iters > 0:
        blob = morphology(blob, "dilate", radius=1, iterations=params.dilate_iters)
        blob = BinaryMask(blob.data & stripped.data[box], blob.spacing)
    counts.append(blob.count())

    full = np.zeros(dims, dtype=bool)
    full[box] = blob.data
    return CandidateRegion(
        mask=BinaryMask(full, mask.spacing),
        centroid=mask_centroid(blob, tuple(sl.start for sl in box)),
        voxel_count=counts[-1],
        step_voxels=tuple(counts),
    )
