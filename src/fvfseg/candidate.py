"""Candidate tumor region extraction from an abnormality map.

The abnormality volume is noisy at tissue interfaces and near the skull
edge, so a fixed five-step cleanup isolates one solid candidate blob:

1. strip STRIP_DEPTH voxel layers off the brain mask (erosion)
2. threshold inside the stripped mask (strictly greater than psi), as
   one AND of (map > psi) and that mask; since psi >= 0 this equals
   zeroing the map outside the mask and then thresholding
3. erode ERODE_DEPTH layers, to break thin bridges and drop speckle
4. keep the largest CONNECTIVITY-connected component
5. dilate DILATE_DEPTH layers, clipped to the stripped brain mask

Only psi is a parameter, PSI_PER_OMEGA * brainmap.OMEGA by default.  If
the mask is empty after any step the extraction fails with the step
index, which the CLI maps to its own exit code.

Steps 1-3 run on the whole grid: speckle above psi reaches the skull, so
the thresholded mask spans the brain.  Steps 4 and 5 run on the bounding
box of the eroded mask grown by DILATE_DEPTH + 1 voxels, which holds every
component and everything the dilation can reach; the result, its counts
and its centroid are the same as on the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brainmap import OMEGA
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

STRIP_DEPTH = 2
ERODE_DEPTH = 2
DILATE_DEPTH = 2
CONNECTIVITY = 26
# the default psi as a fraction of the map's omega
PSI_PER_OMEGA = 0.6


def check_psi(psi: float) -> None:
    """Reject a threshold that is not finite and >= 0."""
    if not (math.isfinite(psi) and psi >= 0):
        raise ValueError(f"psi must be finite and >= 0, got {psi}")


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
    psi: float = PSI_PER_OMEGA * OMEGA,
) -> CandidateRegion:
    """Run the five cleanup steps and return the surviving blob.

    Raises NoCandidateError with the 1-based step index if the mask
    empties along the way.
    """
    check_psi(psi)
    require_same_grid(gbbm, brain_mask, "abnormality map and brain mask")

    stripped = morphology(brain_mask, "erode", STRIP_DEPTH)
    mask = BinaryMask((gbbm.data > psi) & stripped.data, gbbm.spacing)
    counts = [mask.count()]
    if counts[-1] == 0:
        raise NoCandidateError(2, f"no voxel exceeds psi={psi} inside the stripped brain")

    mask = morphology(mask, "erode", ERODE_DEPTH)
    counts.append(mask.count())
    if counts[-1] == 0:
        raise NoCandidateError(3, f"mask vanished after {ERODE_DEPTH} erosions")

    dims = mask.dims
    box = grow_box(bounding_box(mask.data), (DILATE_DEPTH + 1,) * 3, dims)
    # The x-fastest order of voxels within the box is their order in the
    # grid, so largest_component breaks ties as it would on the whole grid.
    blob = largest_component(BinaryMask(mask.data[box], mask.spacing), CONNECTIVITY)
    counts.append(blob.count())

    blob = morphology(blob, "dilate", DILATE_DEPTH)
    blob = BinaryMask(blob.data & stripped.data[box], blob.spacing)
    counts.append(blob.count())

    full = np.zeros(dims, dtype=bool, order="F")  # written x-fastest, as MVOL stores it
    full[box] = blob.data
    return CandidateRegion(
        mask=BinaryMask(full, mask.spacing),
        centroid=mask_centroid(blob, tuple(sl.start for sl in box)),
        voxel_count=counts[-1],
        step_voxels=tuple(counts),
    )
