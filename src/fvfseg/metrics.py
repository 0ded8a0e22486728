"""Overlap scoring between binary segmentations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import BinaryMask, require_same_grid


@dataclass
class OverlapReport:
    tanimoto: float
    n_x: int
    n_g: int
    n_intersection: int

    @property
    def n_union(self) -> int:
        return self.n_x + self.n_g - self.n_intersection


def tanimoto(x: BinaryMask, g: BinaryMask) -> OverlapReport:
    """Tanimoto / Jaccard overlap |X & G| / |X | G|.

    Two empty masks count as a perfect match (score 1.0).
    """
    require_same_grid(x, g, "segmentation and ground truth")
    n_x = x.count()
    n_g = g.count()
    n_inter = int(np.count_nonzero(np.logical_and(x.data, g.data)))
    n_union = n_x + n_g - n_inter
    tm = 1.0 if n_union == 0 else n_inter / n_union
    return OverlapReport(tanimoto=tm, n_x=n_x, n_g=n_g, n_intersection=n_inter)
