"""Regular-grid volume types and the grid operations everything else builds on.

Conventions used throughout the package:

* a volume is an ``(nx, ny, nz)`` array indexed ``[x, y, z]``; the linear
  (serialized) order is x-fastest, i.e. ``data.ravel(order="F")``
* ``spacing`` is the voxel pitch in millimetres per axis
* the world position of voxel ``(i, j, k)`` is ``(i*sx, j*sy, k*sz)``;
  ``world_offsets`` gives it per axis, less a centre, as arrays that
  broadcast over a box, so no caller builds a grid of coordinates
* binary morphology uses the discrete Chebyshev ball of the given radius
  (a ``(2r+1)^3`` cube, so the 26-neighbourhood at radius 1) and treats
  everything outside the grid as background

Morphology is separable.  A cube is the Minkowski sum of three axis
segments, and one pass of the radius-r cube is r passes of the radius-1
cube (Haralick, Sternberg & Zhuang 1987).  On the grid this stays exact
with an out-of-grid background: an erosion never sets a voxel outside
the grid, and for a dilation every path from a grid voxel to another
through segment steps can be routed through the box between them, which
lies in the grid.  So ``morphology`` runs one 1-D AND (erode) or OR
(dilate) with the neighbours at +-1 per axis, r times, over a C-ordered
copy flattened to 1-D, where
the neighbours along axis a of flat index i are i -+ stride_a.  That flat
pass also fills the axis's two face planes across rows, so those planes
are then rewritten: cleared by an erosion, the OR of the plane and its
one in-grid neighbour by a dilation.  The central difference runs the
same way: one flat pass, then the one-sided difference on the faces.

All operations are pure functions: they never mutate their inputs, so they
are safe to call from worker threads.

Large passes run on every CPU the process may use.  ``split_planes`` cuts
a range of planes into at most ``WORKERS`` contiguous parts, one per CPU of
the affinity mask, each holding at least ``PART_WORK`` voxel-passes (its
voxels times the passes the job makes over each); ``run_parts``
runs a function on each part, in the calling thread and on one thread
pool made at first use, each thread taking the parts no other has taken.
The parts write disjoint planes, and a value never depends on where the
cuts fall or which thread runs a part, so the bytes are the same for any
number of parts.  Under that much work numpy's and ndimage's passes are
too short to pay for handing Python's GIL between threads, so a small job
is one part and never touches the pool: a level-set step around a 64^3
lesion or a Gaussian of a 64^3 scan runs serially, a step on a 56^3 box
or a Gaussian of a 128^3 scan in two parts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from queue import Empty, SimpleQueue

import numpy as np
from scipy import ndimage

from .errors import GridMismatchError

Triple = tuple[float, float, float]

# The parts a split may have: the CPUs in this process's affinity mask
# (``taskset`` limits it), read once.
WORKERS = len(os.sched_getaffinity(0))

# The least work a part of a split may hold, in voxel-passes.
PART_WORK = 2**22

_pool: ThreadPoolExecutor | None = None


def _forget_pool():
    # a forked child has none of its parent's threads: it makes its own pool
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def split_planes(start: int, stop: int, plane_work: int):
    """Planes [start, stop) cut into at most WORKERS contiguous (lo, hi)
    parts of near-equal size, each of at least PART_WORK voxel-passes when
    a plane takes ``plane_work`` (its voxels times the passes over each);
    one part when the range holds too little work."""
    n = stop - start
    count = max(1, min(WORKERS, n, n * plane_work // PART_WORK))
    cuts = [start + n * i // count for i in range(count + 1)]
    return list(zip(cuts[:-1], cuts[1:]))


def run_parts(fn, parts):
    """[fn(part) for part in parts], run by the calling thread and up to
    len(parts) - 1 threads of the pool.  Each thread takes the next part
    no other has taken until none is left, so while a pool thread waits
    for a CPU the caller runs its parts.  Returns once every taken part
    has finished; if any raised, one of those exceptions is raised then."""
    if len(parts) == 1:
        return [fn(parts[0])]
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=max(WORKERS - 1, 1), thread_name_prefix="fvfseg")
    results = [None] * len(parts)
    untaken = SimpleQueue()
    for i in range(len(parts)):
        untaken.put(i)

    def take_parts():
        while True:
            try:
                i = untaken.get_nowait()
            except Empty:
                return
            results[i] = fn(parts[i])

    futures = [_pool.submit(take_parts) for _ in parts[1:]]
    try:
        take_parts()
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return results


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
        # min and max are NaN if any value is, and infinite if any value is:
        # the check allocates no grid-sized temporary
        if not (math.isfinite(self.data.min()) and math.isfinite(self.data.max())):
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
        return int(np.count_nonzero(self.data))


def require_same_grid(a, b, what: str = "volumes"):
    if a.dims != b.dims or a.spacing != b.spacing:
        raise GridMismatchError(
            f"{what} must share one grid: {a.dims}/{a.spacing} vs {b.dims}/{b.spacing}"
        )


def mask_order(mask: BinaryMask) -> str:
    """"F" for a Fortran-ordered mask, as read from MVOL, else "C": the one
    order in which the package reads a mask's voxels.  ``a.ravel(order)``
    is a view of an array on the grid laid out like the mask."""
    return "F" if mask.data.flags.f_contiguous else "C"


def whole_box(dims):
    """The box of slices covering a whole grid of ``dims``."""
    return tuple(slice(0, n) for n in dims)


def world_offsets(box, spacing, center):
    """The world offsets x - cx, y - cy and z - cz of the voxels of ``box``
    (slices with start and stop) from the world point ``center``, as
    (n, 1, 1), (1, n, 1) and (1, 1, n) arrays that broadcast to the box:
    index * spacing - center per axis, with no grid-sized array."""
    return tuple(
        (np.arange(sl.start, sl.stop, dtype=np.float64) * s - c).reshape(shape)
        for sl, s, c, shape in zip(box, spacing, center, ((-1, 1, 1), (1, -1, 1), (1, 1, -1)))
    )


# PLANES[a] holds the index tuples of planes 0, 1, -2 and -1 along axis a of
# a 3-d array: f[PLANES[a][k]] is the view np.moveaxis(f, a, 0)[k].
PLANES = tuple(
    tuple((slice(None),) * axis + (k,) for k in (0, 1, -2, -1)) for axis in range(3)
)


def c_strides(shape):
    """Element strides of a C-ordered array of ``shape``: along axis a the
    neighbours of flat index i are i - strides[a] and i + strides[a]."""
    _, ny, nz = shape
    return (ny * nz, nz, 1)


def morphology(mask: BinaryMask, mode: str, radius: int = 1) -> BinaryMask:
    """Binary erosion or dilation by the Chebyshev ball of ``radius`` (the
    cube of side 2 * radius + 1), out-of-grid voxels counted as
    background: the separable passes of the module docstring."""
    if mode not in ("erode", "dilate"):
        raise ValueError(f"mode must be 'erode' or 'dilate', got {mode!r}")
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    # The cube is symmetric under any permutation of the axes, so a Fortran-
    # ordered mask (as read from MVOL) is processed as its C-ordered transpose.
    flip = mask.data.flags.f_contiguous
    state = np.array(mask.data.T if flip else mask.data, dtype=bool, order="C")
    prev = np.empty_like(state)
    n, shape = state.size, state.shape
    cur, old = state.reshape(-1), prev.reshape(-1)
    combine = np.logical_and if mode == "erode" else np.logical_or
    for axis, st in enumerate(c_strides(shape)):
        if mode == "dilate" and shape[axis] == 1:
            continue  # no neighbour along this axis lies in the grid
        cur_a, old_a = np.moveaxis(state, axis, 0), np.moveaxis(prev, axis, 0)
        for _ in range(radius):
            np.copyto(prev, state)
            if n > 2 * st:
                body = cur[st : n - st]
                combine(body, old[: n - 2 * st], out=body)
                combine(body, old[2 * st :], out=body)
            if mode == "erode":
                cur_a[0] = False
                cur_a[-1] = False
            else:
                combine(old_a[0], old_a[1], out=cur_a[0])
                combine(old_a[-1], old_a[-2], out=cur_a[-1])
    return BinaryMask(state.T if flip else state, mask.spacing)


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


def mask_centroid(mask: BinaryMask, origin=(0, 0, 0)) -> Triple:
    """Voxel-count-weighted mean world position of a nonempty mask whose
    first voxel sits at grid index ``origin`` (a crop of a larger grid)."""
    idx = np.nonzero(mask.data)
    if idx[0].size == 0:
        raise ValueError("centroid of an empty mask")
    return tuple(float((idx[ax] + origin[ax]).mean() * mask.spacing[ax]) for ax in range(3))


def bounding_box(mask: np.ndarray):
    """Slices of the smallest box holding every true voxel, None if none."""
    box = []
    for axis in range(mask.ndim):
        others = tuple(a for a in range(mask.ndim) if a != axis)
        hit = np.flatnonzero(mask.any(axis=others))
        if hit.size == 0:
            return None
        box.append(slice(int(hit[0]), int(hit[-1]) + 1))
    return tuple(box)


def grow_box(box, pads, dims):
    """``box`` widened by pads[axis] voxels on each side, clipped to dims."""
    return tuple(
        slice(max(s.start - p, 0), min(s.stop + p, n)) for s, p, n in zip(box, pads, dims)
    )


def _gauss_kernel(sigma: float) -> np.ndarray:
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(offsets**2) / (2.0 * sigma * sigma))
    return k / k.sum()


def _correlate_pass(src, k, axis, order):
    """correlate1d of ``src`` along ``axis`` (edges replicated) into a new
    float64 array of memory ``order``, in parts (split_planes) along y for
    the x pass and along x otherwise, each writing its view of the one
    output.  Each voxel takes one multiply-add per tap of ``k``."""
    out = np.empty(src.shape, order=order)
    cut = 1 if axis == 0 else 0
    plane_work = src.size // src.shape[cut] * len(k)

    def part(planes):
        box = (slice(None),) * cut + (slice(*planes),)
        ndimage.correlate1d(src[box], k, axis=axis, output=out[box], mode="nearest")

    run_parts(part, split_planes(0, src.shape[cut], plane_work))
    return out


def gaussian_smooth(vol: ScalarVolume, sigma: float) -> ScalarVolume:
    """Separable Gaussian blur, kernel cut at 3*sigma and renormalized,
    edges replicated.

    Each pass computes its output line by line along its axis, in double
    precision whatever the input type, so neither the memory order of an
    output nor a split across threads along another axis changes a value:
    the first pass writes Fortran order, the others C order (the result is
    C-ordered), and each is split by _correlate_pass.  A float32 scan goes
    straight into the first pass: widening to float64 is exact.  Each
    pass's input is dropped before the next pass allocates its output."""
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    k = _gauss_kernel(sigma)
    out = vol.data
    for axis, order in enumerate("FCC"):
        out = _correlate_pass(out, k, axis, order)
    return ScalarVolume(out, vol.spacing)


def central_difference(f: np.ndarray, axis: int, s: float, out: np.ndarray):
    """The derivative of ``f`` along ``axis`` at spacing ``s``, written into
    the C-ordered ``out`` with the values and operation order of numpy's
    ``gradient`` at edge_order=1: the central difference over the flattened
    array, then the one-sided difference on the two face planes (which the
    flat pass filled with differences across rows).  ``f`` is read flat,
    so it should be C-ordered too.  Needs at least 2 voxels along ``axis``."""
    n, st = f.size, c_strides(f.shape)[axis]
    flat, body = f.reshape(-1), out.reshape(-1)[st : n - st]
    np.subtract(flat[2 * st :], flat[: n - 2 * st], out=body)
    body /= 2.0 * s
    first, second, before_last, last = PLANES[axis]
    o = out[first]
    np.subtract(f[second], f[first], out=o)
    o /= s
    o = out[last]
    np.subtract(f[last], f[before_last], out=o)
    o /= s
