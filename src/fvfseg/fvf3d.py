"""Level-set refinement of a candidate region with a fluid-vector-flow force.

The candidate mask seeds a signed distance field phi (negative inside).
Each iteration moves phi by an explicit update

    phi <- phi + dt * (alpha * K|grad phi|  -  beta * (E . grad phi))

where K is mean curvature (average of the principal curvatures, computed
from central first/second differences in the combined form
K|grad| = (lap phi - grad^T H grad / |grad|^2) / 2) and E is a static
unit force field assembled once before the loop:

    E(B) = chi( grad f(B) + delta * (B - A)/|B - A| )

with f the [0, 1]-rescaled gradient-magnitude edge map of the scan after
a Gaussian of EDGE_SIGMA voxels, A the candidate centroid, delta = +1
inside the candidate mask and -1 outside, and chi normalization to unit
length (zero when degenerate or B = A).  Voxels inside the candidate are
pushed outward along A->B, voxels outside are pulled back, and near
intensity edges the grad f term dominates, so opposing flows converge on
the tumor boundary.  The advection term is upwind-differenced on the sign
of E; curvature uses central differences.

Explicit updates are only stable for dt below roughly
0.9 / (6 alpha / h^2 + 3 beta / h); larger steps are accepted but grow
grid-scale oscillations until the non-finite check trips.  phi is
periodically restored to a signed distance function with Sussman
reinitialization (upwind Godunov scheme, frozen smoothed sign), which
leaves the zero level set in place to well under half a voxel.

The updates, the checkpoint reinitialization and the force E run on one
axis-aligned box, a narrow band in the sense of Adalsteinsson & Sethian
(1995) and Peng et al. (1999).  The box is the bounding box of
|phi| <= band_halfwidth * max(spacing), widened by the farthest the front
can move before the next checkpoint, reinit_every * dt * (beta +
2 alpha / h) with the same per-term speeds as the stability bound, and
clipped to the grid.  Every term of a step reads phi within one voxel
(Chebyshev distance 1; the mixed second differences read the diagonal
neighbours), so each step runs on the box grown by one voxel, its read
box, and no face formula of the read box reaches the update box except
on a grid face, where the two share the face and its formula.  The
reinitialization runs on the box grown by two voxels: its values depend
on where its box's faces lie, so that margin is part of the scheme.
Voxels outside the box stay frozen; the box is rebuilt at every
checkpoint.  A field with no voxel in the band is evolved on the whole
grid.  The force's edge term is built on the box too: of the edge map
only the divisor of its [0, 1] rescale, the peak of the smoothed gradient
magnitude over the whole scan, needs the whole grid, so the force context
keeps the smoothed scan and that peak, and f and grad f are computed on
the box grown by their stencil reach and then trimmed.

The stencils run on a C-ordered copy of the box flattened to one
dimension.  Along axis a the neighbours of flat index i are i - stride_a
and i + stride_a, so each difference is one contiguous pass over the whole
box, computed once per axis; the backward and forward differences are two
views of one buffer.  That pass also fills the axis's two face planes,
with differences across rows, so those planes are then rewritten with the
edge formulas: the one-sided first difference, and the second and upwind
differences with the edge voxel replicated.  A face of the halo box and a
face of the grid are treated alike.  Each formula keeps the operation
order of its whole-array form, so the results are the same bits.  The
steps on one box write into arrays allocated once for that box and
dropped before its checkpoint's reinitialization (the force on the read
box is rebuilt only when the box moves), and a division by a spacing of
exactly 1.0 is skipped.

A step on a large box runs on several threads (volume.split_planes and
run_parts).  At the box's first step the update box is cut along x into
parts; each part's read box is the part grown by one voxel, so by the
stencil reach above each part is exact on its own planes, and its
buffers and its cut of the velocity are allocated then, in the calling
thread.  Each step then has two phases.  First every part computes its
update from phi on its read box.  Only after all have finished, since a
read box overlaps the neighbouring parts, each part adds dt times its
update to its own planes and returns its largest |update| and whether
its values are finite.  A max is exact in any order, so the step, the
log and the iteration of a blow-up are the same bits for any number of
parts; one part is the serial step.

The starting distance field need not cover the grid either.  It can be
exact only on a window, a box holding the whole region (the distance to a
region is exact on any such box), with a placeholder larger than the band
outside it.  init_window gives the window that holds evolve's first box:
the region's bounding box grown by the band, the travel margin and the
halo.  Whenever a box with its halo would leave the window, evolve widens
the window: it writes the exact distance to the starting front on the new
part and keeps its own values on the old.  So phi on the window is always
what the whole-grid field holds, and the placeholders are never read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .errors import NumericalInstabilityError
from .volume import (
    PLANES,
    BinaryMask,
    ScalarVolume,
    bounding_box,
    c_strides,
    central_difference,
    gaussian_smooth,
    grow_box,
    mask_centroid,
    require_same_grid,
    run_parts,
    split_planes,
    whole_box,
    world_offsets,
)

_EPS_DIRECTION = 1e-12
_EPS_CURVATURE = 1e-12

# The width, in voxels, of the Gaussian that smooths the scan for its edge map.
EDGE_SIGMA = 1.0

# Half-width of the narrow band, in voxels of the coarsest axis: the
# default of LevelSetField, signed_distance_init and init_window.
BAND_HALFWIDTH = 6.0

# A single step that moves phi by more than this many band widths cannot be
# a physical front motion; treat it as divergence without waiting for the
# values to overflow into inf.
_RUNAWAY_BANDS = 100.0

# The margin around the update box on which reinitialization runs, the
# checkpoint's cos_gamma is taken and the window must hold phi exact.  The
# step itself reads phi only one voxel around the box (the read box of
# evolve).  Sussman's values depend on where the faces of its box lie, so
# this margin is part of the scheme: a narrower one changes the bits.
_HALO = 2

# Planes of x per slab of the squared-gradient peak in make_force_context:
# a slab and its two halo planes stay in cache, where the two whole-grid
# arrays of one pass would not.
_PEAK_SLAB = 8

# The numpy passes over each voxel of a step's read box (_speed and the
# add) and of the squared-gradient peak: the work volume.split_planes
# weighs a part by.
_STEP_PASSES = 64
_PEAK_PASSES = 12


@dataclass
class LevelSetField:
    """phi with the evolution's iteration count and band half-width (in
    voxels of the coarsest axis).  ``window`` (a tuple of three slices, or
    None for the whole grid) is the box on which phi is exact; outside it
    phi holds a placeholder larger than the band."""

    phi: ScalarVolume
    iteration: int = 0
    band_halfwidth: float = BAND_HALFWIDTH
    window: tuple | None = None

    def __post_init__(self):
        if self.iteration < 0 or not (self.band_halfwidth > 0):
            raise ValueError("iteration must be >= 0 and band_halfwidth > 0")


@dataclass
class ForceContext:
    """Everything the external force needs: the smoothed scan, the peak of
    its gradient magnitude, the seed point A, and the candidate mask.

    The edge map f = |grad smoothed| / peak and its gradient are not kept:
    _force_field builds them on the box evolve reads.  Only the peak needs
    the whole scan, and the smoothed scan is the one whole grid left."""

    smoothed: ScalarVolume
    peak: float
    center: tuple[float, float, float]
    candidate: BinaryMask

    def __post_init__(self):
        require_same_grid(self.smoothed, self.candidate, "smoothed scan and candidate")
        self.peak = float(self.peak)
        if not (self.peak >= 0 and math.isfinite(self.peak)):
            raise ValueError(f"peak must be finite and >= 0, got {self.peak}")
        self.center = tuple(float(c) for c in self.center)
        if any(not math.isfinite(c) for c in self.center):
            raise ValueError(f"center must be finite, got {self.center}")


@dataclass
class EvolutionParams:
    alpha: float = 0.2
    beta: float = 1.0
    dt: float | None = None  # defaults to the stability bound
    max_iters: int = 300
    reinit_every: int = 20
    stop_tol: float = 1e-3

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.dt is not None and not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.max_iters < 1 or self.reinit_every < 1:
            raise ValueError("max_iters and reinit_every must be >= 1")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be >= 0")

    def stability_bound(self, spacing) -> float:
        """Largest dt the explicit scheme tolerates on this grid."""
        h = min(spacing)
        denom = 6.0 * self.alpha / h**2 + 3.0 * self.beta / h
        return 0.9 / denom if denom > 0 else math.inf

    def resolve_dt(self, spacing) -> float:
        if self.dt is not None:
            return self.dt
        bound = self.stability_bound(spacing)
        return bound if math.isfinite(bound) else 0.5 * min(spacing)

    def travel_pads(self, spacing, dims) -> list[int]:
        """Per axis, the voxels the front can cross between two box
        rebuilds, at the speeds the stability bound assumes: beta for
        advection along a unit force, alpha times a mean curvature of at
        most 2/h."""
        travel = self.reinit_every * self.resolve_dt(spacing) * (
            self.beta + 2.0 * self.alpha / min(spacing)
        )
        return [math.ceil(min(travel / s, n)) for s, n in zip(spacing, dims)]


def _fill_distance(phi: np.ndarray, m: np.ndarray, spacing, window):
    """Write the signed Euclidean distance to the boundary of mask ``m``
    (negative inside) into phi[window], a box holding every voxel of m."""
    # The outside distance is exact on any box holding the whole mask.
    phi[window] = ndimage.distance_transform_edt(~m[window], sampling=spacing)
    # The inside distance only needs the mask's bounding box plus one layer:
    # that layer is background (or the grid face, as on the whole grid), and
    # no background voxel beyond it is closer to a voxel inside.  It is 0 on
    # background, so the part of that layer outside the window keeps its value.
    box = grow_box(bounding_box(m), (1, 1, 1), m.shape)
    phi[box] -= ndimage.distance_transform_edt(m[box], sampling=spacing)


def _contains(outer, inner) -> bool:
    return all(o.start <= i.start and i.stop <= o.stop for o, i in zip(outer, inner))


def signed_distance_init(
    mask: BinaryMask, band_halfwidth: float = BAND_HALFWIDTH, window=None
) -> LevelSetField:
    """Signed Euclidean distance to the mask boundary, negative inside.

    With ``window`` (three slices holding the whole mask) the distance is
    computed on that box only, and every voxel outside it holds the grid's
    diagonal plus the band width: more than any distance on the grid, so
    never inside the band.
    """
    m = mask.data
    if not m.any():
        raise ValueError("cannot build a distance field for an empty region")
    if m.all():
        raise ValueError("region covers the whole grid, no boundary to track")
    dims, spacing = m.shape, mask.spacing
    if window is None:
        phi = np.empty(dims)
    else:
        window = tuple(slice(*sl.indices(n)[:2]) for sl, n in zip(window, dims))
        if len(window) != 3 or not _contains(window, bounding_box(m)):
            raise ValueError(f"window {window} does not hold the whole region")
        far = math.hypot(*(n * s for n, s in zip(dims, spacing)))
        phi = np.full(dims, far + band_halfwidth * max(spacing))
    _fill_distance(phi, m, spacing, window or whole_box(dims))
    return LevelSetField(ScalarVolume(phi, spacing), 0, band_halfwidth, window)


def init_window(
    mask: BinaryMask,
    band_halfwidth: float = BAND_HALFWIDTH,
    params: EvolutionParams | None = None,
):
    """The window for signed_distance_init that holds evolve's first update
    box: the mask's bounding box grown by the band, the travel margin of
    ``params`` and the stencil halo, clipped to the grid (None for an empty
    mask, which signed_distance_init rejects)."""
    box = bounding_box(mask.data)
    if box is None:
        return None
    spacing, dims = mask.spacing, mask.dims
    width = band_halfwidth * max(spacing)
    pads = (params or EvolutionParams()).travel_pads(spacing, dims)
    return grow_box(
        box, [math.ceil(width / s) + p + _HALO for s, p in zip(spacing, pads)], dims
    )


def _gradient_norm2(a, spacing):
    """(gx^2 + gy^2) + gz^2 of the central gradient of ``a``: the x and y
    squares are added first and the z square last, with one gradient
    component alive at a time."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    acc, g = np.empty(a.shape), np.empty(a.shape)
    central_difference(a, 0, spacing[0], acc)
    np.multiply(acc, acc, out=acc)
    for axis in (1, 2):
        central_difference(a, axis, spacing[axis], g)
        np.multiply(g, g, out=g)
        acc += g
    return acc


def _central_gradient(a, spacing):
    """The three central differences (central_difference) of ``a``, each a
    new C-ordered array."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    grad = tuple(np.empty(a.shape) for _ in spacing)
    for axis, (g, s) in enumerate(zip(grad, spacing)):
        central_difference(a, axis, s, g)
    return grad


def _peak_gradient_norm2(data, spacing):
    """The largest value of _gradient_norm2 over the grid, taken _PEAK_SLAB
    planes of x at a time, the slabs of each x-part (split_planes) in one
    task of run_parts.  Each slab is differenced with the plane before and
    after it wherever the grid has one, so its central differences are the
    whole-grid values, and a max is exact in any order."""
    n = data.shape[0]

    def part_peak(planes):
        first, last = planes
        peak = 0.0
        for start in range(first, last, _PEAK_SLAB):
            stop = min(start + _PEAK_SLAB, last)
            lo, hi = max(start - 1, 0), min(stop + 1, n)
            slab = _gradient_norm2(data[lo:hi], spacing)
            peak = max(peak, float(slab[start - lo : stop - lo].max()))
        return peak

    return max(run_parts(part_peak, split_planes(0, n, data.size // n * _PEAK_PASSES)))


def _relative(box, outer):
    """``box`` as slices into the array that covers ``outer``."""
    return tuple(slice(b.start - o.start, b.stop - o.start) for b, o in zip(box, outer))


def _edge_on_box(smoothed: ScalarVolume, peak: float, box):
    """The edge map f = |grad smoothed| / peak (unscaled when peak is 0)
    and its central gradient on ``box``.

    f is computed on ``box`` grown by one voxel, from the smoothed scan on
    ``box`` grown by two, both clipped to the grid, and each central
    difference is trimmed to the box it is exact on.  Within a grown box a
    voxel off the grid's faces has both neighbours, and on a grid face the
    one-sided difference reads the same two voxels as on the whole grid, so
    every value is the whole-grid one."""
    data, spacing = smoothed.data, smoothed.spacing
    dims = data.shape
    near = grow_box(box, (1, 1, 1), dims)
    reach = grow_box(box, (2, 2, 2), dims)
    f = np.ascontiguousarray(_gradient_norm2(data[reach], spacing)[_relative(near, reach)])
    np.sqrt(f, out=f)
    if peak > 0:
        f /= peak
    inner = _relative(box, near)
    return f[inner], [g[inner] for g in _central_gradient(f, spacing)]


def make_force_context(patient: ScalarVolume, mask: BinaryMask, center=None) -> ForceContext:
    """Build the static force inputs from a scan and a candidate mask, with
    the seed point A at ``center`` (default: the mask's centroid).

    The whole-grid work is the Gaussian (EDGE_SIGMA) and the peak of the
    central gradient's squared magnitude, taken slab by slab: sqrt is
    correctly rounded and monotone, so the square root of the largest
    squared magnitude is the largest magnitude."""
    require_same_grid(patient, mask, "patient and candidate")
    if center is None:
        center = mask_centroid(mask)
    if any(n < 3 for n in patient.dims):
        raise ValueError(f"central gradient needs at least 3 voxels per axis, got {patient.dims}")
    smoothed = gaussian_smooth(patient, EDGE_SIGMA)
    peak = math.sqrt(_peak_gradient_norm2(smoothed.data, patient.spacing))
    return ForceContext(smoothed=smoothed, peak=peak, center=tuple(center), candidate=mask)


def zero_level_mask(ls: LevelSetField) -> BinaryMask:
    """Voxels strictly inside the front (phi < 0), x-fastest as MVOL stores
    them; outside ``ls.window`` phi is a placeholder above the band."""
    box, phi = ls.window or whole_box(ls.phi.dims), ls.phi.data
    inside = np.zeros(phi.shape, dtype=bool, order="F")
    np.less(phi[box], 0.0, out=inside[box])
    return BinaryMask(inside, ls.phi.spacing)


def _radial(ctx: ForceContext, box):
    """The components of B - A at every voxel B of ``box`` (broadcastable
    per-axis arrays), and its length."""
    dx, dy, dz = world_offsets(box, ctx.smoothed.spacing, ctx.center)
    return dx, dy, dz, np.sqrt(dx * dx + dy * dy + dz * dz)


def _force_field(ctx: ForceContext, box):
    """Precompute the static unit force E on ``box``.  The edge gradient
    grad f is built on the box itself (_edge_on_box), from the smoothed
    scan two voxels around it."""
    _, (gx, gy, gz) = _edge_on_box(ctx.smoothed, ctx.peak, box)
    dx, dy, dz, dn = _radial(ctx, box)
    away = dn >= _EPS_DIRECTION
    inv = np.divide(1.0, dn, where=away, out=np.zeros_like(dn))
    delta = np.where(ctx.candidate.data[box], 1.0, -1.0)
    sx = gx + delta * dx * inv
    sy = gy + delta * dy * inv
    sz = gz + delta * dz * inv
    sn = np.sqrt(sx * sx + sy * sy + sz * sz)
    ok = away & (sn >= _EPS_DIRECTION)
    scale = np.divide(1.0, sn, where=ok, out=np.zeros_like(sn))
    return sx * scale, sy * scale, sz * scale


def _second(f, twice, axis, s, out):
    """(f[i+1] - 2 f[i] + f[i-1]) / s**2 along ``axis`` with the edge
    replicated, written into ``out``; ``twice`` holds 2.0 * f.  Needs at
    least 2 voxels along ``axis``.  Each voxel's numerator is final before
    one division pass over ``out``, skipped when s**2 is 1.0 (x / 1.0 is x
    for every float)."""
    n, st = f.size, c_strides(f.shape)[axis]
    flat, body = f.reshape(-1), out.reshape(-1)[st : n - st]
    np.subtract(flat[2 * st :], twice.reshape(-1)[st : n - st], out=body)
    body += flat[: n - 2 * st]
    first, second, before_last, last = PLANES[axis]
    o = out[first]
    np.subtract(f[second], twice[first], out=o)
    o += f[first]
    o = out[last]
    np.subtract(f[last], twice[last], out=o)
    o += f[before_last]
    s2 = s**2
    if s2 != 1.0:
        out /= s2


def _one_sided(f, axis, s, buf):
    """The backward and forward differences (f[i] - f[i-1]) / s and
    (f[i+1] - f[i]) / s along ``axis``, each with the edge replicated (0 on
    its face), as two flat views of ``buf`` (length f.size + the axis
    stride): the forward difference at i is the backward one at i + stride,
    so each is computed once.  Every element of ``buf`` holds its final
    difference before one division pass, skipped when s is 1.0."""
    n, st = f.size, c_strides(f.shape)[axis]
    flat = f.reshape(-1)
    np.subtract(flat[st:], flat[: n - st], out=buf[st:n])
    dm, dp = buf[:n], buf[st : st + n]
    for diff, face in ((dm, PLANES[axis][0]), (dp, PLANES[axis][-1])):
        np.subtract(f[face], f[face], out=diff.reshape(f.shape)[face])
    if s != 1.0:
        buf[: n + st] /= s
    return dm, dp


class _Workspace:
    """The arrays of one step on a box of ``shape``, all overwritten by each
    _speed call: the C-ordered copy of phi, its central gradient, the
    update, five scratch arrays (the last a view of ``buf``, the difference
    buffer of the advection, one axis stride longer than the box) and a
    boolean array.  evolve allocates one per x-part of the step at the
    first step on each box and drops them at the box's checkpoint."""

    def __init__(self, shape):
        self.shape = tuple(shape)
        size = math.prod(self.shape)
        self.phi, self.update = np.empty(shape), np.empty(shape)
        self.grad = tuple(np.empty(shape) for _ in range(3))
        self.buf = np.empty(size + max(c_strides(shape)))
        self.scratch = [np.empty(shape) for _ in range(4)] + [self.buf[:size].reshape(shape)]
        self.flags = np.empty(shape, dtype=bool)


def _curvature_times_gradnorm(phi, spacing, work):
    """K|grad phi| and the central gradient (px, py, pz) of the C-ordered
    ``phi``, as work.update and work.grad, with work.scratch as workspace.
    K|grad| = (lap - grad^T H grad / |grad|^2) / 2 in the same operation
    order as the whole-array formula, so the same bits."""
    sx, sy, sz = spacing
    (px, py, pz), lap = work.grad, work.update
    for axis, (p, s) in enumerate(zip(work.grad, spacing)):
        central_difference(phi, axis, s, p)
    twice, grad2, quad, d2, tmp = work.scratch
    np.multiply(phi, 2.0, out=twice)
    _second(phi, twice, 0, sx, lap)
    np.multiply(px, px, out=grad2)
    np.multiply(grad2, lap, out=quad)
    for axis, (p, s) in ((1, (py, sy)), (2, (pz, sz))):
        _second(phi, twice, axis, s, d2)
        lap += d2
        np.multiply(p, p, out=tmp)
        grad2 += tmp
        tmp *= d2
        quad += tmp
    # 2 (px py pxy + px pz pxz + py pz pyz), accumulated in d2
    mixed = twice
    for k, (a, b, axis, s) in enumerate(((px, py, 1, sy), (px, pz, 2, sz), (py, pz, 2, sz))):
        central_difference(a, axis, s, tmp)
        np.multiply(a, b, out=mixed)
        if k == 0:
            np.multiply(mixed, tmp, out=d2)
        else:
            mixed *= tmp
            d2 += mixed
    d2 *= 2.0
    quad += d2
    grad2 += _EPS_CURVATURE
    quad /= grad2
    lap -= quad
    lap *= 0.5
    return lap, (px, py, pz)


def reinitialize(ls: LevelSetField) -> LevelSetField:
    """Restore phi to a signed distance function (Sussman scheme with the
    subcell interface fix).

    Cells next to the zero crossing are relaxed toward the sub-voxel
    distance implied by the incoming field, which pins the interface in
    place even when advection has compressed phi into a steep jump; a
    plain upwind reinitialization bleeds such a front by a good fraction
    of a voxel per call.  Elsewhere the usual Godunov flow with a frozen
    smoothed sign rebuilds |grad phi| = 1.  An exact distance field is a
    fixed point.  It takes max(8, ceil(2 band_halfwidth) + 4) steps of
    half a voxel, enough for the rebuilt distance to cross the band.  The
    result keeps ``ls.window``.

    Every inner step runs on the flattened box (module docstring) with
    buffers allocated once for all steps: one difference per axis, the
    upwind term of each voxel's own side, and the interface relaxation on
    the interface voxels' flat indices only.
    """
    phi = np.array(ls.phi.data, dtype=np.float64, order="C")
    spacing = ls.phi.spacing
    h = min(spacing)
    iterations = max(8, math.ceil(2.0 * ls.band_halfwidth) + 4)
    n, strides = phi.size, c_strides(phi.shape)
    flat = phi.reshape(-1)
    buf = np.empty(n + max(strides))
    work = np.empty(n)

    # Interface cells: a sign change to a neighbour (on a face the missing
    # neighbour is the voxel itself), or phi0 == 0.  phi is still phi0 here.
    interface = flat == 0.0
    crossing = np.empty(n, dtype=bool)
    for axis, st in enumerate(strides):
        np.multiply(flat[: n - st], flat[st:], out=work[: n - st])
        np.less(work[: n - st], 0.0, out=crossing[: n - st])
        crossing.reshape(phi.shape)[PLANES[axis][-1]] = False
        interface[: n - st] |= crossing[: n - st]
        interface[st:] |= crossing[: n - st]
    iface = np.flatnonzero(interface)
    del interface, crossing
    m = iface.size
    # Their pinned distances: per axis take the larger one-sided slope of
    # phi0, so a steep compressed jump still yields the linear-interpolation
    # crossing.  ``relaxed`` holds each step's relaxed interface values.
    pinned, relaxed, gathered = np.empty(m), np.empty(m), work[:m]
    for axis, s in enumerate(spacing):
        dm, dp = _one_sided(phi, axis, s, buf)
        np.abs(np.take(dm, iface, out=gathered, mode="clip"), out=gathered)
        np.abs(np.take(dp, iface, out=relaxed, mode="clip"), out=relaxed)
        np.maximum(gathered, relaxed, out=gathered)
        if axis == 0:
            np.multiply(gathered, gathered, out=pinned)
        else:
            pinned += np.multiply(gathered, gathered, out=gathered)
    np.sqrt(pinned, out=pinned)
    np.maximum(pinned, _EPS_DIRECTION, out=pinned)
    np.divide(np.take(flat, iface, out=gathered, mode="clip"), pinned, out=pinned)

    dt = 0.5 * h
    # dt times the frozen smoothed sign
    dt_sign = np.multiply(flat, flat)
    dt_sign += h * h
    np.sqrt(dt_sign, out=dt_sign)
    np.divide(flat, dt_sign, out=dt_sign)
    dt_sign *= dt
    # The upwind term of a voxel with phi0 > 0 is max(dm+, -dp-)^2, and
    # with phi0 < 0 max(-dm-, dp+)^2: both are max(sign0 dm, -sign0 dp, 0)^2.
    # A voxel with phi0 == 0 is an interface cell, whose step is replaced.
    sign0 = np.sign(flat)
    neg_sign0 = np.negative(sign0)
    terms = np.empty(n)
    for it in range(iterations):
        # relaxed = phi - (dt/h) (sign0 |phi| - pinned) on the interface
        p, s0 = work[:m], terms[:m]
        np.take(flat, iface, out=p, mode="clip")
        np.take(sign0, iface, out=s0, mode="clip")
        np.abs(p, out=relaxed)
        relaxed *= s0
        relaxed -= pinned
        relaxed *= dt / h
        np.subtract(p, relaxed, out=relaxed)
        for axis, s in enumerate(spacing):
            dm, dp = _one_sided(phi, axis, s, buf)
            up = terms if axis == 0 else work
            np.multiply(sign0, dm, out=up)
            # dm is consumed, so dp's buffer can take -sign0 dp in place
            np.multiply(neg_sign0, dp, out=dp)
            np.maximum(up, dp, out=up)
            np.maximum(up, 0.0, out=up)
            np.multiply(up, up, out=up)
            if axis:
                terms += up
        # stepped = phi - dt sign (sqrt(terms) - 1)
        np.sqrt(terms, out=terms)
        terms -= 1.0
        terms *= dt_sign
        flat -= terms
        flat[iface] = relaxed
        if not np.isfinite(phi).all():
            raise NumericalInstabilityError(ls.iteration, f"reinitialization diverged at inner step {it}")
    return LevelSetField(ScalarVolume(phi, spacing), ls.iteration, ls.band_halfwidth, ls.window)


def _cos_gamma_stats(px, py, pz, ctx, band, box):
    """Mean cosine between the front normal and the A->B direction inside
    the band, with the arrays covering ``box``; diagnostic only."""
    dx, dy, dz, dn = _radial(ctx, box)
    gn = np.sqrt(px * px + py * py + pz * pz)
    ok = band & (dn >= _EPS_DIRECTION) & (gn >= _EPS_DIRECTION)
    if not ok.any():
        return 0.0
    cos = (px * dx + py * dy + pz * dz)[ok] / (gn[ok] * dn[ok])
    return float(np.clip(cos, -1.0, 1.0).mean())


def _upwind_parts(velocity):
    """Per axis, the positive and negative parts (max(v, 0), min(v, 0)) of
    a velocity field, C-ordered as _speed reads them flat."""
    return tuple(
        (np.maximum(v, 0.0, order="C"), np.minimum(v, 0.0, order="C")) for v in velocity
    )


def _speed(phi, spacing, alpha, velocity, work=None):
    """The explicit update alpha * K|grad phi| - V . grad phi of one step
    and the central gradient of phi.  ``velocity`` is _upwind_parts of V
    (upwinded on its sign), or None for no advection.  The stencils run on
    a C-ordered copy of phi flattened (module docstring), in the arrays of
    ``work``, a _Workspace of phi's shape: the update and the gradient
    returned are its arrays, valid until the next call with it.  Without
    ``work`` the call allocates one for itself."""
    if work is None:
        work = _Workspace(phi.shape)
    np.copyto(work.phi, phi)
    phi = work.phi
    update, grad = _curvature_times_gradnorm(phi, spacing, work)
    update *= alpha
    if velocity is not None:
        adv, left, right = (a.reshape(-1) for a in work.scratch[:3])
        adv.fill(0.0)
        for axis, ((v_pos, v_neg), s) in enumerate(zip(velocity, spacing)):
            dm, dp = _one_sided(phi, axis, s, work.buf)
            np.multiply(v_pos.reshape(-1), dm, out=left)
            np.multiply(v_neg.reshape(-1), dp, out=right)
            left += right
            adv += left
        update -= adv.reshape(phi.shape)
    return update, grad


def _update_box(phi, width, pads, window):
    """The box of voxels an evolution segment may move, the box its
    reinitialization reads (the _HALO margin), and the first as slices into
    the second.

    The first box is the bounding box of |phi| <= width widened by
    pads[axis] voxels, or the whole grid when no voxel is that close to
    the front.  Only ``window`` is searched; it must hold every voxel with
    |phi| <= width.
    """
    dims = phi.shape
    part = phi[window]
    band = bounding_box((part >= -width) & (part <= width))
    if band is None:
        core = whole_box(dims)
    else:
        band = tuple(slice(b.start + w.start, b.stop + w.start) for b, w in zip(band, window))
        core = grow_box(band, pads, dims)
    outer = grow_box(core, (_HALO,) * 3, dims)
    return core, outer, _relative(core, outer)


def _update_box_in_window(phi, start_inside, spacing, window, width, pads):
    """_update_box, with ``window`` (the box on which phi is exact) widened
    until the halo box lies inside it; returns the three boxes and the
    window.

    A widening writes the exact distance to the boundary of
    ``start_inside`` on the new part of the window and keeps phi on the
    old, so phi stays what the whole-grid scheme holds.  Voxels on a window
    face that is not a grid face lie outside every earlier update box and
    hold their starting distance, so a band reaching past the window also
    reaches that face, and its halo box leaves the window.
    """
    while True:
        core, outer, inner = _update_box(phi, width, pads, window)
        if _contains(window, outer):
            return core, outer, inner, window
        grown = grow_box(outer, pads, phi.shape)
        wider = tuple(
            slice(min(w.start, g.start), max(w.stop, g.stop)) for w, g in zip(window, grown)
        )
        own = phi[window].copy()
        _fill_distance(phi, start_inside, spacing, wider)
        phi[window] = own
        window = wider


def evolve(
    ls: LevelSetField,
    ctx: ForceContext | None,
    params: EvolutionParams | None = None,
    log: list | None = None,
) -> LevelSetField:
    """Run the explicit level-set update until convergence or max_iters.

    Updates, reinitialization and the force run on the narrow-band box of
    the module docstring; voxels outside it keep their values.  Every
    ``reinit_every`` iterations phi is reinitialized on the box, the inside
    volume compared with the previous checkpoint (a fractional change
    below ``stop_tol`` stops the evolution), and the box rebuilt.  A field
    exact only on ``ls.window`` has that window widened whenever a box's
    halo would reach past it (module docstring), and the returned field
    carries the final window.  The band search, the inside volume and the
    relabelled count read the window only: outside it phi holds a
    placeholder larger than the band, so no voxel there is in the band or
    inside.  Non-finite phi raises NumericalInstabilityError carrying the
    global iteration index.

    Reinitializing only the box is exact against a whole-grid
    reinitialization only while no later box reaches voxels that the
    whole-grid one would have moved: Sussman reinitialization also moves
    voxels far from the front.  On a 48^3 cube [6, 42)^3 with an r = 4 ball
    start, alpha 0.1, beta 1, reinit_every 10 and band 2, the inside
    volume at the third checkpoint reads 5544 here against 5520 with
    whole-grid reinitialization.
    ``log`` (a list, optional) receives one record dict per checkpoint:
    ``iteration``, ``inside``, ``changed`` (voxels whose inside/outside
    label differs from the starting phi), ``max_update`` (the largest
    change of the last step over the voxels it updated) and, with a force
    context, ``cos_gamma_mean``.
    """
    params = params or EvolutionParams()
    spacing = ls.phi.spacing
    dims = ls.phi.dims
    if any(n < 3 for n in dims):
        raise ValueError(f"evolution needs at least 3 voxels per axis, got {dims}")
    if ctx is not None:
        require_same_grid(ls.phi, ctx.smoothed, "level set and force context")
    if ctx is None and params.beta > 0:
        raise ValueError("beta > 0 requires a force context")

    dt = params.resolve_dt(spacing)
    phi = np.array(ls.phi.data, dtype=np.float64)
    window = ls.window or whole_box(dims)
    # Outside the window phi holds a placeholder larger than the band, so
    # the inside voxels, then and now, all lie in the window.
    start_inside = np.zeros(dims, dtype=bool)
    start_inside[window] = ls.phi.data[window] < 0
    width = max(spacing) * ls.band_halfwidth
    pads = params.travel_pads(spacing, dims)
    core, outer, inner, window = _update_box_in_window(
        phi, start_inside, spacing, window, width, pads
    )

    use_advection = ctx is not None and params.beta > 0
    velocity = None  # per x-part, _upwind_parts of the force on its read box
    force_reads = None
    parts = None  # the step's x-parts, from a box's first step to its checkpoint

    def part_speed(part):
        _, read, _, v, work = part
        with np.errstate(over="ignore", invalid="ignore"):
            return _speed(phi[read], spacing, params.alpha, v, work)[0]

    def part_add(part_update):
        (core_p, _, own, _, work), update = part_update
        with np.errstate(over="ignore", invalid="ignore"):
            update = update[own]
            step = np.multiply(update, dt, out=work.scratch[0][own])
            phi[core_p] += step
            peak = float(np.abs(update, out=step).max())
            return peak, bool(np.isfinite(phi[core_p], out=work.flags[own]).all())

    prev_inside = int(np.count_nonzero(phi[window] < 0))
    runaway = _RUNAWAY_BANDS * ls.band_halfwidth * max(spacing)
    max_update = 0.0
    done = 0
    while done < params.max_iters:
        if parts is None:
            plane = math.prod(s.stop - s.start for s in core[1:]) * _STEP_PASSES
            cores = [
                (slice(lo, hi), *core[1:])
                for lo, hi in split_planes(core[0].start, core[0].stop, plane)
            ]
            reads = [grow_box(c, (1, 1, 1), dims) for c in cores]
            if use_advection and force_reads != reads:
                read = grow_box(core, (1, 1, 1), dims)
                force = _force_field(ctx, read)
                for v in force:
                    v *= params.beta
                velocity = [_upwind_parts([v[_relative(r, read)] for v in force]) for r in reads]
                del force
                force_reads = reads
            parts = [
                (c, r, _relative(c, r), v, _Workspace(tuple(s.stop - s.start for s in r)))
                for c, r, v in zip(cores, reads, velocity or [None] * len(cores))
            ]
        checkpoint = (done + 1) % params.reinit_every == 0 or done + 1 == params.max_iters
        if checkpoint and log is not None and ctx is not None:
            # cos_gamma reads the gradient of the last step's phi on outer
            grad = _central_gradient(phi[outer], spacing)
        # every part reads its neighbours' cores, so no part adds its step
        # before all have computed theirs
        added = run_parts(part_add, list(zip(parts, run_parts(part_speed, parts))))
        done += 1
        max_update = float(np.max([peak for peak, _ in added])) * dt
        if (
            not math.isfinite(max_update)
            or max_update > runaway
            or not all(finite for _, finite in added)
        ):
            raise NumericalInstabilityError(ls.iteration + done)

        if checkpoint:
            # reinitialization and the next box's force run without the
            # step's buffers, so the peak memory is that of one of the three
            parts = None
            field = reinitialize(
                LevelSetField(
                    ScalarVolume(phi[outer], spacing), ls.iteration + done, ls.band_halfwidth
                )
            )
            phi[core] = field.phi.data[inner]
            now_inside = phi[window] < 0
            inside = int(np.count_nonzero(now_inside))
            if log is not None:
                record = {
                    "iteration": ls.iteration + done,
                    "inside": inside,
                    "changed": int(np.count_nonzero(now_inside != start_inside[window])),
                    "max_update": max_update,
                }
                if ctx is not None:
                    band = np.abs(phi[outer]) <= width
                    record["cos_gamma_mean"] = _cos_gamma_stats(*grad, ctx, band, outer)
                    del grad
                log.append(record)
            if abs(inside - prev_inside) / max(prev_inside, 1) < params.stop_tol:
                prev_inside = inside
                break
            prev_inside = inside
            core, outer, inner, window = _update_box_in_window(
                phi, start_inside, spacing, window, width, pads
            )

    return LevelSetField(
        ScalarVolume(phi, spacing),
        ls.iteration + done,
        ls.band_halfwidth,
        None if ls.window is None else window,
    )
