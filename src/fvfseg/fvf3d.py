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
grid-scale oscillations until the step check trips.  phi is
periodically restored to a signed distance function by rebuilding it from
its front (reinitialize): the voxels at the zero crossing keep their
sub-voxel distance, and every other voxel takes its distance to the plane
through the front point of its nearest such voxel, so no voxel changes
sign.

The updates, the reinitialization and the force E run on one
axis-aligned box, a narrow band in the sense of Adalsteinsson & Sethian
(1995) and Peng et al. (1999).  The box is the bounding box of the
front's voxels, those with a sign change to an axis neighbour or with
phi == 0 (_interface, the voxels reinitialize rebuilds from), widened
per axis by the band, ceil(band_halfwidth * max(spacing) / spacing)
voxels, and by the farthest the front can move before the next checkpoint,
reinit_every * dt * (beta + 2 alpha / h) with the same per-term speeds
as the stability bound, and clipped to the grid.  The box is found from
the front, not from |phi| <= band: the converging force steepens phi, so
after a segment the front's voxels can read |phi| of several voxels, and
a search by value would find no voxel at a band of one and fall back to
the whole grid.  The band adds one voxel (BAND_HALFWIDTH) to the travel
margin, which alone covers the front's motion.  Every term of a step
reads phi within one voxel (Chebyshev distance 1; the mixed second
differences read the diagonal neighbours), so each step runs on the box
grown by one voxel, its read box, and no face formula of the read box
reaches the update box except on a grid face, where the two share the
face and its formula.  A segment is the reinit_every steps between two
checkpoints.  At each checkpoint but the last the box is found anew
around the front as the steps left it, and phi is rebuilt on the box
grown by two voxels, the reach of the normal the rebuild gives each
voxel at the front, before the next segment runs on it; the first
segment runs on the field as given.  Voxels outside the box stay frozen.
A field with no front (all of one sign) is evolved on the whole grid.
The force's edge term is built on the box too: of the edge map only the
divisor of its [0, 1] rescale, the peak of the smoothed gradient
magnitude over the whole scan, needs the whole grid, so the force
context keeps the smoothed scan and that peak, and f and grad f are
computed on the box grown by their stencil reach and then trimmed.

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
dropped at its checkpoint, before the rebuild (the force on the read box
is rebuilt only when the box moves), and a division by a spacing of
exactly 1.0 is skipped.

A step on a large box runs on several threads (volume.split_planes and
run_parts).  At the box's first step the update box is cut along x into
parts; each part's read box is the part grown by one voxel, so by the
stencil reach above each part is exact on its own planes, and its
buffers and its cut of the velocity are allocated then, in the calling
thread.  Each step then has two phases.  First every part computes its
update from phi on its read box.  Only after all have finished, since a
read box overlaps the neighbouring parts, each part adds dt times its
update to its own planes and returns its largest |update|.  A max is
exact in any order, so the step, the log and the iteration of a blow-up
are the same bits for any number of parts; one part is the serial step.

That largest |update| is the step's one check: dt times it must be
finite and at most _RUNAWAY_BANDS band widths (100 voxels of the
coarsest axis at the default band).  A non-finite phi in the read box
makes the update non-finite at the core voxels beside it, and a finite
phi plus a dt * update within that bound cannot overflow, so phi needs
no check of its own.

The starting distance field need not cover the grid either.  It is exact
only on its window, a box holding the whole region (the distance to a
region is exact on any such box; the whole grid by default), with a
positive placeholder larger than the band outside it, so no front lies
there.  The first box with its two-voxel halo must lie in the window;
init_window gives the window that holds it: the region's bounding box
grown by the front's layer outside the region, the band, the travel
margin and the halo.  Each later box is rebuilt from the front before
its segment, so evolve only grows the window to hold it, and no step
reads a placeholder.
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
BAND_HALFWIDTH = 1.0

# A single step that moves phi by more than this many band widths cannot be
# a physical front motion; treat it as divergence without waiting for the
# values to overflow into inf.
_RUNAWAY_BANDS = 100.0

# The margin around the update box on which reinitialization runs, the
# checkpoint's cos_gamma is taken and the window must hold.  The
# step itself reads phi only one voxel around the box (the read box of
# evolve).  The normal that reinitialization gives an interface voxel reads
# phi two voxels around it (a central difference summed over the 3^3
# neighbourhood), so with this margin every interface voxel of the update
# box has the normal it has on the whole grid.
_HALO = 2

# Planes of x per slab of the squared-gradient peak in make_force_context:
# a slab and its two halo planes stay in cache, where the two whole-grid
# arrays of one pass would not.
_PEAK_SLAB = 8

# The work volume.split_planes weighs a part by, per voxel.  The peak's is
# its numpy passes over the voxel.  A step's is weighed by its measured
# time: _speed and the add make about 64 numpy passes, but the two parts
# of a step already ran as fast as one part on a 40^3 or 44^3 update box
# (2-vCPU VM, 20 steps of evolve, best of 15), 6% faster on 48^3 and 8% on
# 52^3, and 7% slower on 32^3.  At this weight a box of 87k voxels (about
# 44.4^3) or more runs in two parts: a 128^3 case's 48^3 box, not a 64^3
# case's boxes of at most 32^3.
_STEP_PASSES = 96
_PEAK_PASSES = 12


@dataclass
class LevelSetField:
    """phi with the evolution's iteration count and band half-width (in
    voxels of the coarsest axis).  ``window`` (a tuple of three slices) is
    the box that holds every value computed for phi; outside it phi holds a
    placeholder larger than the band.  None, the default, is the whole
    grid, and is stored as whole_box of phi's dims."""

    phi: ScalarVolume
    iteration: int = 0
    band_halfwidth: float = BAND_HALFWIDTH
    window: tuple | None = None

    def __post_init__(self):
        if self.iteration < 0 or not (self.band_halfwidth > 0):
            raise ValueError("iteration must be >= 0 and band_halfwidth > 0")
        if self.window is None:
            self.window = whole_box(self.phi.dims)


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


def _contains(outer, inner) -> bool:
    return all(o.start <= i.start and i.stop <= o.stop for o, i in zip(outer, inner))


def signed_distance_init(
    mask: BinaryMask, band_halfwidth: float = BAND_HALFWIDTH, window=None
) -> LevelSetField:
    """Signed Euclidean distance to the mask boundary, negative inside.

    The distance is computed on ``window`` (three slices holding the whole
    mask; the whole grid by default) only, and every voxel outside it holds
    the grid's diagonal plus the band width: more than any distance on the
    grid, so positive, never on the front and never inside the band.
    """
    m = mask.data
    if not m.any():
        raise ValueError("cannot build a distance field for an empty region")
    if m.all():
        raise ValueError("region covers the whole grid, no boundary to track")
    dims, spacing = m.shape, mask.spacing
    window = tuple(slice(*sl.indices(n)[:2]) for sl, n in zip(window or whole_box(dims), dims))
    if len(window) != 3 or not _contains(window, bounding_box(m)):
        raise ValueError(f"window {window} does not hold the whole region")
    far = math.hypot(*(n * s for n, s in zip(dims, spacing)))
    phi = np.full(dims, far + band_halfwidth * max(spacing))
    # The outside distance is exact on any box holding the whole mask.
    phi[window] = ndimage.distance_transform_edt(~m[window], sampling=spacing)
    # The inside distance only needs the mask's bounding box plus one layer:
    # that layer is background (or the grid face, as on the whole grid), and
    # no background voxel beyond it is closer to a voxel inside.  It is 0 on
    # background, so the part of that layer outside the window keeps its value.
    box = grow_box(bounding_box(m), (1, 1, 1), dims)
    phi[box] -= ndimage.distance_transform_edt(m[box], sampling=spacing)
    return LevelSetField(ScalarVolume(phi, spacing), 0, band_halfwidth, window)


def init_window(
    mask: BinaryMask,
    band_halfwidth: float = BAND_HALFWIDTH,
    params: EvolutionParams | None = None,
):
    """The window for signed_distance_init that holds evolve's first update
    box: the mask's bounding box grown by one voxel, the front's voxels
    outside the mask (_interface), then by the band, the travel margin of
    ``params`` (_box_pads) and the stencil halo, clipped to the grid (None
    for an empty mask, which signed_distance_init rejects)."""
    box = bounding_box(mask.data)
    if box is None:
        return None
    spacing, dims = mask.spacing, mask.dims
    pads = _box_pads(band_halfwidth, params or EvolutionParams(), spacing, dims)
    return grow_box(box, [1 + p + _HALO for p in pads], dims)


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
    box, phi = ls.window, ls.phi.data
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
    update and five scratch arrays (the last a view of ``buf``, the
    difference buffer of the advection, one axis stride longer than the
    box).  evolve allocates one per x-part of the step at the first step on
    each box and drops them at the box's checkpoint."""

    def __init__(self, shape):
        self.shape = tuple(shape)
        size = math.prod(self.shape)
        self.phi, self.update = np.empty(shape), np.empty(shape)
        self.grad = tuple(np.empty(shape) for _ in range(3))
        self.buf = np.empty(size + max(c_strides(shape)))
        self.scratch = [np.empty(shape) for _ in range(4)] + [self.buf[:size].reshape(shape)]


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


def _interface(phi):
    """The front's voxels, as a mask of phi's shape: those with a sign
    change to an axis neighbour (on a face the missing neighbour is the
    voxel itself) or phi == 0.  A rebuild that keeps every sign keeps them."""
    marks = phi == 0.0
    for axis in range(3):
        along, m = np.moveaxis(phi, axis, 0), np.moveaxis(marks, axis, 0)
        crossing = along[1:] * along[:-1] < 0.0
        m[1:] |= crossing
        m[:-1] |= crossing
    return marks


def reinitialize(ls: LevelSetField) -> LevelSetField:
    """Restore phi to a signed distance function by rebuilding it from its
    front, each voxel from its nearest interface voxel (the closest-point
    construction of Adalsteinsson & Sethian 1999).

    The interface voxels are the front's (_interface) of phi0.  Each keeps
    the sub-voxel distance the incoming field implies: phi0 over the root
    sum of squares of the larger one-sided slope per axis, so a steep
    compressed jump keeps its linear-interpolation crossing.  Each also
    gets a unit normal n_k, the direction of the central gradient summed
    over its 3^3 neighbourhood (edge voxels replicated; zero where the sum
    vanishes).  Every other voxel x takes |pinned_k + n_k . (x - x_k)|, its
    distance to the plane through k's front point, signed by its own phi0,
    where k is its nearest interface voxel in world units
    (distance_transform_edt).  A plane distance of exactly 0 is raised to
    the smallest normal float, so every voxel keeps its sign.

    An interface voxel's pinned value and normal read phi0 within two
    voxels of it, so they are the same bits on any box holding that reach.
    A box with no interface voxel comes back unchanged.  The result keeps
    ``ls.iteration``, ``ls.band_halfwidth`` and ``ls.window``.
    """
    phi = np.array(ls.phi.data, dtype=np.float64, order="C")
    spacing, shape = ls.phi.spacing, phi.shape
    interface = _interface(phi)
    iface = np.flatnonzero(interface)
    if iface.size == 0:
        return replace(ls, phi=ScalarVolume(phi, spacing))
    flat = phi.reshape(-1)

    slope2 = np.zeros(iface.size)
    buf = np.empty(phi.size + max(c_strides(shape)))
    for axis, s in enumerate(spacing):
        dm, dp = _one_sided(phi, axis, s, buf)
        slope2 += np.maximum(np.abs(dm[iface]), np.abs(dp[iface])) ** 2
    del buf
    pinned = flat[iface] / np.maximum(np.sqrt(slope2), _EPS_DIRECTION)

    # each axis's summed gradient, kept only where the normals are read
    g = np.empty(shape)
    normal = []
    for axis, s in enumerate(spacing):
        if shape[axis] > 1:
            central_difference(phi, axis, s, g)
        else:
            g.fill(0.0)
        for along in range(3):
            ndimage.correlate1d(g, (1.0, 1.0, 1.0), along, output=g, mode="nearest")
        normal.append(g.reshape(-1)[iface])
    length = np.sqrt(sum(n**2 for n in normal))
    scale = np.divide(1.0, length, where=length >= _EPS_DIRECTION, out=np.zeros_like(length))
    for n in normal:
        n *= scale
    flat[iface] = pinned
    # on a field that is mostly front these are grids too: free them
    # before the nearest-voxel indices are built
    del iface, pinned, slope2, length, scale

    near = ndimage.distance_transform_edt(
        ~interface, sampling=spacing, return_distances=False, return_indices=True
    )
    nearest = np.ravel_multi_index(near, shape)
    plane = np.take(flat, nearest)
    term = np.empty(shape)
    for x, k, nk, s in zip(np.ogrid[tuple(slice(n) for n in shape)], near, normal, spacing):
        # (x - x_k) along the axis, in world units, times n_k's component
        g[interface] = nk
        np.subtract(x, k, out=term)
        term *= s
        term *= np.take(g, nearest)
        plane += term
    np.abs(plane, out=plane)
    np.maximum(plane, np.finfo(np.float64).tiny, out=plane)
    np.copysign(plane, phi, out=plane)
    np.copyto(plane, phi, where=interface)
    return replace(ls, phi=ScalarVolume(plane, spacing))


def _cos_gamma_stats(px, py, pz, ctx, phi, box):
    """Mean cosine between the normal (px, py, pz) and the A->B direction
    over the front's voxels (_interface) of ``phi``, with the arrays
    covering ``box``; diagnostic only."""
    dx, dy, dz, dn = _radial(ctx, box)
    gn = np.sqrt(px * px + py * py + pz * pz)
    ok = _interface(phi) & (dn >= _EPS_DIRECTION) & (gn >= _EPS_DIRECTION)
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


def _speed(phi, spacing, alpha, velocity, work):
    """The explicit update alpha * K|grad phi| - V . grad phi of one step
    and the central gradient of phi.  ``velocity`` is _upwind_parts of V
    (upwinded on its sign), or None for no advection.  The stencils run on
    a C-ordered copy of phi flattened (module docstring), in the arrays of
    ``work``, a _Workspace of phi's shape: the update and the gradient
    returned are its arrays, valid until the next call with it."""
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


def _box_pads(band_halfwidth, params, spacing, dims):
    """Per axis, the voxels an update box reaches past the front's bounding
    box: the band, band_halfwidth voxels of the coarsest axis, plus the
    travel margin (EvolutionParams.travel_pads)."""
    width = band_halfwidth * max(spacing)
    pads = params.travel_pads(spacing, dims)
    return [math.ceil(width / s) + p for s, p in zip(spacing, pads)]


def _update_box(phi, pads, window):
    """The box of voxels an evolution segment may move, and the box its
    reinitialization reads (the _HALO margin).

    The box is the bounding box of the front's voxels (_interface) grown by
    pads[axis] voxels, or the whole grid for a field with no front.  Only
    ``window`` is searched; the front lies inside it.
    """
    dims = phi.shape
    front = bounding_box(_interface(phi[window]))
    if front is None:
        core = whole_box(dims)
    else:
        front = tuple(slice(f.start + w.start, f.stop + w.start) for f, w in zip(front, window))
        core = grow_box(front, pads, dims)
    return core, grow_box(core, (_HALO,) * 3, dims)


def evolve(
    ls: LevelSetField,
    ctx: ForceContext | None,
    params: EvolutionParams | None = None,
    log: list | None = None,
) -> LevelSetField:
    """Run the explicit level-set update until convergence or max_iters.

    Updates, reinitialization and the force run on the narrow-band box of
    the module docstring; voxels outside it keep their values.  Every
    ``reinit_every`` iterations, and after the last, is a checkpoint: the
    inside volume of the field the steps left is compared with the
    previous checkpoint's (a fractional change below ``stop_tol`` stops
    the evolution).  If another segment follows, the box is found anew,
    the window grown to hold it with its halo, and phi rebuilt from its
    front on that halo box (reinitialize).  The first box with its halo
    must lie in ``ls.window`` (init_window gives one that does), or
    ValueError is raised.  The returned phi is what the last step left,
    with the final window.  The front search, the inside volume and the
    relabelled count read the window only: outside it phi holds a positive
    placeholder, so no voxel there is on the front or inside.  A step whose
    largest change is not finite or exceeds _RUNAWAY_BANDS band widths (100
    voxels at the default band) raises NumericalInstabilityError carrying
    the global iteration index; this also catches non-finite phi (module
    docstring).

    ``log`` (a list, optional) receives one record dict per checkpoint:
    ``iteration``, ``inside``, ``changed`` (voxels whose inside/outside
    label differs from the starting phi), ``max_update`` (the largest
    change of the last step over the voxels it updated) and, with a force
    context, ``cos_gamma_mean`` (over the front's voxels of the field the
    steps left).
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
    window = ls.window
    pads = _box_pads(ls.band_halfwidth, params, spacing, dims)
    core, outer = _update_box(phi, pads, window)
    if not _contains(window, outer):
        raise ValueError(
            f"the first box {outer} leaves the window {window}: "
            "start from the window of init_window"
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
            return float(np.abs(update, out=step).max())

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
        peaks = run_parts(part_add, list(zip(parts, run_parts(part_speed, parts))))
        done += 1
        # np.max, unlike max, returns nan if any part's peak is nan
        max_update = float(np.max(peaks)) * dt
        if not math.isfinite(max_update) or max_update > runaway:
            raise NumericalInstabilityError(ls.iteration + done)

        if checkpoint:
            # the rebuild and the next box's force run without the step's
            # buffers, so the peak memory is that of one of the three
            parts = None
            now_inside = phi[window] < 0
            inside = int(np.count_nonzero(now_inside))
            if log is not None:
                # outside the window phi holds a placeholder above the band,
                # so every voxel inside, then and now, lies in the window
                started = ls.phi.data[window] < 0
                record = {
                    "iteration": ls.iteration + done,
                    "inside": inside,
                    "changed": int(np.count_nonzero(now_inside != started)),
                    "max_update": max_update,
                }
                if ctx is not None:
                    record["cos_gamma_mean"] = _cos_gamma_stats(*grad, ctx, phi[outer], outer)
                    del grad
                log.append(record)
            if abs(inside - prev_inside) / max(prev_inside, 1) < params.stop_tol:
                break
            prev_inside = inside
            if done < params.max_iters:
                core, outer = _update_box(phi, pads, window)
                window = tuple(
                    slice(min(w.start, o.start), max(w.stop, o.stop)) for w, o in zip(window, outer)
                )
                field = LevelSetField(ScalarVolume(phi[outer], spacing))
                phi[outer] = reinitialize(field).phi.data

    return LevelSetField(ScalarVolume(phi, spacing), ls.iteration + done, ls.band_halfwidth, window)
