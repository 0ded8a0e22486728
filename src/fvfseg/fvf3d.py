"""Level-set refinement of a candidate region with a fluid-vector-flow force.

The candidate mask seeds a signed distance field phi (negative inside).
Each iteration moves phi by an explicit update

    phi <- phi + dt * (alpha * K|grad phi|  -  beta * (E . grad phi))

where K is mean curvature (average of the principal curvatures, computed
from central first/second differences in the combined form
K|grad| = (lap phi - grad^T H grad / |grad|^2) / 2) and E is a static
unit force field assembled once before the loop:

    E(B) = chi( grad f(B) + delta * (B - A)/|B - A| )

with f the [0, 1]-rescaled gradient-magnitude edge map of the scan, A the
candidate centroid, delta = +1 inside the candidate mask and -1 outside,
and chi normalization to unit length (zero when degenerate or B = A).
Voxels inside the candidate are pushed outward along A->B, voxels outside
are pulled back, and near intensity edges the grad f term dominates, so
opposing flows converge on the tumor boundary.  The advection term is
upwind-differenced on the sign of E; curvature uses central differences.

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
clipped to the grid.  Stencils read a further 2-voxel halo around it.
Voxels outside the box stay frozen; the box is rebuilt at every
checkpoint.  A field with no voxel in the band is evolved on the whole
grid.

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

from .candidate import CandidateRegion, mask_centroid
from .errors import NumericalInstabilityError
from .volume import (
    BinaryMask,
    ScalarVolume,
    VectorField,
    bounding_box,
    central_gradient,
    gaussian_smooth,
    grow_box,
    require_same_grid,
)

_EPS_DIRECTION = 1e-12
_EPS_CURVATURE = 1e-12

# A single step that moves phi by more than this many band widths cannot be
# a physical front motion; treat it as divergence without waiting for the
# values to overflow into inf.
_RUNAWAY_BANDS = 100.0

# The curvature stencil reads phi two voxels away (np.gradient of np.gradient).
_HALO = 2


@dataclass
class LevelSetField:
    """phi with the evolution's iteration count and band half-width (in
    voxels of the coarsest axis).  ``window`` (a tuple of three slices, or
    None for the whole grid) is the box on which phi is exact; outside it
    phi holds a placeholder larger than the band."""

    phi: ScalarVolume
    iteration: int = 0
    band_halfwidth: float = 6.0
    window: tuple | None = None

    def __post_init__(self):
        if self.iteration < 0 or not (self.band_halfwidth > 0):
            raise ValueError("iteration must be >= 0 and band_halfwidth > 0")


@dataclass
class ForceContext:
    """Everything the external force needs: edge map, its gradient, the
    seed point A, and the candidate mask."""

    edge: ScalarVolume
    edge_grad: VectorField
    center: tuple[float, float, float]
    candidate: BinaryMask

    def __post_init__(self):
        require_same_grid(self.edge, self.candidate, "edge map and candidate")
        if self.edge.dims != self.edge_grad.dims:
            raise ValueError("edge map and its gradient disagree on dims")
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


def _as_mask(region) -> BinaryMask:
    return region.mask if isinstance(region, CandidateRegion) else region


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


def signed_distance_init(region, band_halfwidth: float = 6.0, window=None) -> LevelSetField:
    """Signed Euclidean distance to the mask boundary, negative inside.

    With ``window`` (three slices holding the whole region) the distance is
    computed on that box only, and every voxel outside it holds the grid's
    diagonal plus the band width: more than any distance on the grid, so
    never inside the band.
    """
    mask = _as_mask(region)
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
    _fill_distance(phi, m, spacing, window or _whole(dims))
    return LevelSetField(ScalarVolume(phi, spacing), 0, band_halfwidth, window)


def init_window(region, band_halfwidth: float = 6.0, params: EvolutionParams | None = None):
    """The window for signed_distance_init that holds evolve's first update
    box: the region's bounding box grown by the band, the travel margin of
    ``params`` and the stencil halo, clipped to the grid (None for an empty
    region, which signed_distance_init rejects)."""
    mask = _as_mask(region)
    box = bounding_box(mask.data)
    if box is None:
        return None
    spacing, dims = mask.spacing, mask.dims
    width = band_halfwidth * max(spacing)
    pads = (params or EvolutionParams()).travel_pads(spacing, dims)
    return grow_box(
        box, [math.ceil(width / s) + p + _HALO for s, p in zip(spacing, pads)], dims
    )


def edge_map(patient: ScalarVolume, sigma: float = 1.0):
    """Gradient-magnitude edge strength of the smoothed scan.

    Returns the edge map rescaled to [0, 1] together with its central
    gradient (the attraction field).  Both cover the whole grid even though
    evolve reads them only on its boxes: the rescale divides by the peak
    of the smoothed gradient magnitude over the whole scan, which no crop
    around the candidate can know.
    """
    smoothed = gaussian_smooth(patient, sigma)
    g = central_gradient(smoothed)
    mag = g.magnitude()
    peak = float(mag.max())
    if peak > 0:
        mag = mag / peak
    f = ScalarVolume(mag, patient.spacing)
    return f, central_gradient(f)


def make_force_context(
    patient: ScalarVolume, region, sigma: float = 1.0, center=None
) -> ForceContext:
    """Build the static force inputs from a scan and a candidate region."""
    mask = _as_mask(region)
    require_same_grid(patient, mask, "patient and candidate")
    if center is None:
        center = region.centroid if isinstance(region, CandidateRegion) else mask_centroid(mask)
    f, fgrad = edge_map(patient, sigma)
    return ForceContext(edge=f, edge_grad=fgrad, center=tuple(center), candidate=mask)


def zero_level_mask(ls: LevelSetField) -> BinaryMask:
    """Voxels strictly inside the front (phi < 0)."""
    return BinaryMask(ls.phi.data < 0.0, ls.phi.spacing)


def _shift(a: np.ndarray, axis: int, step: int) -> np.ndarray:
    """Array sampled at index+step along ``axis`` with edge replication."""
    out = np.empty_like(a)
    dst = [slice(None)] * a.ndim
    src = [slice(None)] * a.ndim
    edge = [slice(None)] * a.ndim
    if step == 1:
        dst[axis] = slice(0, -1)
        src[axis] = slice(1, None)
        edge[axis] = slice(-1, None)
    elif step == -1:
        dst[axis] = slice(1, None)
        src[axis] = slice(0, -1)
        edge[axis] = slice(0, 1)
    else:
        raise ValueError("step must be +1 or -1")
    out[tuple(dst)] = a[tuple(src)]
    out[tuple(edge)] = a[tuple(edge)]
    return out


def _whole(dims):
    return tuple(slice(0, n) for n in dims)


def _radial(ctx: ForceContext, spacing, box):
    """The components of B - A at every voxel B of ``box`` (broadcastable
    per-axis arrays), and its length."""
    dx, dy, dz = (
        (np.arange(sl.start, sl.stop, dtype=np.float64) * s - c).reshape(shape)
        for sl, s, c, shape in zip(
            box, spacing, ctx.center, ((-1, 1, 1), (1, -1, 1), (1, 1, -1))
        )
    )
    return dx, dy, dz, np.sqrt(dx * dx + dy * dy + dz * dz)


def _force_field(ctx: ForceContext, spacing, dims, box=None):
    """Precompute the static unit force E on ``box`` (default: the whole grid)."""
    box = box or _whole(dims)
    dx, dy, dz, dn = _radial(ctx, spacing, box)
    away = dn >= _EPS_DIRECTION
    inv = np.divide(1.0, dn, where=away, out=np.zeros_like(dn))
    delta = np.where(ctx.candidate.data[box], 1.0, -1.0)
    sx = ctx.edge_grad.x[box] + delta * dx * inv
    sy = ctx.edge_grad.y[box] + delta * dy * inv
    sz = ctx.edge_grad.z[box] + delta * dz * inv
    sn = np.sqrt(sx * sx + sy * sy + sz * sz)
    ok = away & (sn >= _EPS_DIRECTION)
    scale = np.divide(1.0, sn, where=ok, out=np.zeros_like(sn))
    return sx * scale, sy * scale, sz * scale


def _curvature_times_gradnorm(phi, spacing):
    sx, sy, sz = spacing
    px, py, pz = np.gradient(phi, sx, sy, sz, edge_order=1)
    pxx = (_shift(phi, 0, 1) - 2.0 * phi + _shift(phi, 0, -1)) / sx**2
    pyy = (_shift(phi, 1, 1) - 2.0 * phi + _shift(phi, 1, -1)) / sy**2
    pzz = (_shift(phi, 2, 1) - 2.0 * phi + _shift(phi, 2, -1)) / sz**2
    pxy = np.gradient(px, sy, axis=1, edge_order=1)
    pxz = np.gradient(px, sz, axis=2, edge_order=1)
    pyz = np.gradient(py, sz, axis=2, edge_order=1)
    grad2 = px * px + py * py + pz * pz
    quad = (
        px * px * pxx
        + py * py * pyy
        + pz * pz * pzz
        + 2.0 * (px * py * pxy + px * pz * pxz + py * pz * pyz)
    )
    lap = pxx + pyy + pzz
    return 0.5 * (lap - quad / (grad2 + _EPS_CURVATURE)), (px, py, pz)


def reinitialize(ls: LevelSetField, iterations: int | None = None) -> LevelSetField:
    """Restore phi to a signed distance function (Sussman scheme with the
    subcell interface fix).

    Cells next to the zero crossing are relaxed toward the sub-voxel
    distance implied by the incoming field, which pins the interface in
    place even when advection has compressed phi into a steep jump; a
    plain upwind reinitialization bleeds such a front by a good fraction
    of a voxel per call.  Elsewhere the usual Godunov flow with a frozen
    smoothed sign rebuilds |grad phi| = 1.  An exact distance field is a
    fixed point.
    """
    phi = np.array(ls.phi.data, dtype=np.float64)
    spacing = ls.phi.spacing
    h = min(spacing)
    if iterations is None:
        iterations = max(8, int(math.ceil(2.0 * ls.band_halfwidth)) + 4)
    phi0 = phi.copy()
    sign = phi0 / np.sqrt(phi0 * phi0 + h * h)
    sign0 = np.sign(phi0)
    pos = phi0 > 0
    neg = phi0 < 0

    # Interface cells and their pinned distances: per axis take the larger
    # one-sided slope of phi0, so a steep compressed jump still yields the
    # linear-interpolation crossing.
    interface = np.zeros(phi.shape, dtype=bool)
    slope_sq = np.zeros_like(phi)
    for axis, s in enumerate(spacing):
        fwd = _shift(phi0, axis, 1)
        bwd = _shift(phi0, axis, -1)
        interface |= (phi0 * fwd < 0) | (phi0 * bwd < 0)
        dm = (phi0 - bwd) / s
        dp = (fwd - phi0) / s
        slope_sq += np.maximum(np.abs(dm), np.abs(dp)) ** 2
    interface |= phi0 == 0.0
    pinned = phi0 / np.maximum(np.sqrt(slope_sq), _EPS_DIRECTION)

    dt = 0.5 * h
    for it in range(iterations):
        terms_pos = np.zeros_like(phi)
        terms_neg = np.zeros_like(phi)
        for axis, s in enumerate(spacing):
            dm = (phi - _shift(phi, axis, -1)) / s
            dp = (_shift(phi, axis, 1) - phi) / s
            terms_pos += np.maximum(np.maximum(dm, 0.0) ** 2, np.minimum(dp, 0.0) ** 2)
            terms_neg += np.maximum(np.minimum(dm, 0.0) ** 2, np.maximum(dp, 0.0) ** 2)
        g = np.zeros_like(phi)
        g[pos] = np.sqrt(terms_pos[pos]) - 1.0
        g[neg] = np.sqrt(terms_neg[neg]) - 1.0
        stepped = phi - dt * sign * g
        relaxed = phi - (dt / h) * (sign0 * np.abs(phi) - pinned)
        phi = np.where(interface, relaxed, stepped)
        if not np.isfinite(phi).all():
            raise NumericalInstabilityError(ls.iteration, f"reinitialization diverged at inner step {it}")
    return LevelSetField(ScalarVolume(phi, spacing), ls.iteration, ls.band_halfwidth)


def _cos_gamma_stats(px, py, pz, ctx, spacing, dims, band, box=None):
    """Mean cosine between the front normal and the A->B direction inside
    the band, with the arrays covering ``box`` (default: the whole grid);
    diagnostic only."""
    dx, dy, dz, dn = _radial(ctx, spacing, box or _whole(dims))
    gn = np.sqrt(px * px + py * py + pz * pz)
    ok = band & (dn >= _EPS_DIRECTION) & (gn >= _EPS_DIRECTION)
    if not ok.any():
        return 0.0
    cos = (px * dx + py * dy + pz * dz)[ok] / (gn[ok] * dn[ok])
    return float(np.clip(cos, -1.0, 1.0).mean())


def _speed(phi, spacing, alpha, velocity):
    """The explicit update alpha * K|grad phi| - V . grad phi of one step
    (V upwinded; none when ``velocity`` is None) and the central gradient
    of phi.  Its own function so that the step's temporaries are freed
    before the next step allocates them again."""
    curv, grad = _curvature_times_gradnorm(phi, spacing)
    update = alpha * curv
    if velocity is not None:
        adv = np.zeros_like(phi)
        for axis, (v, s) in enumerate(zip(velocity, spacing)):
            dm = (phi - _shift(phi, axis, -1)) / s
            dp = (_shift(phi, axis, 1) - phi) / s
            adv += np.maximum(v, 0.0) * dm + np.minimum(v, 0.0) * dp
        update = update - adv
    return update, grad


def _update_box(phi, width, pads):
    """The box of voxels an evolution segment may move, the box its
    stencils read (2-voxel halo), and the first as slices into the second.

    The first box is the bounding box of |phi| <= width widened by
    pads[axis] voxels, or the whole grid when no voxel is that close to
    the front.
    """
    dims = phi.shape
    band = bounding_box((phi >= -width) & (phi <= width))
    core = _whole(dims) if band is None else grow_box(band, pads, dims)
    outer = grow_box(core, (_HALO,) * 3, dims)
    inner = tuple(slice(c.start - o.start, c.stop - o.start) for c, o in zip(core, outer))
    return core, outer, inner


def _update_box_in_window(phi, start_inside, spacing, window, width, pads):
    """_update_box, with ``window`` (the box on which phi is exact) widened
    until the stencil box lies inside it; returns the three boxes and the
    window.

    A widening writes the exact distance to the boundary of
    ``start_inside`` on the new part of the window and keeps phi on the
    old, so phi stays what the whole-grid scheme holds.  Voxels on a window
    face that is not a grid face lie outside every earlier update box and
    hold their starting distance, so a band reaching past the window also
    reaches that face, and its stencil box leaves the window.
    """
    while True:
        core, outer, inner = _update_box(phi, width, pads)
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
    the module docstring; voxels outside it keep their values, so the
    instability checks, the inside volume and the stop rule still cover
    the whole grid.  Every ``reinit_every`` iterations phi is reinitialized
    on the box, the inside volume compared with the previous checkpoint (a
    fractional change below ``stop_tol`` stops the evolution), and the box
    rebuilt.  A field exact only on ``ls.window`` has that window widened
    whenever a box's stencils would read past it (module docstring), and
    the returned field carries the final window.  Non-finite phi raises
    NumericalInstabilityError carrying the global iteration index.
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
        require_same_grid(ls.phi, ctx.edge, "level set and force context")
    if ctx is None and params.beta > 0:
        raise ValueError("beta > 0 requires a force context")

    dt = params.resolve_dt(spacing)
    phi = np.array(ls.phi.data, dtype=np.float64)
    start_inside = ls.phi.data < 0
    width = max(spacing) * ls.band_halfwidth
    pads = params.travel_pads(spacing, dims)
    window = ls.window or _whole(dims)
    core, outer, inner, window = _update_box_in_window(
        phi, start_inside, spacing, window, width, pads
    )

    use_advection = ctx is not None and params.beta > 0
    velocity = None
    force_box = None

    prev_inside = int((phi < 0).sum())
    runaway = _RUNAWAY_BANDS * ls.band_halfwidth * max(spacing)
    max_update = 0.0
    done = 0
    while done < params.max_iters:
        if use_advection and force_box != outer:
            velocity = _force_field(ctx, spacing, dims, outer)
            for v in velocity:
                v *= params.beta
            force_box = outer
        with np.errstate(over="ignore", invalid="ignore"):
            update, (px, py, pz) = _speed(phi[outer], spacing, params.alpha, velocity)
            update = update[inner]
            phi[core] += dt * update
        done += 1
        max_update = float(np.abs(update).max()) * dt
        if (
            not math.isfinite(max_update)
            or max_update > runaway
            or not np.isfinite(phi[core]).all()
        ):
            raise NumericalInstabilityError(ls.iteration + done)

        if done % params.reinit_every == 0 or done == params.max_iters:
            field = reinitialize(
                LevelSetField(
                    ScalarVolume(phi[outer], spacing), ls.iteration + done, ls.band_halfwidth
                )
            )
            phi[core] = field.phi.data[inner]
            now_inside = phi < 0
            inside = int(now_inside.sum())
            if log is not None:
                record = {
                    "iteration": ls.iteration + done,
                    "inside": inside,
                    "changed": int(np.count_nonzero(now_inside != start_inside)),
                    "max_update": max_update,
                }
                if ctx is not None:
                    band = np.abs(phi[outer]) <= width
                    record["cos_gamma_mean"] = _cos_gamma_stats(
                        px, py, pz, ctx, spacing, dims, band, outer
                    )
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
