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
    central_gradient,
    gaussian_smooth,
    require_same_grid,
    world_coordinates,
)

_EPS_DIRECTION = 1e-12
_EPS_CURVATURE = 1e-12

# A single step that moves phi by more than this many band widths cannot be
# a physical front motion; treat it as divergence without waiting for the
# values to overflow into inf.
_RUNAWAY_BANDS = 100.0


@dataclass
class LevelSetField:
    phi: ScalarVolume
    iteration: int = 0
    band_halfwidth: float = 6.0

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
    band_halfwidth: float = 6.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be >= 0")
        if self.dt is not None and not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.max_iters < 1 or self.reinit_every < 1:
            raise ValueError("max_iters and reinit_every must be >= 1")
        if self.stop_tol < 0 or not (self.band_halfwidth > 0):
            raise ValueError("stop_tol must be >= 0 and band_halfwidth > 0")

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


def _as_mask(region) -> BinaryMask:
    return region.mask if isinstance(region, CandidateRegion) else region


def signed_distance_init(region, band_halfwidth: float = 6.0) -> LevelSetField:
    """Signed Euclidean distance to the mask boundary, negative inside."""
    mask = _as_mask(region)
    m = mask.data
    if not m.any():
        raise ValueError("cannot build a distance field for an empty region")
    if m.all():
        raise ValueError("region covers the whole grid, no boundary to track")
    d_out = ndimage.distance_transform_edt(~m, sampling=mask.spacing)
    d_in = ndimage.distance_transform_edt(m, sampling=mask.spacing)
    phi = np.asarray(d_out - d_in, dtype=np.float64)
    return LevelSetField(ScalarVolume(phi, mask.spacing), 0, band_halfwidth)


def edge_map(patient: ScalarVolume, sigma: float = 1.0):
    """Gradient-magnitude edge strength of the smoothed scan.

    Returns the edge map rescaled to [0, 1] together with its central
    gradient (the attraction field).
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


def _radial(ctx: ForceContext, spacing, dims):
    """The components of B - A at every voxel B, and its length."""
    wx, wy, wz = world_coordinates(dims, spacing)
    dx = wx - ctx.center[0]
    dy = wy - ctx.center[1]
    dz = wz - ctx.center[2]
    return dx, dy, dz, np.sqrt(dx * dx + dy * dy + dz * dz)


def _force_field(ctx: ForceContext, spacing, dims):
    """Precompute the static unit force E on the whole grid."""
    dx, dy, dz, dn = _radial(ctx, spacing, dims)
    away = dn >= _EPS_DIRECTION
    inv = np.divide(1.0, dn, where=away, out=np.zeros_like(dn))
    delta = np.where(ctx.candidate.data, 1.0, -1.0)
    sx = ctx.edge_grad.x + delta * dx * inv
    sy = ctx.edge_grad.y + delta * dy * inv
    sz = ctx.edge_grad.z + delta * dz * inv
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


def _cos_gamma_stats(px, py, pz, ctx, spacing, dims, band):
    """Mean cosine between the front normal and the A->B direction inside
    the band; diagnostic only."""
    dx, dy, dz, dn = _radial(ctx, spacing, dims)
    gn = np.sqrt(px * px + py * py + pz * pz)
    ok = band & (dn >= _EPS_DIRECTION) & (gn >= _EPS_DIRECTION)
    if not ok.any():
        return 0.0
    cos = (px * dx + py * dy + pz * dz)[ok] / (gn[ok] * dn[ok])
    return float(np.clip(cos, -1.0, 1.0).mean())


def evolve(
    ls: LevelSetField,
    ctx: ForceContext | None,
    params: EvolutionParams | None = None,
    log: list | None = None,
) -> LevelSetField:
    """Run the explicit level-set update until convergence or max_iters.

    Every ``reinit_every`` iterations phi is reinitialized and the inside
    volume compared with the previous checkpoint; a fractional change below
    ``stop_tol`` stops the evolution.  Non-finite phi raises
    NumericalInstabilityError carrying the global iteration index.  ``log``
    (a list, optional) receives one record dict per checkpoint.
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
    field = LevelSetField(ScalarVolume(phi, spacing), ls.iteration, ls.band_halfwidth)

    use_advection = ctx is not None and params.beta > 0
    if use_advection:
        ex, ey, ez = _force_field(ctx, spacing, dims)
        vx, vy, vz = params.beta * ex, params.beta * ey, params.beta * ez

    prev_inside = int((phi < 0).sum())
    runaway = _RUNAWAY_BANDS * ls.band_halfwidth * max(spacing)
    max_update = 0.0
    done = 0
    while done < params.max_iters:
        with np.errstate(over="ignore", invalid="ignore"):
            curv, (px, py, pz) = _curvature_times_gradnorm(phi, spacing)
            update = params.alpha * curv
            if use_advection:
                adv = np.zeros_like(phi)
                for axis, (v, s) in enumerate(zip((vx, vy, vz), spacing)):
                    dm = (phi - _shift(phi, axis, -1)) / s
                    dp = (_shift(phi, axis, 1) - phi) / s
                    adv += np.maximum(v, 0.0) * dm + np.minimum(v, 0.0) * dp
                update = update - adv
            phi = phi + dt * update
        done += 1
        max_update = float(np.abs(update).max()) * dt
        if (
            not math.isfinite(max_update)
            or max_update > runaway
            or not np.isfinite(phi).all()
        ):
            raise NumericalInstabilityError(ls.iteration + done)

        if done % params.reinit_every == 0 or done == params.max_iters:
            field = reinitialize(
                LevelSetField(ScalarVolume(phi, spacing), ls.iteration + done, ls.band_halfwidth)
            )
            phi = np.array(field.phi.data)
            inside = int((phi < 0).sum())
            if log is not None:
                band = np.abs(phi) <= max(spacing) * ls.band_halfwidth
                record = {
                    "iteration": ls.iteration + done,
                    "inside": inside,
                    "max_update": max_update,
                }
                if ctx is not None:
                    record["cos_gamma_mean"] = _cos_gamma_stats(
                        px, py, pz, ctx, spacing, dims, band
                    )
                log.append(record)
            if abs(inside - prev_inside) / max(prev_inside, 1) < params.stop_tol:
                prev_inside = inside
                break
            prev_inside = inside

    return LevelSetField(ScalarVolume(phi, spacing), ls.iteration + done, ls.band_halfwidth)
