"""Independent reference implementations used to check the package.

Everything here is deliberately naive: explicit shifting, BFS, arbitrary
precision arithmetic.  None of it shares code with the implementations
under test, except evolve_box_oracle: a guard on evolve's loop, it runs
that loop in its plainer form on the package's kernels, which the other
oracles check.
"""

import math
from collections import deque
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy import ndimage

from fvfseg.candidate import CONNECTIVITY, DILATE_DEPTH, ERODE_DEPTH, STRIP_DEPTH

mp.mp.dps = 50


# --- binary morphology on a (2r+1)^3 cube, outside counted as background


def _padded_views(mask: np.ndarray, radius: int):
    p = np.pad(mask, radius, mode="constant", constant_values=False)
    nx, ny, nz = mask.shape
    for dx in range(-radius, radius + 1):
        for dy in range(-radius, radius + 1):
            for dz in range(-radius, radius + 1):
                yield p[
                    radius + dx : radius + dx + nx,
                    radius + dy : radius + dy + ny,
                    radius + dz : radius + dz + nz,
                ]


def erode_oracle(mask: np.ndarray, radius: int = 1, iterations: int = 1) -> np.ndarray:
    out = mask.copy()
    for _ in range(iterations):
        acc = np.ones_like(out)
        for view in _padded_views(out, radius):
            acc &= view
        out = acc
    return out


def dilate_oracle(mask: np.ndarray, radius: int = 1, iterations: int = 1) -> np.ndarray:
    out = mask.copy()
    for _ in range(iterations):
        acc = np.zeros_like(out)
        for view in _padded_views(out, radius):
            acc |= view
        out = acc
    return out


# --- connected components by BFS


def _neighbors(connectivity: int):
    offs = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                order = abs(dx) + abs(dy) + abs(dz)
                if connectivity == 6 and order > 1:
                    continue
                if connectivity == 18 and order > 2:
                    continue
                offs.append((dx, dy, dz))
    return offs


def components_oracle(mask: np.ndarray, connectivity: int = 26):
    """List of components, each a set of (x, y, z) tuples."""
    offs = _neighbors(connectivity)
    nx, ny, nz = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    comps = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not mask[x, y, z] or seen[x, y, z]:
                    continue
                comp = set()
                q = deque([(x, y, z)])
                seen[x, y, z] = True
                while q:
                    cx, cy, cz = q.popleft()
                    comp.add((cx, cy, cz))
                    for dx, dy, dz in offs:
                        px, py, pz = cx + dx, cy + dy, cz + dz
                        if (
                            0 <= px < nx
                            and 0 <= py < ny
                            and 0 <= pz < nz
                            and mask[px, py, pz]
                            and not seen[px, py, pz]
                        ):
                            seen[px, py, pz] = True
                            q.append((px, py, pz))
                comps.append(comp)
    return comps


def linear_index(voxel, dims) -> int:
    """x-fastest linear index."""
    x, y, z = voxel
    return x + dims[0] * (y + dims[1] * z)


def largest_component_oracle(mask: np.ndarray, connectivity: int = 26) -> np.ndarray:
    comps = components_oracle(mask, connectivity)
    if not comps:
        raise ValueError("empty mask")
    best = None
    best_key = None
    for comp in comps:
        key = (-len(comp), min(linear_index(v, mask.shape) for v in comp))
        if best_key is None or key < best_key:
            best_key = key
            best = comp
    out = np.zeros_like(mask)
    for x, y, z in best:
        out[x, y, z] = True
    return out


# --- candidate extraction on the whole grid


def extract_candidate_oracle(gbbm, brain, spacing, psi):
    """The five cleanup steps of fvfseg.candidate at its fixed depths and
    connectivity, each on the whole grid, erosion and dilation as repeated
    radius-1 passes: returns the mask, its centroid in world units and the
    step counts, or the 1-based step at which the mask empties."""
    stripped = erode_oracle(brain, 1, STRIP_DEPTH)
    mask = np.where(stripped, gbbm, 0.0) > psi
    counts = [int(mask.sum())]
    if counts[-1] == 0:
        return 2
    mask = erode_oracle(mask, 1, ERODE_DEPTH)
    counts.append(int(mask.sum()))
    if counts[-1] == 0:
        return 3
    mask = largest_component_oracle(mask, CONNECTIVITY)
    counts.append(int(mask.sum()))
    mask = dilate_oracle(mask, 1, DILATE_DEPTH) & stripped
    counts.append(int(mask.sum()))
    idx = np.nonzero(mask)
    centroid = tuple(float(idx[ax].mean() * spacing[ax]) for ax in range(3))
    return mask, centroid, tuple(counts)


# --- arbitrary-precision formula oracles


def mp_gaussian_pdf(x, mean, std):
    x, mean, std = mp.mpf(x), mp.mpf(mean), mp.mpf(std)
    return mp.e ** (-((x - mean) ** 2) / (2 * std**2)) / (std * mp.sqrt(2 * mp.pi))


def mp_mixture_density(weights, means, stds, x):
    return mp.fsum(
        mp.mpf(w) * mp_gaussian_pdf(x, m, s) for w, m, s in zip(weights, means, stds)
    )


def mp_spatial_prior(xi):
    vals = [mp.mpf(v) for v in xi]
    total = mp.fsum(vals)
    if total <= 0:
        third = mp.mpf(1) / 3
        return (third, third, third)
    return tuple(v / total for v in vals)


def mp_posterior(prior, means, stds, x):
    numer = [mp.mpf(p) * mp_gaussian_pdf(x, m, s) for p, m, s in zip(prior, means, stds)]
    denom = mp.fsum(numer)
    if denom < mp.mpf("1e-300"):
        return tuple(mp.mpf(p) for p in prior)
    return tuple(v / denom for v in numer)


def mp_pearson(a, b):
    a = [mp.mpf(v) for v in a]
    b = [mp.mpf(v) for v in b]
    n = len(a)
    ma = mp.fsum(a) / n
    mb = mp.fsum(b) / n
    var_a = mp.fsum((v - ma) ** 2 for v in a) / n
    var_b = mp.fsum((v - mb) ** 2 for v in b) / n
    if var_a < mp.mpf("1e-12") or var_b < mp.mpf("1e-12"):
        return mp.mpf(0)
    cov = mp.fsum((u - ma) * (v - mb) for u, v in zip(a, b)) / n
    cc = cov / mp.sqrt(var_a * var_b)
    return max(mp.mpf(-1), min(mp.mpf(1), cc))


def mp_cc_to_cm(cc):
    cc = mp.mpf(cc)
    return 1 - cc if cc > 0 else -cc


def tanimoto_oracle(x: np.ndarray, g: np.ndarray) -> float:
    n_x = n_g = n_i = 0
    for a, b in zip(x.ravel(), g.ravel()):
        n_x += bool(a)
        n_g += bool(b)
        n_i += bool(a) and bool(b)
    union = n_x + n_g - n_i
    return 1.0 if union == 0 else n_i / union


def rel_close(value, oracle, tol=1e-12) -> bool:
    """|value - oracle| <= tol * max(|oracle|, 1)."""
    return abs(value - float(oracle)) <= tol * max(abs(float(oracle)), 1.0)


# --- full-buffer EM: every iteration on (k, n) arrays, responsibilities
# stored for a second pass; the reference for the package's chunked fit_em


class EmFit(NamedTuple):
    weights: tuple
    means: tuple
    stds: tuple
    loglik_trace: tuple
    converged: bool


def fit_em_oracle(samples, k=3, tol=1e-6, max_iters=500) -> EmFit:
    """The fit_em contract (quantile init, sorted samples, log-domain
    E-step, starved components frozen, floored variances, stop when the
    log-likelihood gains less than ``tol``) with the M-step's variance
    taken about the new mean in a second pass over stored responsibilities.
    """
    variance_floor = 1e-6  # ngmm.VARIANCE_FLOOR
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if x.size < k:
        raise ValueError(f"need at least {k} samples to fit {k} components, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("samples contain non-finite values")
    means = np.quantile(x, (2.0 * np.arange(k) + 1.0) / (2.0 * k))
    stds = np.full(k, max(float(x.std()) / k, math.sqrt(variance_floor)))
    weights = np.full(k, 1.0 / k)
    trace = []
    prev_ll = -np.inf
    converged = False
    for _ in range(max_iters):
        consts = np.log(weights) - np.log(stds) - 0.5 * math.log(2.0 * math.pi)
        terms = np.stack(
            [-0.5 / (s * s) * (x - m) ** 2 + c for m, s, c in zip(means, stds, consts)]
        )
        peak = terms.max(axis=0)
        resp = np.exp(terms - peak)
        total = resp.sum(axis=0)
        resp /= total
        ll = float((np.log(total) + peak).mean())
        if not math.isfinite(ll):
            raise ValueError("EM log-likelihood became non-finite")
        if ll < prev_ll - 1e-9:
            raise ValueError(f"EM log-likelihood decreased ({prev_ll} -> {ll})")
        trace.append(ll)
        if ll - prev_ll < tol and len(trace) > 1:
            converged = True
            break
        prev_ll = ll
        nk = resp.sum(axis=1)
        for j in range(k):
            if nk[j] < 1e-12:
                continue
            means[j] = float(resp[j] @ x) / nk[j]
            var = float(resp[j] @ (x - means[j]) ** 2) / nk[j]
            stds[j] = math.sqrt(max(var, variance_floor))
        weights = nk / x.size
    order = np.argsort(means, kind="stable")
    return EmFit(
        tuple(float(v) for v in weights[order]),
        tuple(float(v) for v in means[order]),
        tuple(float(v) for v in stds[order]),
        tuple(trace),
        converged,
    )


# --- full-grid level-set evolution: the explicit scheme, reinitialization
# and force on every voxel at every step; the reference for the package's
# narrow-band evolve


_EPS = 1e-12


def _shift_ref(a, axis, step):
    out = np.empty_like(a)
    dst = [slice(None)] * a.ndim
    src = [slice(None)] * a.ndim
    edge = [slice(None)] * a.ndim
    if step == 1:
        dst[axis] = slice(0, -1)
        src[axis] = slice(1, None)
        edge[axis] = slice(-1, None)
    else:
        dst[axis] = slice(1, None)
        src[axis] = slice(0, -1)
        edge[axis] = slice(0, 1)
    out[tuple(dst)] = a[tuple(src)]
    out[tuple(edge)] = a[tuple(edge)]
    return out


def _curvature_ref(phi, spacing):
    sx, sy, sz = spacing
    px, py, pz = np.gradient(phi, sx, sy, sz, edge_order=1)
    pxx = (_shift_ref(phi, 0, 1) - 2.0 * phi + _shift_ref(phi, 0, -1)) / sx**2
    pyy = (_shift_ref(phi, 1, 1) - 2.0 * phi + _shift_ref(phi, 1, -1)) / sy**2
    pzz = (_shift_ref(phi, 2, 1) - 2.0 * phi + _shift_ref(phi, 2, -1)) / sz**2
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
    return 0.5 * (lap - quad / (grad2 + _EPS)), (px, py, pz)


def _advection_ref(phi, velocity, spacing):
    """V . grad phi, upwinded on the sign of each component of V."""
    adv = np.zeros_like(phi)
    for axis, (v, s) in enumerate(zip(velocity, spacing)):
        dm = (phi - _shift_ref(phi, axis, -1)) / s
        dp = (_shift_ref(phi, axis, 1) - phi) / s
        adv += np.maximum(v, 0.0) * dm + np.minimum(v, 0.0) * dp
    return adv


def _interface_ref(phi):
    """The front's voxels of ``phi``: a sign change to an axis neighbour,
    the edge replicated, or phi == 0."""
    interface = phi == 0.0
    for axis in range(phi.ndim):
        interface |= (phi * _shift_ref(phi, axis, 1) < 0) | (phi * _shift_ref(phi, axis, -1) < 0)
    return interface


def _pinned_ref(phi0, spacing):
    """The interface voxels of ``phi0`` (_interface_ref) and phi0 over the
    root sum of squares of the larger one-sided slope per axis, on the
    whole grid."""
    slope_sq = np.zeros_like(phi0)
    for axis, s in enumerate(spacing):
        fwd = _shift_ref(phi0, axis, 1)
        bwd = _shift_ref(phi0, axis, -1)
        slope_sq += np.maximum(np.abs((phi0 - bwd) / s), np.abs((fwd - phi0) / s)) ** 2
    return _interface_ref(phi0), phi0 / np.maximum(np.sqrt(slope_sq), _EPS)


def _reinitialize_ref(phi, spacing):
    """The closest-point rebuild: interface voxels keep their pinned value;
    every other voxel takes its distance to the plane through its nearest
    interface voxel's front point, signed by its own phi0.  The plane's
    normal is np.gradient summed over the 3^3 neighbourhood, one axis at a
    time as c + (left + right) with the edge replicated: the order of
    ndimage.correlate1d's symmetric sum (uniform_filter's running sum gives
    other bits)."""
    phi0 = np.array(phi, dtype=np.float64)
    interface, pinned = _pinned_ref(phi0, spacing)
    if not interface.any():
        return phi0
    summed = []
    for axis, (n, s) in enumerate(zip(phi0.shape, spacing)):
        g = np.gradient(phi0, s, axis=axis, edge_order=1) if n > 1 else np.zeros_like(phi0)
        for along in range(3):
            g = g + (_shift_ref(g, along, -1) + _shift_ref(g, along, 1))
        summed.append(g)
    length = np.sqrt(sum(g * g for g in summed))
    scale = np.divide(1.0, length, where=length >= _EPS, out=np.zeros_like(length))
    near = tuple(
        ndimage.distance_transform_edt(
            ~interface, sampling=spacing, return_distances=False, return_indices=True
        )
    )
    plane = pinned[near]
    for axis, (g, s) in enumerate(zip(summed, spacing)):
        plane = plane + ((np.indices(phi0.shape)[axis] - near[axis]) * s) * (g * scale)[near]
    out = np.copysign(np.maximum(np.abs(plane), np.finfo(np.float64).tiny), phi0)
    return np.where(interface, pinned, out)


def edge_map_oracle(smoothed, spacing):
    """The whole-grid edge map of a smoothed scan, rescaled to [0, 1] by its
    peak, and its gradient, by np.gradient."""
    gx, gy, gz = np.gradient(smoothed, *spacing, edge_order=1)
    mag = np.sqrt(gx**2 + gy**2 + gz**2)
    peak = float(mag.max())
    if peak > 0:
        mag = mag / peak
    return mag, np.gradient(mag, *spacing, edge_order=1)


def _radial_ref(center, spacing, dims):
    axes = [np.arange(n, dtype=np.float64) * s for n, s in zip(dims, spacing)]
    wx, wy, wz = np.meshgrid(*axes, indexing="ij")
    dx = wx - center[0]
    dy = wy - center[1]
    dz = wz - center[2]
    return dx, dy, dz, np.sqrt(dx * dx + dy * dy + dz * dz)


def _force_ref(edge_grad, candidate, center, spacing, dims):
    dx, dy, dz, dn = _radial_ref(center, spacing, dims)
    away = dn >= _EPS
    inv = np.divide(1.0, dn, where=away, out=np.zeros_like(dn))
    delta = np.where(candidate, 1.0, -1.0)
    sx = edge_grad[0] + delta * dx * inv
    sy = edge_grad[1] + delta * dy * inv
    sz = edge_grad[2] + delta * dz * inv
    sn = np.sqrt(sx * sx + sy * sy + sz * sz)
    ok = away & (sn >= _EPS)
    scale = np.divide(1.0, sn, where=ok, out=np.zeros_like(sn))
    return sx * scale, sy * scale, sz * scale


def _cos_gamma_ref(px, py, pz, center, spacing, phi):
    dx, dy, dz, dn = _radial_ref(center, spacing, px.shape)
    gn = np.sqrt(px * px + py * py + pz * pz)
    ok = _interface_ref(phi) & (dn >= _EPS) & (gn >= _EPS)
    if not ok.any():
        return 0.0
    cos = (px * dx + py * dy + pz * dz)[ok] / (gn[ok] * dn[ok])
    return float(np.clip(cos, -1.0, 1.0).mean())


def evolve_oracle(phi, spacing, params, force=None):
    """Full-grid explicit evolution of ``phi``; returns the final phi and
    one record per checkpoint (iteration, inside, max_update and, given
    ``force`` = (edge_grad x/y/z tuple, candidate mask, center),
    cos_gamma_mean over the front's voxels).  ``params`` supplies alpha,
    beta, max_iters, reinit_every, stop_tol and the resolved time step
    ``dt``."""
    phi = np.array(phi, dtype=np.float64)
    dims = phi.shape
    dt = params.dt
    use_advection = force is not None and params.beta > 0
    if use_advection:
        ex, ey, ez = _force_ref(*force, spacing, dims)
        vx, vy, vz = params.beta * ex, params.beta * ey, params.beta * ez
    log = []
    prev_inside = int((phi < 0).sum())
    done = 0
    while done < params.max_iters:
        with np.errstate(over="ignore", invalid="ignore"):
            curv, (px, py, pz) = _curvature_ref(phi, spacing)
            update = params.alpha * curv
            if use_advection:
                update = update - _advection_ref(phi, (vx, vy, vz), spacing)
            phi = phi + dt * update
        done += 1
        max_update = float(np.abs(update).max()) * dt
        if done % params.reinit_every == 0 or done == params.max_iters:
            phi = _reinitialize_ref(phi, spacing)
            inside = int((phi < 0).sum())
            record = {"iteration": done, "inside": inside, "max_update": max_update}
            if force is not None:
                record["cos_gamma_mean"] = _cos_gamma_ref(px, py, pz, force[2], spacing, phi)
            log.append(record)
            if abs(inside - prev_inside) / max(prev_inside, 1) < params.stop_tol:
                break
            prev_inside = inside
    return phi, log


def _front_boxes_ref(phi, window, pads):
    """The update box, the bounding box of the front's voxels
    (_interface_ref) in ``window`` grown by pads[axis], or the whole grid
    when there are none, and that box plus a 2-voxel halo, both clipped to
    the grid."""
    dims = phi.shape
    front = np.argwhere(_interface_ref(phi[window]))
    if front.size == 0:
        core = tuple(slice(0, n) for n in dims)
    else:
        offset = [w.start for w in window]
        lo, hi = front.min(axis=0) + offset, front.max(axis=0) + 1 + offset
        core = tuple(
            slice(max(int(a) - p, 0), min(int(b) + p, n)) for a, b, p, n in zip(lo, hi, pads, dims)
        )
    outer = tuple(slice(max(c.start - 2, 0), min(c.stop + 2, n)) for c, n in zip(core, dims))
    return core, outer


def evolve_box_oracle(ls, ctx, params, log=None):
    """fvfseg.fvf3d.evolve's loop in its plainer form, for bitwise parity:
    each step runs _speed on the whole stencil box ``outer`` (the update box
    plus a 2-voxel halo) with fresh arrays, the checkpoint's cos_gamma
    reads the gradient that _speed returned, and phi is rebuilt on the next
    ``outer`` before each segment but the first.  The update box reaches
    ceil(band / spacing) voxels past the front's bounding box, band being
    ls.band_halfwidth voxels of the coarsest axis, plus the travel margin.
    Arguments, log records and the returned field are evolve's."""
    from fvfseg import fvf3d
    from fvfseg.errors import NumericalInstabilityError
    from fvfseg.volume import ScalarVolume

    spacing = ls.phi.spacing
    dims = ls.phi.dims
    dt = params.resolve_dt(spacing)
    phi = np.array(ls.phi.data, dtype=np.float64)
    window = ls.window
    band = max(spacing) * ls.band_halfwidth
    pads = [math.ceil(band / s) + p for s, p in zip(spacing, params.travel_pads(spacing, dims))]
    core, outer = _front_boxes_ref(phi, window, pads)
    inner = fvf3d._relative(core, outer)
    if not fvf3d._contains(window, outer):
        raise ValueError("the first box leaves the window")

    use_advection = ctx is not None and params.beta > 0
    velocity = None
    force_box = None

    prev_inside = int(np.count_nonzero(phi[window] < 0))
    runaway = fvf3d._RUNAWAY_BANDS * ls.band_halfwidth * max(spacing)
    max_update = 0.0
    done = 0
    while done < params.max_iters:
        if use_advection and force_box != outer:
            force = fvf3d._force_field(ctx, outer)
            for v in force:
                v *= params.beta
            velocity = fvf3d._upwind_parts(force)
            del force
            force_box = outer
        with np.errstate(over="ignore", invalid="ignore"):
            update, (px, py, pz) = fvf3d._speed(
                phi[outer], spacing, params.alpha, velocity, fvf3d._Workspace(phi[outer].shape)
            )
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
            now_inside = phi[window] < 0
            inside = int(np.count_nonzero(now_inside))
            if log is not None:
                record = {
                    "iteration": ls.iteration + done,
                    "inside": inside,
                    "changed": int(np.count_nonzero(now_inside != (ls.phi.data[window] < 0))),
                    "max_update": max_update,
                }
                if ctx is not None:
                    record["cos_gamma_mean"] = fvf3d._cos_gamma_stats(
                        px, py, pz, ctx, phi[outer], outer
                    )
                log.append(record)
            if abs(inside - prev_inside) / max(prev_inside, 1) < params.stop_tol:
                break
            prev_inside = inside
            if done < params.max_iters:
                core, outer = _front_boxes_ref(phi, window, pads)
                inner = fvf3d._relative(core, outer)
                window = tuple(
                    slice(min(w.start, o.start), max(w.stop, o.stop)) for w, o in zip(window, outer)
                )
                phi[outer] = fvf3d.reinitialize(
                    fvf3d.LevelSetField(
                        ScalarVolume(phi[outer], spacing), ls.iteration + done, ls.band_halfwidth
                    )
                ).phi.data

    return fvf3d.LevelSetField(
        ScalarVolume(phi, spacing), ls.iteration + done, ls.band_halfwidth, window
    )
