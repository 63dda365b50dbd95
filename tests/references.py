"""The slow paths that faster ones replaced, kept as the references of
their equivalence tests:

* ``bisect_u_array``: the bisection of the LP characteristic equation,
  which the safeguarded Newton iteration ``dispersion._solve_u_array``
  replaced;
* ``serial_centers``: the bisection of the phase-matched centers, one
  index solve per halving, which the one index solve on each bracket's
  dyadic points in ``processes.phasematched_centers`` replaced;
* ``serial_overlaps``: the four-field overlaps solved channel by channel,
  one LP solve and one radial profile per field, which the one solve and
  one profile pass per LP order over the distinct fields of all channels
  in ``fields.process_overlap`` replaced;
* ``union_support_fit``: the lobe fit with every lobe on the union of the
  peeled lobes' supports and a whole-grid peel, which the coarse pass and
  the fit of each lobe on its own nodes in ``spectrum.fit_lobes``
  replaced;
* ``block_scan_peel``: the peel that formed the unexplained grid from the
  earlier lobes only where it read it, in blocks of rows for the maximum
  and on the crop through it, which the one residual grid of
  ``spectrum._peel`` replaced.
* ``fused_jsa_grid``: the JSI that formed each row block's pump envelope,
  index solve and weighted channel products itself, which ``jsa_grid``
  reading the amplitude source ``estimation.model_amplitudes`` replaced.
* ``cached_intensity_image``: the mode image superposed from per-mode
  profiles cached across calls, each normalized with the grid's cell
  area, then renormalized, which the one basis solve of
  ``fields.basis_fields`` and the superposition of ``intensity_image``
  replaced.

Each calls the package's kernels through their modules, so a test can
swap those too.
"""

from functools import lru_cache

import numpy as np

from fwmpairs import dispersion, fields, spectrum
from fwmpairs.config import GaussianLobe, ModeSuperposition
from fwmpairs.errors import ConfigError, DomainError, NumericError
from fwmpairs.processes import (SCAN_STEP_NM, BaseIndexCache,
                                _energy_partner_nm)


# ---------------------------------------------------------------------------
# the LP characteristic equation

def bisect_u_array(v, azimuthal, width=1e-13):
    """Bracketed bisection for u * J_{l+1}(u)/J_l(u) = w * K_{l+1}(w)/K_l(w)
    with w = sqrt(V^2 - u^2), on the fundamental branch of each label.
    Each point stops once its own bracket is narrower than ``width`` (the
    replaced solver's 1e-13), or after 120 halvings; ``width`` 0 runs
    every point to the floating-point limit of its bracket."""
    l = azimuthal
    if l == 0:
        lo = np.full_like(v, 1e-9)
        hi = np.minimum(v, dispersion._J0_ZERO) * (1 - 1e-12) - 1e-12
    else:
        lo = np.full_like(v, dispersion._J0_ZERO + 1e-12)
        hi = np.minimum(v, dispersion._J1_ZERO) - 1e-12

    def resid(u):
        w = np.sqrt(np.maximum(v**2 - u**2, 1e-300))
        j_l, j_next = dispersion._bessel_j_orders((l, l + 1), u)
        k_l, k_next = dispersion._bessel_k_orders((l, l + 1), w)
        return u * j_next / j_l - w * k_next / k_l

    f_lo = resid(lo)
    for _ in range(120):
        open_ = hi - lo >= width
        if not np.any(open_):
            break
        mid = 0.5 * (lo + hi)
        f_mid = resid(mid)
        same = np.signbit(f_mid) == np.signbit(f_lo)
        lo = np.where(open_ & same, mid, lo)
        f_lo = np.where(open_ & same, f_mid, f_lo)
        hi = np.where(open_ & ~same, mid, hi)
    return 0.5 * (lo + hi)


def bisect_n_eff(fiber, lam, azimuthal, width=1e-13):
    """Effective index from the bisection root."""
    u = bisect_u_array(dispersion.v_number(fiber, lam), azimuthal, width)
    k = 2.0 * np.pi / lam
    return np.sqrt(dispersion.core_index(fiber, lam) ** 2
                   - (u / (k * fiber.core_radius_um)) ** 2)


# ---------------------------------------------------------------------------
# the phase-matched centers

def serial_centers(processes, fiber, lam_p_nm, band_i_nm):
    """``processes.phasematched_centers`` with its brackets bisected
    together, one BaseIndexCache per halving, each bracket until it is
    at most 1e-5 nm wide."""
    lo_nm, hi_nm = band_i_nm
    grid_i = np.arange(lo_nm, hi_nm + 0.5 * SCAN_STEP_NM, SCAN_STEP_NM)
    grid_s = _energy_partner_nm(lam_p_nm, grid_i)
    scan = BaseIndexCache(fiber, grid_s / 1000.0, grid_i / 1000.0)
    out, unmatched = {}, {}
    bracketed, first = [], []
    for process in processes:
        dk = scan.delta_k(process)
        sign = np.sign(dk)
        crossings = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        exact = np.nonzero(dk == 0.0)[0]
        if len(exact):
            li = float(grid_i[exact[0]])
            out[process.label] = float(_energy_partner_nm(lam_p_nm, li)), li
        elif len(crossings) == 0:
            unmatched[process.label] = (
                f"process {process.label} not phase matched in band "
                f"[{lo_nm}, {hi_nm}] nm: delta_k in "
                f"[{dk.min():.6g}, {dk.max():.6g}] 1/m")
        else:
            out[process.label] = None
            bracketed.append(process)
            first.append(crossings[0])
    if not bracketed:
        return out, unmatched

    def dk_at(channels, li_nm):
        cache = BaseIndexCache(fiber,
                               _energy_partner_nm(lam_p_nm, li_nm) / 1000.0,
                               li_nm / 1000.0)
        return np.array([cache.delta_k(bracketed[c])[j]
                         for j, c in enumerate(channels)])

    first = np.array(first, dtype=int)
    lo, hi = grid_i[first], grid_i[first + 1]
    f_lo = dk_at(range(len(bracketed)), lo)
    while True:
        open_ = np.flatnonzero(hi - lo > 1e-5)
        if not open_.size:
            break
        mid = 0.5 * (lo[open_] + hi[open_])
        f_mid = dk_at(open_, mid)
        same = np.sign(f_mid) == np.sign(f_lo[open_])
        lo[open_[same]] = mid[same]
        f_lo[open_[same]] = f_mid[same]
        hi[open_[~same]] = mid[~same]
    for process, lam_i in zip(bracketed, 0.5 * (lo + hi)):
        lam_s = float(_energy_partner_nm(lam_p_nm, lam_i))
        out[process.label] = lam_s, float(lam_i)
    return out, unmatched


# ---------------------------------------------------------------------------
# the mode overlaps

def serial_overlaps(fiber, processes, lam_p_nm, centers):
    """``fields.process_overlap`` with each channel's four fields solved
    and profiled one at a time."""
    rho, unit_weights = fields._radial_rule(fields.RADIAL_NODES)
    weights = fiber.core_radius_um**2 * unit_weights
    out = {}
    for process in processes:
        lam_s_nm, lam_i_nm = centers[process.label]
        product = np.ones_like(rho)
        cos_power = sin_power = 0
        for mode, lam_nm in ((process.t_p1, lam_p_nm),
                             (process.t_p2, lam_p_nm),
                             (process.t_s, lam_s_nm),
                             (process.t_i, lam_i_nm)):
            m, n = fields._AZIMUTH_POWERS[mode]
            u, w = dispersion.solve_lp_mode(
                fiber, lam_nm / 1000.0, "LP01" if mode == "g" else "LP11")
            radial = fields._radial_profile(u, w, m + n, rho)
            azimuth_norm = fields._AZIMUTH_INTEGRALS[(2 * m, 2 * n)]
            norm = np.sqrt(np.dot(weights, radial**2) * azimuth_norm)
            product *= radial / norm
            cos_power += m
            sin_power += n
        azimuth = fields._AZIMUTH_INTEGRALS.get((cos_power, sin_power), 0.0)
        exchange = 1.0 if process.pump_mode_degenerate else 2.0
        out[process.label] = complex(exchange * azimuth
                                     * np.dot(weights, product))
    return out


# ---------------------------------------------------------------------------
# the mode images

@lru_cache(maxsize=1)  # the e and o profiles, built in turn, share it
def _radial_on_grid(fiber, lam_um, lp_label, grid):
    """The grid's x (one row) and y (one column), the radius r and the LP
    radial profile at r."""
    u, w = dispersion.solve_lp_mode(fiber, lam_um, lp_label)
    x, y, _ = grid.axes()
    xx, yy = np.meshgrid(x, y, indexing="xy", sparse=True)
    r = np.hypot(xx, yy)
    radial = fields._radial_profile(u, w, 0 if lp_label == "LP01" else 1,
                                    r / fiber.core_radius_um)
    return xx, yy, r, radial


@lru_cache(maxsize=3)  # one per basis mode g, e, o
def _basis_profile(fiber, lam_um, mode, grid):
    """Un-normalized LP mode profile sampled on ``grid``."""
    xx, yy, r, radial = _radial_on_grid(fiber, lam_um,
                                        "LP01" if mode == "g" else "LP11",
                                        grid)
    if mode == "g":
        azim = 1.0
    elif mode == "e":
        azim = np.where(r > 0, xx / np.maximum(r, 1e-300), 1.0)  # cos(phi)
    else:
        azim = np.where(r > 0, yy / np.maximum(r, 1e-300), 0.0)  # sin(phi)
    return radial * azim


def _cached_mode_field(fiber, lam_um, state, grid):
    """The field of ``state``: each cached profile normalized with the
    cell area, superposed, and the sum renormalized."""
    step = grid.axes()[2]
    cell_area = step * step
    total = np.zeros((grid.resolution, grid.resolution), dtype=complex)
    for mode, amp in state.amplitudes.items():
        prof = _basis_profile(fiber, lam_um, mode, grid)
        norm = np.sqrt(np.sum(prof**2) * cell_area)
        total += amp * prof / norm
    return total / np.sqrt(np.sum(np.abs(total) ** 2) * cell_area)


def cached_intensity_image(fiber, lam_um, state, grid):
    """``fields.intensity_image`` of a ModeSuperposition or a list of
    (weight, state) pairs, each field from ``_cached_mode_field``."""
    if isinstance(state, ModeSuperposition):
        img = np.abs(_cached_mode_field(fiber, lam_um, state, grid)) ** 2
    else:
        if abs(sum(w for w, _ in state) - 1.0) > 1e-9:
            raise ConfigError("mixture weights must sum to 1")
        img = np.zeros((grid.resolution, grid.resolution))
        for w, st in state:
            img += w * np.abs(_cached_mode_field(fiber, lam_um, st,
                                                 grid)) ** 2
    peak = img.max()
    if peak > 0:
        img = img / peak
    return img


# ---------------------------------------------------------------------------
# the joint spectral intensity

def fused_jsa_grid(processes, fiber, pump, weights, grid):
    """``spectrum.jsa_grid`` with c_j * alpha * phi_j formed in its own
    row blocks of at most ``spectrum._JSA_BLOCK`` nodes: each block's
    pump envelope and index solve, the weighted channel products summed
    over each output pair before squaring.  Returns the ``JsiGrid``."""
    if not processes:
        raise DomainError("jsa_grid needs at least one process")
    ls, li = grid.axes()
    groups = {}
    for proc in processes:
        c_j = weights.get(proc.label, 0j)
        if c_j != 0:
            groups.setdefault((proc.t_s, proc.t_i), []).append((c_j, proc))

    combined = np.zeros((len(ls), len(li)))
    mesh_i = li[None, :]
    rows = max(1, spectrum._JSA_BLOCK // len(li))
    for start in range(0, len(ls), rows):
        mesh_s = ls[start:start + rows, None]
        alpha = spectrum.pump_envelope(mesh_s, mesh_i, pump)
        cache = BaseIndexCache(fiber, mesh_s / 1000.0, mesh_i / 1000.0)
        block = combined[start:start + rows]
        for group in groups.values():
            coherent = sum(c_j * alpha * cache.phase_matching(proc)
                           for c_j, proc in group)
            block += np.abs(coherent) ** 2
    raw_integral = float(combined.sum()) * (ls[1] - ls[0]) * (li[1] - li[0])
    if raw_integral <= 0:
        raise NumericError("joint spectrum vanishes on the whole grid")
    combined /= raw_integral
    return spectrum.JsiGrid(lambda_s_axis=ls, lambda_i_axis=li,
                            combined=combined, normalization=raw_integral)


# ---------------------------------------------------------------------------
# the lobe fit

def distances2(q, xs, yi):
    """Squared Mahalanobis distance of the nodes to each lobe of the
    natural parameters ``q``, one array per lobe."""
    for amp, x0, y0, sa, sb, th in np.reshape(q, (-1, 6)):
        ct, st = np.cos(th), np.sin(th)
        dx = xs - x0
        dy = yi - y0
        with np.errstate(over="ignore"):
            yield (((ct * dx + st * dy) / sa) ** 2
                   + ((-st * dx + ct * dy) / sb) ** 2)


# Nodes per block of rows in which ``block_scan_peel`` looks for the next
# maximum
PEEL_BLOCK = 8192


def block_scan_peel(intensity, ls, li, n):
    """``spectrum._peel`` with the unexplained grid formed only where it
    is read: in blocks of rows of at most ``PEEL_BLOCK`` nodes for its
    maximum, and on the column, the row and the crop through that
    maximum.  Each earlier lobe is subtracted on its nodes in turn, and
    what is left clamped at 0 there."""
    n_s, n_i = intensity.shape
    params, windows, peeled = [], [], []  # peeled: each lobe on its nodes

    def unexplained(rows, cols):
        out = intensity[rows, cols].copy()
        for nodes, values in zip(windows, peeled):
            a, b = np.searchsorted(nodes, (rows.start * n_i, rows.stop * n_i))
            r, c = np.divmod(nodes[a:b], n_i)
            keep = (cols.start <= c) & (c < cols.stop)
            at = r[keep] - rows.start, c[keep] - cols.start
            out[at] = np.maximum(out[at] - values[a:b][keep], 0.0)
        return out

    def around(at, half, size):
        return slice(max(0, at - half), min(size, at + half + 1))

    floor = min(ls[1] - ls[0], li[1] - li[0])
    step = max(1, PEEL_BLOCK // n_i)
    for k in range(n):
        peak, r, col = -np.inf, 0, 0
        for start in range(0, n_s, step):
            block = unexplained(slice(start, min(n_s, start + step)),
                                slice(0, n_i))
            j = int(np.argmax(block))
            if block.flat[j] > peak:
                peak = block.flat[j]
                r, col = divmod(start * n_i + j, n_i)
        if peak <= 0:
            raise NumericError(
                f"found only {k} positive maxima for {n} requested lobes")
        widths = spectrum._half_widths(
            unexplained(slice(0, n_s), slice(col, col + 1))[:, 0],
            unexplained(slice(r, r + 1), slice(0, n_i))[0], r, col)
        rows = around(r, 3 * widths[0], n_s)
        cols = around(col, 3 * widths[1], n_i)
        crop = unexplained(rows, cols)
        seed = spectrum._seed_at(crop, ls[rows], li[cols], r - rows.start,
                                 col - cols.start, widths, floor)
        p, _, _ = spectrum._least_squares(spectrum._to_log(seed), crop,
                                          ls[rows, None], li[None, cols],
                                          (ls, li))
        params += list(p)
        nodes = spectrum._window(spectrum._from_log(p), ls, li,
                                 spectrum.SUPPORT_RADIUS**2)
        windows.append(nodes)
        peeled.append(spectrum._lobe_model(spectrum._from_log(p),
                                           ls[nodes // n_i], li[nodes % n_i]))
    return params


def _half_widths(image, r, col):
    half = 0.5 * image[r, col]
    widths = []
    for profile, at in ((image[:, col], r), (image[r, :], col)):
        dist = np.abs(np.flatnonzero(profile <= half) - at)
        widths.append(max(int(dist.min()), 1) if dist.size else len(profile))
    return widths


def _seed_at(image, ls, li, r, col):
    hw_s, hw_i = _half_widths(image, r, col)
    rows = slice(max(0, r - 2 * hw_s), r + 2 * hw_s + 1)
    cols = slice(max(0, col - 2 * hw_i), col + 2 * hw_i + 1)
    w = np.maximum(image[rows, cols], 0.0)
    dx = ls[rows, None] - ls[r]
    dy = li[None, cols] - li[col]
    total = w.sum()
    cxx, cxy, cyy = ((w * a * b).sum() / total if total > 0 else 0.0
                     for a, b in ((dx, dx), (dx, dy), (dy, dy)))
    th = 0.5 * np.arctan2(2.0 * cxy, cxx - cyy)
    ct, st = np.cos(th), np.sin(th)
    var_a = ct * ct * cxx + 2.0 * ct * st * cxy + st * st * cyy
    var_b = st * st * cxx - 2.0 * ct * st * cxy + ct * ct * cyy
    floor = min(ls[1] - ls[0], li[1] - li[0])
    amp = max(float(image[r, col]), 1e-12 * float(image.max()))
    return [amp, float(ls[r]), float(li[col]), max(np.sqrt(var_a), floor),
            max(np.sqrt(max(var_b, 0.0)), floor), float(th)]


def whole_grid_peel(intensity, ls, li, n):
    """The peel on a copy of the whole grid, each lobe subtracted on
    every node and what is left clamped at 0."""
    residual = intensity.copy()
    params = []
    for k in range(n):
        r, col = np.unravel_index(int(np.argmax(residual)), residual.shape)
        if residual[r, col] <= 0:
            raise NumericError(
                f"found only {k} positive maxima for {n} requested lobes")
        hw_s, hw_i = _half_widths(residual, r, col)
        rows = slice(max(0, r - 3 * hw_s), r + 3 * hw_s + 1)
        cols = slice(max(0, col - 3 * hw_i), col + 3 * hw_i + 1)
        seed = _seed_at(residual, ls, li, r, col)
        p, _, _ = spectrum._least_squares(
            spectrum._to_log(seed), residual[rows, cols], ls[rows, None],
            li[None, cols], (ls, li))
        params += list(p)
        residual = np.maximum(
            residual - spectrum._lobe_model(spectrum._from_log(p),
                                            ls[:, None], li[None, :]), 0.0)
    return params


def union_support_fit(lam_s_axis, lam_i_axis, intensity, n_lobes):
    """``spectrum.fit_lobes`` with the whole-grid peel, every lobe fitted
    on the union of the peeled lobes' supports, the leak checked outside
    that union and the R^2 model on the whole grid."""
    intensity = np.asarray(intensity, dtype=float)
    ls = np.asarray(lam_s_axis, dtype=float)
    li = np.asarray(lam_i_axis, dtype=float)
    xs, yi = ls[:, None], li[None, :]
    p = np.asarray(whole_grid_peel(intensity, ls, li, n_lobes))
    shape = intensity.shape
    support = np.zeros(shape, dtype=bool)
    for d2 in distances2(spectrum._from_log(p), xs, yi):
        support |= d2 <= spectrum.SUPPORT_RADIUS**2
    p, _, nfev = spectrum._least_squares(
        p, intensity[support], np.broadcast_to(xs, shape)[support],
        np.broadcast_to(yi, shape)[support], (ls, li))
    leak = -2.0 * np.log(spectrum._LEAK_FRACTION)
    if any(np.any(d2[~support] < leak)
           for d2 in distances2(spectrum._from_log(p), xs, yi)):
        p, _, more = spectrum._least_squares(p, intensity, xs, yi, (ls, li))
        nfev += more
    lobes = []
    denom_total = float(((intensity - intensity.mean()) ** 2).sum())
    fitted = spectrum._canonical_params(spectrum._from_log(p))
    res_grid = spectrum._lobe_model(fitted, xs, yi) - intensity
    for (amp, x0, y0, sa, sb, th), d2 in zip(
            np.reshape(fitted, (-1, 6)),
            distances2(fitted, xs, yi)):
        mask = d2 <= 9.0
        data = intensity[mask]
        denom = float(((data - data.mean()) ** 2).sum())
        r2 = 1.0 - float((res_grid[mask] ** 2).sum()) / denom \
            if denom > 0 else float("nan")
        lobes.append(GaussianLobe(
            center_s_nm=float(x0), center_i_nm=float(y0),
            sigma_major_nm=float(sa), sigma_minor_nm=float(sb),
            orientation_rad=float(th), amplitude=float(amp),
            r_squared=r2))
    lobes.sort(key=lambda lb: lb.center_i_nm)
    r2_global = 1.0 - float((res_grid**2).sum()) / denom_total \
        if denom_total > 0 else float("nan")
    return spectrum.LobeFit(lobes=lobes,
                            residual_norm=float(np.linalg.norm(res_grid)),
                            r_squared=r2_global, iterations=int(nfev))
