"""Joint spectral intensities and 2-D lobe fits.

``jsa_grid`` squares the channel amplitudes c_j * alpha * phi_j that
``estimation.model_amplitudes`` forms, with alpha the pump envelope
(``pump_envelope``): processes with the same output mode pair add
coherently before squaring, distinct pairs in intensity.  This module
loads no fiber-model module.

Lobes are fitted as sums of elliptical Gaussians by a numpy
Levenberg-Marquardt iteration on the analytic Jacobian: peeled and
fitted jointly on a coarse subgrid, then refined on the full grid, each
lobe on its own nodes (``fit_lobes``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import C_LIGHT, GaussianLobe, PumpSpec, SpectralGrid
from .errors import DomainError, NumericError

_TWO_PI = 2.0 * np.pi


def _omega(lam_nm):
    return _TWO_PI * C_LIGHT / (np.asarray(lam_nm, dtype=float) * 1e-9)


def pump_envelope(lam_s_nm, lam_i_nm, pump: PumpSpec) -> np.ndarray:
    """Two-pump spectral envelope amplitude, peak 1 on the energy surface.

    Gaussian in nu = omega_s + omega_i - 2 omega_p with amplitude
    exp(-nu^2 / (8 sigma^2)); the envelope intensity has variance
    2 sigma^2, i.e. sqrt(2) times the single-pump intensity width.
    """
    nu = _omega(lam_s_nm) + _omega(lam_i_nm) - 2.0 * pump.omega_p
    var = 8.0 * pump.sigma_omega**2
    if var == 0.0:  # a pump FWHM below about 1e-175 nm: a line at nu = 0
        return (nu == 0.0).astype(float)
    # below about 1e-152 nm the quotient overflows on the default grid,
    # where the envelope is 0
    with np.errstate(over="ignore"):
        return np.exp(-(nu**2) / var)


@dataclass
class JsiGrid:
    """Combined joint spectral intensity on a wavelength grid.

    ``combined[r, c]`` is the intensity at (lambda_s_axis[r],
    lambda_i_axis[c]); it sums processes with identical output modes
    coherently and distinct output modes in intensity, and integrates to
    1 over the grid.
    """

    lambda_s_axis: np.ndarray
    lambda_i_axis: np.ndarray
    combined: np.ndarray
    normalization: float  # raw intensity integral before scaling


# Nodes per row block of jsa_grid (at least one row): a block holds the
# channel amplitudes and their complex sums of its own nodes only, never
# of the whole grid.
_JSA_BLOCK = 8192


def jsa_grid(amplitudes, processes, grid: SpectralGrid) -> JsiGrid:
    """Combined intensity of the per-process JSAs on a grid.

    ``amplitudes(lam_s[:, None], lam_i[None, :])`` returns a dict from
    labels of ``processes`` to the complex amplitudes over the mesh (nm),
    as ``estimation.model_amplitudes`` does.  The amplitudes of the
    processes sharing an output mode pair (T_s, T_i) are summed before
    squaring, and the pairs add in intensity.  The grid is filled one
    block of rows of at most ``_JSA_BLOCK`` nodes at a time, each from its
    own call of ``amplitudes``, so no whole-grid temporary is held beside
    the result; a node's value does not depend on the block it falls in.
    The grid is normalized so the combined intensity integrates to 1.
    """
    if not processes:
        raise DomainError("jsa_grid needs at least one process")
    pairs = {proc.label: (proc.t_s, proc.t_i) for proc in processes}
    ls, li = grid.axes()
    combined = np.zeros((len(ls), len(li)))
    rows = max(1, _JSA_BLOCK // len(li))
    for start in range(0, len(ls), rows):
        coherent = {}
        for label, amp in amplitudes(ls[start:start + rows, None],
                                     li[None, :]).items():
            pair = pairs[label]
            coherent[pair] = coherent.get(pair, 0) + amp
        block = combined[start:start + rows]
        for amp in coherent.values():
            block += np.abs(amp) ** 2
    # summed over the whole grid, in numpy's pairwise order
    raw_integral = float(combined.sum()) * (ls[1] - ls[0]) * (li[1] - li[0])
    if raw_integral <= 0:
        raise NumericError("joint spectrum vanishes on the whole grid")
    combined /= raw_integral
    return JsiGrid(lambda_s_axis=ls, lambda_i_axis=li, combined=combined,
                   normalization=raw_integral)


@dataclass
class LobeFit:
    """Fitted lobes in ascending idler center, with the residual norm and
    R^2 taken over the whole grid.  ``iterations`` counts the model
    evaluations of the coarse joint fit and the fine one, not steps."""

    lobes: list
    residual_norm: float
    r_squared: float
    iterations: int


def _lobe_model(params: np.ndarray, xs, yi, groups=None) -> np.ndarray:
    """Sum of elliptical Gaussians (``GaussianLobe.evaluate``); six
    natural parameters per lobe.  With ``groups``, pairs of a slice of
    the 1-D nodes ``xs``, ``yi`` and the indices of the lobes that live
    there, each lobe is evaluated on its own groups only."""
    q = np.reshape(params, (-1, 6))
    out = np.zeros(np.broadcast_shapes(xs.shape, yi.shape))
    if groups is None:
        groups = [(slice(None), np.arange(len(q)))]
    for at, lobes in groups:
        for amp, x0, y0, sa, sb, th in q[lobes]:
            out[at] += GaussianLobe(x0, y0, sa, sb, th, amp).evaluate(
                xs[at], yi[at])
    return out


# Evaluation budget of one least-squares fit, per fitted parameter.
MAX_EVALS_PER_PARAM = 200
# Levenberg-Marquardt: convergence tolerance, starting damping, the floor
# of the damping (Gauss-Newton to within the tolerance), and its cap, past
# which no step has lowered the cost and the fit stops.
_LM_TOL = 1e-12
_LM_DAMPING0 = 1e-3
_LM_DAMPING_FLOOR = 1e-12
_LM_DAMPING_CAP = 1e10

# The optimizer sees each lobe's amplitude and two sigmas as logarithms,
# so every value it can reach maps to a positive amplitude and width.
_LOG_SLOTS = [0, 3, 4]


def _from_log(p: np.ndarray) -> np.ndarray:
    q = np.array(p, dtype=float).reshape(-1, 6)
    q[:, _LOG_SLOTS] = np.exp(q[:, _LOG_SLOTS])
    return q.ravel()


def _to_log(q: np.ndarray) -> np.ndarray:
    p = np.array(q, dtype=float).reshape(-1, 6)
    p[:, _LOG_SLOTS] = np.log(p[:, _LOG_SLOTS])
    return p.ravel()


def _lobe_jacobian(p: np.ndarray, xs, yi, lobes=None) -> np.ndarray:
    """Analytic Jacobian of the lobe-sum model in the log parameters,
    one row per parameter of the ``lobes`` given (default all)."""
    q = np.reshape(_from_log(p), (-1, 6))
    if lobes is None:
        lobes = np.arange(len(q))
    shape = np.broadcast_shapes(xs.shape, yi.shape)
    rows = np.empty((6 * len(lobes), int(np.prod(shape))))
    for k, (amp, x0, y0, sa, sb, th) in enumerate(q[lobes]):
        ct, st = np.cos(th), np.sin(th)
        dx = xs - x0
        dy = yi - y0
        u = np.broadcast_to(ct * dx + st * dy, shape).ravel()
        v = np.broadcast_to(-st * dx + ct * dy, shape).ravel()
        us, vs = u / sa**2, v / sb**2
        base = amp * np.exp(-0.5 * (u * us + v * vs))
        rows[6 * k + 0] = base
        rows[6 * k + 1] = base * (ct * us - st * vs)
        rows[6 * k + 2] = base * (st * us + ct * vs)
        rows[6 * k + 3] = base * u * us
        rows[6 * k + 4] = base * v * vs
        rows[6 * k + 5] = base * (u * vs - v * us)
    return rows


# Nodes per slice of the Jacobian in the normal equations: a step holds
# one 6 x lobes x _JAC_BLOCK slice at a time, never the rows on all nodes.
_JAC_BLOCK = 4096


def _normal_equations(p: np.ndarray, xs: np.ndarray, yi: np.ndarray,
                      r: np.ndarray, groups=None):
    """J J^T and J r for the rows J of ``_lobe_jacobian`` at the log
    parameters ``p`` on the 1-D nodes ``xs``, ``yi``, with the residual
    ``r``: every lobe on every node, or each on its own ``groups`` (see
    ``_lobe_model``), summed over slices of at most ``_JAC_BLOCK`` nodes
    of a group."""
    normal = np.zeros((len(p), len(p)))
    grad = np.zeros(len(p))
    if groups is None:
        groups = [(slice(0, len(xs)), np.arange(len(p) // 6))]
    for at, lobes in groups:
        rows = (6 * np.asarray(lobes)[:, None] + np.arange(6)).ravel()
        for start in range(at.start, at.stop, _JAC_BLOCK):
            blk = slice(start, min(start + _JAC_BLOCK, at.stop))
            jac = _lobe_jacobian(p, xs[blk], yi[blk], lobes)
            normal[np.ix_(rows, rows)] += jac @ jac.T
            grad[rows] += jac @ r[blk]
    return normal, grad


def _check_lobes(p: np.ndarray, ls: np.ndarray, li: np.ndarray) -> None:
    """Raise when a lobe of the log parameters ``p`` has an amplitude or
    sigma at 0 or infinity, is centred off the grid with axes ``ls`` and
    ``li``, or has a sigma wider than the wider axis span."""
    q = _from_log(p).reshape(-1, 6)
    positive = q[:, _LOG_SLOTS]
    if not np.all((positive > 0) & np.isfinite(positive)):
        raise NumericError("lobe fit drove an amplitude or sigma to 0 or "
                           "infinity")
    span = max(np.ptp(ls), np.ptp(li))
    for amp, x0, y0, sa, sb, th in q:
        if not (ls.min() <= x0 <= ls.max() and li.min() <= y0 <= li.max()):
            raise NumericError(f"lobe fit moved a center off the grid, to "
                               f"({x0:.3f}, {y0:.3f}) nm")
        if max(sa, sb) > span:
            raise NumericError(f"lobe fit spread a lobe at ({x0:.3f}, "
                               f"{y0:.3f}) nm to sigma {max(sa, sb):.3e} nm, "
                               f"wider than the grid span {span:.3f} nm")


def _least_squares(p0, data, xs, yi, grid, groups=None, rest=0.0):
    """Levenberg-Marquardt fit of the lobe sum to ``data``, in the log
    parameters (More, Lecture Notes in Mathematics 630, 1978).

    Each step solves the normal equations (J J^T + mu diag(J J^T)) s = -J r
    of the rows J of ``_lobe_jacobian``, which ``_normal_equations`` sums
    over slices of ``_JAC_BLOCK`` nodes of the flattened ``xs``, ``yi``
    (any shapes that broadcast to the shape of ``data``), so no step holds
    J on all nodes at once.  With ``groups`` (see ``_lobe_model``) each
    lobe of the model and of J lives on its own groups of the flattened
    nodes only.  The cost is the residual's sum of squares plus ``rest``,
    that of the data on nodes left out, where the model is taken as 0, so
    a fit on part of a grid stops where the fit on all of it would.  A
    step that lowers the cost is taken and divides the damping mu by 10,
    one that does not multiplies it by 10.  Converges when the relative
    cost reduction, actual and predicted, the relative scaled step, or
    the largest cosine between the residual and a Jacobian row falls to
    ``_LM_TOL``.  Returns (parameters, residual vector, evaluations).
    Every step taken must pass ``_check_lobes`` on ``grid``, the (signal,
    idler) axes; raises when one does not, when the damping passes
    ``_LM_DAMPING_CAP`` without lowering the cost, or when
    ``MAX_EVALS_PER_PARAM`` evaluations per parameter do not converge."""
    target = np.ravel(data)
    xs, yi = (np.ravel(a) for a in np.broadcast_arrays(xs, yi))

    def resid(p):
        return _lobe_model(_from_log(p), xs, yi, groups) - target

    budget = MAX_EVALS_PER_PARAM * len(p0)
    # A diverging trial step can overflow exp() or zero a sigma; its cost
    # is then inf or nan and the step is rejected, and _check_lobes raises
    # on a step taken that carries one, so the fit raises instead of
    # warning.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = np.asarray(p0, dtype=float)
        r = resid(p)
        cost = float(r @ r) + rest
        nfev = 1
        damping = _LM_DAMPING0
        converged = cost == 0.0
        while not converged:
            normal, grad = _normal_equations(p, xs, yi, r, groups)
            scale = np.diag(normal).copy()
            scale[~(scale > 0)] = 1.0
            if np.max(np.abs(grad) / np.sqrt(scale * cost)) <= _LM_TOL:
                break
            while True:
                if nfev >= budget:
                    raise NumericError(
                        f"lobe fit did not converge in {nfev} evaluations; "
                        f"last residual norm {np.sqrt(cost):.3e}")
                if damping > _LM_DAMPING_CAP:
                    raise NumericError(
                        f"lobe fit stalled: no step lowers the residual "
                        f"norm {np.sqrt(cost):.3e} after {nfev} "
                        f"evaluations")
                # J J^T plus a damping of at least _LM_DAMPING_FLOOR
                # times its diagonal, every scale > 0: positive definite
                step = np.linalg.solve(normal + damping * np.diag(scale),
                                       -grad)
                r_trial = resid(p + step)
                nfev += 1
                cost_trial = float(r_trial @ r_trial) + rest
                step_norm2 = float(step @ (scale * step))
                # relative cost reductions, actual and predicted
                actual = 1.0 - cost_trial / cost
                predicted = (damping * step_norm2 - float(grad @ step)) / cost
                converged = abs(actual) <= _LM_TOL and predicted <= _LM_TOL
                if cost_trial < cost:
                    converged |= step_norm2 <= _LM_TOL**2 * float(
                        p @ (scale * p))
                    p, r, cost = p + step, r_trial, cost_trial
                    _check_lobes(p, *grid)
                    damping = max(damping / 10.0, _LM_DAMPING_FLOOR)
                    break
                if converged:
                    break
                damping *= 10.0
    return p, r, nfev


def _half_widths(profile_s: np.ndarray, profile_i: np.ndarray, r: int,
                 col: int):
    """Nodes from (r, col) to the nearest node at or below half its value,
    along its signal profile (its column, where it sits at ``r``) and its
    idler profile (its row, where it sits at ``col``), at least 1 each."""
    half = 0.5 * profile_s[r]
    widths = []
    for profile, at in ((profile_s, r), (profile_i, col)):
        dist = np.abs(np.flatnonzero(profile <= half) - at)
        widths.append(max(int(dist.min()), 1) if dist.size else len(profile))
    return widths


def _seed_at(image, ls, li, r, col, widths, floor) -> list:
    """Natural parameters of one lobe at node (r, col) of ``image``, the
    largest value of a crop that holds two half-maximum ``widths`` around
    it, on the crop's axes ``ls``, ``li``: its value, with widths and
    orientation from the second moments about that node within two
    half-maximum widths of it, and sigmas at least ``floor``."""
    hw_s, hw_i = widths
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
    return [float(image[r, col]), float(ls[r]), float(li[col]),
            max(np.sqrt(var_a), floor), max(np.sqrt(max(var_b, 0.0)), floor),
            float(th)]


# Each lobe's own nodes: those within this Mahalanobis radius of it,
# where it is above exp(-R^2 / 2) ~ 1e-14 of its amplitude; and the
# fraction of its amplitude a fitted lobe may keep outside the nodes it
# is fitted on.
SUPPORT_RADIUS = 8.0
_LEAK_FRACTION = 1e-12


def _window(q: np.ndarray, ls: np.ndarray, li: np.ndarray,
            d2_max: float) -> np.ndarray:
    """Ascending flat indices of the nodes of the grid on the ascending
    axes ``ls``, ``li`` at squared Mahalanobis distance at most ``d2_max``
    from the one lobe of natural parameters ``q``.  Only the lobe's
    bounding box, widened by a node on each side, is searched."""
    amp, x0, y0, sa, sb, th = q
    ct, st = np.cos(th), np.sin(th)
    radius = np.sqrt(d2_max)
    box = []
    for axis, center, half in ((ls, x0, np.hypot(sa * ct, sb * st)),
                               (li, y0, np.hypot(sa * st, sb * ct))):
        low, high = np.searchsorted(axis, (center - radius * half,
                                           center + radius * half))
        box.append(np.arange(max(low - 1, 0), min(high + 1, len(axis))))
    rows, cols = box
    dx = ls[rows, None] - x0
    dy = li[None, cols] - y0
    # a sigma below about 1e-150 nm overflows the distance to inf, which
    # reads as outside every radius
    with np.errstate(over="ignore"):
        d2 = (((ct * dx + st * dy) / sa) ** 2
              + ((-st * dx + ct * dy) / sb) ** 2)
    return (rows[:, None] * len(li) + cols)[d2 <= d2_max]


def _peel(intensity, ls, li, n) -> list:
    """Seed ``n`` lobes one at a time: fit one lobe on a crop around the
    maximum of what earlier lobes leave unexplained, then subtract it on
    its own nodes, those within ``SUPPORT_RADIUS`` of it.

    What is unexplained is one copy of the grid, from which each lobe is
    subtracted as it is fitted and then clamped at 0 there, so a lobe
    that takes out more than the grid holds leaves no hole for the next,
    positive lobe to fit.  Returns the log parameters."""
    n_s, n_i = intensity.shape
    residual = intensity.copy()
    left = residual.ravel()
    params = []

    def around(at, half, size):
        return slice(max(0, at - half), min(size, at + half + 1))

    floor = min(ls[1] - ls[0], li[1] - li[0])
    for k in range(n):
        r, col = divmod(int(np.argmax(residual)), n_i)
        if residual[r, col] <= 0:
            raise NumericError(
                f"found only {k} positive maxima for {n} requested lobes")
        widths = _half_widths(residual[:, col], residual[r], r, col)
        rows = around(r, 3 * widths[0], n_s)
        cols = around(col, 3 * widths[1], n_i)
        crop = residual[rows, cols]
        seed = _seed_at(crop, ls[rows], li[cols], r - rows.start,
                        col - cols.start, widths, floor)
        p, _, _ = _least_squares(_to_log(seed), crop, ls[rows, None],
                                 li[None, cols], (ls, li))
        params += list(p)
        nodes = _window(_from_log(p), ls, li, SUPPORT_RADIUS**2)
        left[nodes] = np.maximum(
            left[nodes] - _lobe_model(_from_log(p), ls[nodes // n_i],
                                      li[nodes % n_i]), 0.0)
    return params


def _joint_nodes(member: np.ndarray) -> tuple:
    """The flat indices of the nodes that some lobe owns, each lobe's own
    nodes one row of the boolean mask ``member`` over the flat grid,
    grouped by the lobes they belong to and ascending within a group, and
    the groups (see ``_lobe_model``): each lobe lives on whole groups."""
    nodes = np.flatnonzero(member.any(axis=0))
    member = member[:, nodes]
    order = np.lexsort(member)
    nodes, member = nodes[order], member[:, order]
    edges = [0, *(np.flatnonzero(np.any(member[:, 1:] != member[:, :-1],
                                        axis=0)) + 1), len(nodes)]
    return nodes, [(slice(a, b), np.flatnonzero(member[:, a]))
                   for a, b in zip(edges[:-1], edges[1:]) if a < b]


# The coarse pass takes every s-th node of an axis of n, s = max(1, n //
# COARSE_NODES): at least this many a side where there are, 199 at most.
COARSE_NODES = 100


def _coarse_pass(intensity, ls, li, n) -> tuple:
    """The ``_least_squares`` result of the lobes peeled (``_peel``) and
    fitted jointly on every s-th node of each axis (``COARSE_NODES``)."""
    rows, cols = (slice(None, None, max(1, len(axis) // COARSE_NODES))
                  for axis in (ls, li))
    grid, ls, li = intensity[rows, cols], ls[rows], li[cols]
    return _least_squares(_peel(grid, ls, li, n), grid, ls[:, None],
                          li[None, :], (ls, li))


# The fewest grid nodes inside a lobe's 3-sigma ellipse that its R^2 is
# taken over.
_MIN_LOBE_NODES = 8


def fit_lobes(lam_s_axis, lam_i_axis, intensity, n_lobes: int) -> LobeFit:
    """Nonlinear least squares of a sum of elliptical Gaussians.

    Coarse pass (``_coarse_pass``), on every s-th node of each axis of n,
    s = max(1, n // ``COARSE_NODES``): the maximum of the grid left
    unexplained by the lobes so far seeds one lobe, with widths and
    orientation from the second moments within two half-maximum widths
    of it; that lobe is fitted alone on a crop of three such widths and
    subtracted, clamping what is left at 0, before the next maximum is
    taken.  Predicted centers play no part.  All lobes are then fitted
    jointly on every coarse node.

    Fine pass: from their coarse fit, the lobes are fitted jointly on the
    full grid, each on its own nodes only, fixed for the pass: those
    within Mahalanobis radius ``SUPPORT_RADIUS`` of its coarse fit.  A
    lobe that ends above ``_LEAK_FRACTION`` of its amplitude on a node
    outside them (its ``_window`` at that level holds a node they do not)
    raises; otherwise the fit equals the fit of every lobe on the whole
    grid.  The global and per-lobe R^2 and ``residual_norm`` are
    taken over the whole grid, with each lobe of the model on its nodes.

    Positivity: amplitudes and sigmas are fitted as logarithms, so every
    returned amplitude and sigma is positive and finite.

    Scale: the fit runs on the grid divided by the power of two that
    brings its maximum into [0.5, 1), so no cost or stopping test
    overflows or underflows; the amplitudes and ``residual_norm`` are
    scaled back.  The centers, sigmas, orientations and R^2 do not depend
    on the intensity scale; a failed fit reports the residual norm of the
    scaled grid, and a fit whose amplitudes or residual norm pass the
    float range once scaled back raises.

    Deterministic given the same input; lobes are returned in ascending
    idler center.  Raises on ``n_lobes`` below 1, a non-finite or zero
    grid, fewer nodes than parameters, or fewer positive maxima than lobes
    left to seed.
    Every fit, of one peeled lobe or of all of them, raises as soon as a
    step it takes centres a lobe off the grid, gives it a sigma wider than
    the wider axis span or drives an amplitude or sigma to 0 or infinity,
    and when it stalls or exhausts its budget (``_least_squares``).  It
    also raises when a fitted lobe covers fewer than ``_MIN_LOBE_NODES``
    nodes inside its 3-sigma ellipse, on a grid too coarse for its R^2.
    """
    if n_lobes < 1:
        raise DomainError(f"n_lobes must be >= 1, got {n_lobes}")
    intensity = np.asarray(intensity, dtype=float)
    if not np.all(np.isfinite(intensity)):
        raise DomainError("cannot fit lobes on a grid with a non-finite value")
    if not np.any(intensity > 0):
        raise DomainError("cannot fit lobes on a non-positive grid")
    if intensity.size < 6 * n_lobes:
        raise DomainError(f"{intensity.size} grid nodes are too few to fit "
                          f"{n_lobes} lobes of 6 parameters each")
    peak = float(np.max(intensity))
    scale = int(np.frexp(peak)[1])
    intensity = np.ldexp(intensity, -scale)
    ls = np.asarray(lam_s_axis, dtype=float)
    li = np.asarray(lam_i_axis, dtype=float)

    def on(nodes):
        return ls[nodes // len(li)], li[nodes % len(li)]

    p, _, coarse = _coarse_pass(intensity, ls, li, n_lobes)
    anchors = np.reshape(_from_log(p), (-1, 6))
    # each lobe's own nodes, one mask row over the flat grid per lobe
    own = np.zeros((n_lobes, intensity.size), dtype=bool)
    for k, anchor in enumerate(anchors):
        own[k, _window(anchor, ls, li, SUPPORT_RADIUS**2)] = True
    nodes, groups = _joint_nodes(own)
    # the whole grid's cost: the model is 0 off the lobes' own nodes
    rest = float(np.square(np.delete(intensity, nodes)).sum())
    p, _, fine = _least_squares(p, intensity.ravel()[nodes], *on(nodes),
                                (ls, li), groups, rest)
    for q, anchor, mine in zip(np.reshape(_from_log(p), (-1, 6)), anchors,
                               own):
        if not mine[_window(q, ls, li, -2.0 * np.log(_LEAK_FRACTION))].all():
            raise NumericError(
                f"lobe fit: the lobe at ({q[1]:.3f}, {q[2]:.3f}) nm left "
                f"the nodes it was refined on, within Mahalanobis radius "
                f"{SUPPORT_RADIUS:g} of its coarse fit at ({anchor[1]:.3f}, "
                f"{anchor[2]:.3f}) nm")

    lobes = []
    denom_total = float(((intensity - intensity.mean()) ** 2).sum())
    fitted = np.reshape(_canonical_params(_from_log(p)), (-1, 6))
    # the fitted model, each lobe on its own nodes, less the data
    res_grid = np.zeros(intensity.shape)
    res_grid.ravel()[nodes] = _lobe_model(fitted, *on(nodes), groups)
    res_grid -= intensity
    for q in fitted:
        amp, x0, y0, sa, sb, th = q
        # local goodness of fit inside the 3-sigma ellipse
        inside = _window(q, ls, li, 9.0)
        if inside.size < _MIN_LOBE_NODES:
            raise NumericError(
                f"lobe at ({x0:.3f}, {y0:.3f}) nm covers {inside.size} "
                f"grid nodes inside its 3-sigma ellipse, fewer than the "
                f"{_MIN_LOBE_NODES} its R^2 needs: the grid steps "
                f"({ls[1] - ls[0]:.3g}, {li[1] - li[0]:.3g}) nm are too "
                f"coarse for its minor sigma {sb:.3g} nm")
        data = intensity.ravel()[inside]
        denom = float(((data - data.mean()) ** 2).sum())
        r2 = 1.0 - float((res_grid.ravel()[inside] ** 2).sum()) / denom \
            if denom > 0 else float("nan")
        lobes.append(GaussianLobe(
            center_s_nm=float(x0), center_i_nm=float(y0),
            sigma_major_nm=float(sa), sigma_minor_nm=float(sb),
            orientation_rad=float(th), amplitude=float(amp), r_squared=r2))
    lobes.sort(key=lambda lb: lb.center_i_nm)
    r2_global = 1.0 - float((res_grid**2).sum()) / denom_total \
        if denom_total > 0 else float("nan")
    # back at the grid's own scale, which the largest of them may pass
    # near the top of the float range
    with np.errstate(over="ignore"):
        residual_norm = float(np.ldexp(np.linalg.norm(res_grid), scale))
        for lobe in lobes:
            lobe.amplitude = float(np.ldexp(lobe.amplitude, scale))
    if not np.all(np.isfinite([residual_norm,
                               *(lobe.amplitude for lobe in lobes)])):
        raise NumericError(f"lobe fit: an amplitude or the residual norm "
                           f"passes the float range on a grid of maximum "
                           f"{peak!r}")
    return LobeFit(lobes=lobes, residual_norm=residual_norm,
                   r_squared=r2_global, iterations=int(coarse + fine))


def _canonical_params(q: np.ndarray) -> np.ndarray:
    """Major sigma >= minor sigma, orientation in [0, pi)."""
    q = np.array(q, dtype=float).reshape(-1, 6)
    swap = q[:, 4] > q[:, 3]
    q[swap, 3], q[swap, 4] = q[swap, 4], q[swap, 3]
    q[swap, 5] += 0.5 * np.pi
    q[:, 5] %= np.pi
    return q.ravel()
