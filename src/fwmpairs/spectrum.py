"""Joint spectral amplitudes and 2-D lobe fits.

The joint spectral amplitude of a channel factorizes into the pump
envelope (a Gaussian in the summed detuning, from the convolution of
the two identical pump photons) and the phase-matching function of the
segmented fiber.  Processes with the same output mode pair add
coherently before squaring; distinct output pairs add in intensity.

Lobes are fitted as sums of elliptical Gaussians by a numpy
Levenberg-Marquardt iteration on the analytic Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dispersion import FiberSpec
from .errors import ConfigError, DomainError, NumericError
from .fields import ModeSuperposition
from .processes import BaseIndexCache

_TWO_PI = 2.0 * np.pi
# speed of light in vacuum, m/s (exact SI value)
C_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class PumpSpec:
    """Frequency-degenerate pump pair from one laser.

    ``intensity_fwhm_nm`` is the single-pump intensity FWHM; the
    two-photon envelope in the summed detuning has twice the variance.
    """

    center_wavelength_nm: float = 620.0
    intensity_fwhm_nm: float = 2.0
    transverse_state: ModeSuperposition = field(
        default_factory=lambda: ModeSuperposition.named("d"))

    def __post_init__(self):
        if self.intensity_fwhm_nm <= 0:
            raise ConfigError("pump intensity FWHM must be > 0")
        if self.center_wavelength_nm <= 0:
            raise ConfigError("pump wavelength must be > 0")

    @property
    def omega_p(self) -> float:
        return _TWO_PI * C_LIGHT / (self.center_wavelength_nm * 1e-9)

    @property
    def sigma_omega(self) -> float:
        """Std of the single-pump intensity spectrum, rad/s."""
        lam_m = self.center_wavelength_nm * 1e-9
        fwhm_omega = _TWO_PI * C_LIGHT * self.intensity_fwhm_nm * 1e-9 / lam_m**2
        return fwhm_omega / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def _omega(lam_nm):
    return _TWO_PI * C_LIGHT / (np.asarray(lam_nm, dtype=float) * 1e-9)


def pump_envelope(lam_s_nm, lam_i_nm, pump: PumpSpec) -> np.ndarray:
    """Two-pump spectral envelope amplitude, peak 1 on the energy surface.

    Gaussian in nu = omega_s + omega_i - 2 omega_p with amplitude
    exp(-nu^2 / (8 sigma^2)); the envelope intensity has variance
    2 sigma^2, i.e. sqrt(2) times the single-pump intensity width.
    """
    nu = _omega(lam_s_nm) + _omega(lam_i_nm) - 2.0 * pump.omega_p
    return np.exp(-(nu**2) / (8.0 * pump.sigma_omega**2))


# Largest grid a config or a grid CSV may hold.  simulate-jsi, the largest
# consumer, peaks near 34 MB + 0.31 kB per node (62 MB at 301 x 301,
# 341 MB at 1001 x 1001), so 2^20 nodes stay near 360 MB
MAX_GRID_POINTS = 2**20


@dataclass(frozen=True)
class SpectralGrid:
    """Rectangular uniform (lambda_s, lambda_i) grid specification."""

    lambda_s_nm: tuple = (670.0, 700.0)
    lambda_i_nm: tuple = (567.0, 576.0)
    points_s: int = 301
    points_i: int = 301

    def __post_init__(self):
        if self.points_s < 2 or self.points_i < 2:
            raise ConfigError("grids need at least 2 points per axis")
        if self.points_s * self.points_i > MAX_GRID_POINTS:
            raise ConfigError(
                f"points_s * points_i must be at most {MAX_GRID_POINTS}, "
                f"got {self.points_s * self.points_i}")

    def axes(self):
        ls = np.linspace(*self.lambda_s_nm, self.points_s)
        li = np.linspace(*self.lambda_i_nm, self.points_i)
        return ls, li


@dataclass
class JsiGrid:
    """Per-process complex JSA values plus the combined intensity.

    ``per_process[label][r, c]`` is the weighted amplitude at
    (lambda_s_axis[r], lambda_i_axis[c]).  ``combined`` sums processes
    with identical output modes coherently and distinct output modes in
    intensity, and integrates to 1 over the grid.
    """

    lambda_s_axis: np.ndarray
    lambda_i_axis: np.ndarray
    per_process: dict
    processes: dict  # label -> FwmProcess
    combined: np.ndarray
    normalization: float  # raw intensity integral before scaling


def combine_intensity(per_process: dict, processes: dict) -> np.ndarray:
    """Coherent within identical (T_s, T_i), incoherent across."""
    groups = {}
    for label, amp in per_process.items():
        proc = processes[label]
        key = (proc.t_s, proc.t_i)
        groups.setdefault(key, []).append(amp)
    first = next(iter(per_process.values()))
    total = np.zeros(first.shape, dtype=float)
    for amps in groups.values():
        coherent = np.zeros_like(first)
        for a in amps:
            coherent = coherent + a
        total += np.abs(coherent) ** 2
    return total


def jsa_grid(processes, fiber: FiberSpec, pump: PumpSpec, weights: dict,
             grid: SpectralGrid | None = None) -> JsiGrid:
    """Evaluate weighted per-process JSAs on a wavelength grid.

    ``weights`` maps process labels to complex coefficients c_j; any
    process missing from the map is dropped.  The grid is normalized so
    the combined intensity integrates to 1.
    """
    if not processes:
        raise DomainError("jsa_grid needs at least one process")
    if grid is None:
        grid = SpectralGrid()
    ls, li = grid.axes()
    mesh_s = ls[:, None]
    mesh_i = li[None, :]
    alpha = pump_envelope(mesh_s, mesh_i, pump)

    cache = BaseIndexCache(fiber, mesh_s / 1000.0, mesh_i / 1000.0)
    per_process = {}
    proc_map = {}
    for proc in processes:
        c_j = weights.get(proc.label, 0j)
        if c_j == 0:
            continue
        per_process[proc.label] = c_j * alpha * cache.phase_matching(proc)
        proc_map[proc.label] = proc
    if not per_process:
        raise DomainError("all process weights are zero")

    combined = combine_intensity(per_process, proc_map)
    raw_integral = float(combined.sum()) * (ls[1] - ls[0]) * (li[1] - li[0])
    if raw_integral <= 0:
        raise NumericError("joint spectrum vanishes on the whole grid")
    scale = 1.0 / np.sqrt(raw_integral)
    per_process = {k: v * scale for k, v in per_process.items()}
    combined = combined / raw_integral
    return JsiGrid(lambda_s_axis=ls, lambda_i_axis=li,
                   per_process=per_process, processes=proc_map,
                   combined=combined, normalization=raw_integral)


@dataclass
class GaussianLobe:
    """Elliptical 2-D Gaussian fitted to one JSI lobe."""

    center_s_nm: float
    center_i_nm: float
    sigma_major_nm: float
    sigma_minor_nm: float
    orientation_rad: float
    amplitude: float
    r_squared: float = float("nan")
    process_label: str = ""

    def evaluate(self, lam_s_nm, lam_i_nm) -> np.ndarray:
        dx = np.asarray(lam_s_nm, dtype=float) - self.center_s_nm
        dy = np.asarray(lam_i_nm, dtype=float) - self.center_i_nm
        ct, st = np.cos(self.orientation_rad), np.sin(self.orientation_rad)
        u = ct * dx + st * dy
        v = -st * dx + ct * dy
        return self.amplitude * np.exp(
            -0.5 * (u**2 / self.sigma_major_nm**2
                    + v**2 / self.sigma_minor_nm**2))


@dataclass
class LobeFit:
    lobes: list
    residual_norm: float
    r_squared: float
    iterations: int


def _lobe_model(params: np.ndarray, xs, yi) -> np.ndarray:
    """Sum of elliptical Gaussians; six natural parameters per lobe."""
    out = np.zeros(np.broadcast_shapes(xs.shape, yi.shape))
    for amp, x0, y0, sa, sb, th in np.reshape(params, (-1, 6)):
        ct, st = np.cos(th), np.sin(th)
        dx = xs - x0
        dy = yi - y0
        u = ct * dx + st * dy
        v = -st * dx + ct * dy
        out += amp * np.exp(-0.5 * (u**2 / sa**2 + v**2 / sb**2))
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


def _lobe_jacobian(p: np.ndarray, xs, yi) -> np.ndarray:
    """Analytic Jacobian of the lobe-sum model in the log parameters,
    one row per parameter."""
    shape = np.broadcast_shapes(xs.shape, yi.shape)
    rows = np.empty((len(p), int(np.prod(shape))))
    for k, (amp, x0, y0, sa, sb, th) in enumerate(
            np.reshape(_from_log(p), (-1, 6))):
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


def _least_squares(p0, data, xs, yi, grid):
    """Levenberg-Marquardt fit of the lobe sum to ``data``, in the log
    parameters (More, Lecture Notes in Mathematics 630, 1978).

    Each step solves the normal equations (J J^T + mu diag(J J^T)) s = -J r
    of the rows J of ``_lobe_jacobian``; a step that lowers the cost is
    taken and divides the damping mu by 10, one that does not multiplies
    it by 10.  Converges when the relative cost reduction, actual and
    predicted, the relative scaled step, or the largest cosine between
    the residual and a Jacobian row falls to ``_LM_TOL``.  Returns
    (parameters, residual vector, evaluations).  Every step taken must
    pass ``_check_lobes`` on ``grid``, the (signal, idler) axes; raises
    when one does not, when the damping passes ``_LM_DAMPING_CAP``
    without lowering the cost, or when ``MAX_EVALS_PER_PARAM`` evaluations
    per parameter do not converge."""
    target = np.ravel(data)

    def resid(p):
        return _lobe_model(_from_log(p), xs, yi).ravel() - target

    budget = MAX_EVALS_PER_PARAM * len(p0)
    # A diverging trial step can overflow exp() or zero a sigma; its cost
    # is then inf or nan and the step is rejected, and _check_lobes raises
    # on a step taken that carries one, so the fit raises instead of
    # warning.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p = np.asarray(p0, dtype=float)
        r = resid(p)
        cost = float(r @ r)
        nfev = 1
        damping = _LM_DAMPING0
        converged = cost == 0.0
        while not converged:
            jac = _lobe_jacobian(p, xs, yi)
            normal = jac @ jac.T
            grad = jac @ r
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
                try:
                    step = np.linalg.solve(normal + damping * np.diag(scale),
                                           -grad)
                except np.linalg.LinAlgError:
                    damping *= 10.0
                    continue
                r_trial = resid(p + step)
                nfev += 1
                cost_trial = float(r_trial @ r_trial)
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


def _half_widths(image: np.ndarray, r: int, col: int):
    """Nodes from (r, col) to the nearest node at or below half its value,
    along the row axis and along the column axis (at least 1 each)."""
    half = 0.5 * image[r, col]
    widths = []
    for profile, at in ((image[:, col], r), (image[r, :], col)):
        dist = np.abs(np.flatnonzero(profile <= half) - at)
        widths.append(max(int(dist.min()), 1) if dist.size else len(profile))
    return widths


def _seed_at(image, ls, li, r, col) -> list:
    """Natural parameters of one lobe at node (r, col): its value, with
    widths and orientation from the second moments about that node of the
    grid within two half-maximum widths of it."""
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


def _peel(intensity, ls, li, n) -> list:
    """Seed ``n`` lobes one at a time: fit one lobe on a crop around the
    maximum of what earlier lobes leave unexplained, then subtract it."""
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
        p, _, _ = _least_squares(_to_log(seed), residual[rows, cols],
                                 ls[rows, None], li[None, cols], (ls, li))
        params += list(p)
        residual -= _lobe_model(_from_log(p), ls[:, None], li[None, :])
    return params


# The joint fit's support radius around the peeled lobes (Mahalanobis;
# exp(-R^2 / 2) ~ 1e-14), and the fraction of its amplitude a fitted lobe
# may keep outside the support before the fit reruns on the whole grid.
SUPPORT_RADIUS = 8.0
_LEAK_FRACTION = 1e-12


def _distances2(q: np.ndarray, xs, yi):
    """Squared Mahalanobis distance of the nodes to each lobe of the
    natural parameters ``q``, one array per lobe."""
    for amp, x0, y0, sa, sb, th in np.reshape(q, (-1, 6)):
        ct, st = np.cos(th), np.sin(th)
        dx = xs - x0
        dy = yi - y0
        # a sigma below about 1e-150 nm overflows the distance to inf,
        # which reads as outside every radius
        with np.errstate(over="ignore"):
            yield (((ct * dx + st * dy) / sa) ** 2
                   + ((-st * dx + ct * dy) / sb) ** 2)


def fit_lobes(lam_s_axis, lam_i_axis, intensity,
              expected_lobes: int) -> LobeFit:
    """Nonlinear least squares of a sum of elliptical Gaussians.

    Seeding: the lobes are peeled off one at a time.  The maximum of the
    grid left unexplained by the lobes so far seeds one lobe, with widths
    and orientation from the second moments within two half-maximum
    widths of it; that lobe is fitted alone on a crop of three such widths
    and subtracted before the next maximum is taken.  Predicted centers
    play no part.

    Joint fit: all lobes are then fitted jointly on the support of the
    peeled lobes, the nodes within Mahalanobis radius ``SUPPORT_RADIUS``
    of any of them.  Outside it every peeled lobe is below about 1e-14 of
    its amplitude, so the fit equals the one on the whole grid.  When a
    fitted lobe exceeds ``_LEAK_FRACTION`` of its amplitude at a node
    outside the support, the fit is run once more on the whole grid,
    started from the supported result.  The global and per-lobe R^2 and
    ``residual_norm`` are taken over the whole grid.

    Positivity: amplitudes and sigmas are fitted as logarithms, so every
    returned amplitude and sigma is positive and finite.

    Deterministic given the same input; lobes are returned in ascending
    idler center.  Raises on a zero grid or one with fewer nodes than
    parameters, and when fewer positive maxima than lobes remain to seed.
    Every fit, of one peeled lobe or of all of them, raises as soon as a
    step it takes centres a lobe off the grid, gives it a sigma wider than
    the wider axis span or drives an amplitude or sigma to 0 or infinity,
    and when it stalls or exhausts its budget (``_least_squares``).
    """
    if expected_lobes < 1:
        raise ConfigError("expected_lobes must be >= 1")
    intensity = np.asarray(intensity, dtype=float)
    if not np.any(intensity > 0):
        raise DomainError("cannot fit lobes on a non-positive grid")
    if intensity.size < 6 * expected_lobes:
        raise DomainError(f"{intensity.size} grid nodes are too few to fit "
                          f"{expected_lobes} lobes of 6 parameters each")
    ls = np.asarray(lam_s_axis, dtype=float)
    li = np.asarray(lam_i_axis, dtype=float)
    xs = ls[:, None]
    yi = li[None, :]

    p = np.asarray(_peel(intensity, ls, li, expected_lobes))
    shape = intensity.shape
    support = np.zeros(shape, dtype=bool)
    for d2 in _distances2(_from_log(p), xs, yi):
        support |= d2 <= SUPPORT_RADIUS**2
    p, _, nfev = _least_squares(
        p, intensity[support], np.broadcast_to(xs, shape)[support],
        np.broadcast_to(yi, shape)[support], (ls, li))
    leak = -2.0 * np.log(_LEAK_FRACTION)
    if any(np.any(d2[~support] < leak)
           for d2 in _distances2(_from_log(p), xs, yi)):
        p, _, more = _least_squares(p, intensity, xs, yi, (ls, li))
        nfev += more

    lobes = []
    denom_total = float(((intensity - intensity.mean()) ** 2).sum())
    fitted = _canonical_params(_from_log(p))
    res_grid = _lobe_model(fitted, xs, yi) - intensity
    for (amp, x0, y0, sa, sb, th), d2 in zip(
            np.reshape(fitted, (-1, 6)), _distances2(fitted, xs, yi)):
        # local goodness of fit inside the 3-sigma ellipse
        mask = d2 <= 9.0
        if mask.sum() >= 8:
            data = intensity[mask]
            denom = float(((data - data.mean()) ** 2).sum())
            r2 = 1.0 - float((res_grid[mask] ** 2).sum()) / denom \
                if denom > 0 else float("nan")
        else:
            r2 = float("nan")
        lobes.append(GaussianLobe(
            center_s_nm=float(x0), center_i_nm=float(y0),
            sigma_major_nm=float(sa), sigma_minor_nm=float(sb),
            orientation_rad=float(th), amplitude=float(amp),
            r_squared=r2))
    lobes.sort(key=lambda lb: lb.center_i_nm)
    r2_global = 1.0 - float((res_grid**2).sum()) / denom_total \
        if denom_total > 0 else float("nan")
    return LobeFit(lobes=lobes,
                   residual_norm=float(np.linalg.norm(res_grid)),
                   r_squared=r2_global, iterations=int(nfev))


def _canonical_params(q: np.ndarray) -> np.ndarray:
    """Major sigma >= minor sigma, orientation in [0, pi)."""
    q = np.array(q, dtype=float).reshape(-1, 6)
    swap = q[:, 4] > q[:, 3]
    q[swap, 3], q[swap, 4] = q[swap, 4], q[swap, 3]
    q[swap, 5] += 0.5 * np.pi
    q[:, 5] %= np.pi
    return q.ravel()
