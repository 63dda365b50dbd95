"""Chromatic dispersion model for a step-index few-mode PM fiber.

Effective indices are built in two layers:

1. A scalar weakly-guiding LP mode solver on top of Sellmeier material
   models (fused-silica cladding, germania-doped core).  This carries all
   wavelength dependence.
2. Additive birefringence overlays: the polarization birefringence
   ``delta_pol`` (slow minus fast axis), the parity birefringence
   ``delta_parity`` (odd minus even LP11), and the parity-birefringence
   dispersion ``delta_parity_dispersion`` which lowers the parity term
   seen by the long-wavelength (signal) photon.

The LP solver and the mode fields evaluate the Bessel functions J_n and
K_n (n = 0, 1, 2) through the fixed-node quadratures ``_bessel_j_orders``
and ``_bessel_k_orders`` below, in numpy alone.

All wavelengths in this module are in micrometres.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, ModeNotGuidedError

# Malitson-form 3-term Sellmeier, (B_i, C_i) with C_i in um
FUSED_SILICA_SELLMEIER = (
    (0.6961663, 0.0684043),
    (0.4079426, 0.1162414),
    (0.8974794, 9.896161),
)
# Pure GeO2 endpoint used for the binary-mix core model
GEO2_SELLMEIER = (
    (0.80686642, 0.068972606),
    (0.71815848, 0.15396605),
    (0.85416831, 11.841931),
)

SELLMEIER_RANGE_UM = (0.21, 3.7)

# First Bessel zeros bounding the LP root brackets
_J0_ZERO = 2.404825557695773
_J1_ZERO = 3.8317059702075125

LP11_CUTOFF_V = _J0_ZERO
# From here up LP21 and LP02 are guided too, and the fiber is no longer
# few-mode: the LP01/LP11 solver and the {g, e, o} basis stop describing it.
FEW_MODE_V = _J1_ZERO

LP_LABELS = ("LP01", "LP11")
_LP_AZIMUTHAL = {"LP01": 0, "LP11": 1}

# Wavelength at which the core doping is calibrated against the nominal NA
NA_REFERENCE_UM = 0.620


def _sellmeier(lam_um: np.ndarray, coeffs) -> np.ndarray:
    l2 = lam_um**2
    s = np.zeros_like(l2)
    for b, c in coeffs:
        s += b * l2 / (l2 - c**2)
    return np.sqrt(1.0 + s)


def _check_range(lam_um: np.ndarray) -> None:
    lo, hi = SELLMEIER_RANGE_UM
    if np.any(lam_um < lo) or np.any(lam_um > hi):
        raise DomainError(
            f"wavelength outside Sellmeier validity range "
            f"[{lo}, {hi}] um"
        )


def _geo2_mix(x: float) -> tuple:
    """Sellmeier terms of a GeO2-silica core at molar GeO2 fraction x,
    each (B_i, C_i) interpolated linearly between the two endpoints."""
    return tuple((b + x * (bg - b), c + x * (cg - c))
                 for (b, c), (bg, cg) in zip(FUSED_SILICA_SELLMEIER,
                                             GEO2_SELLMEIER))


@lru_cache(maxsize=64)
def _geo2_fraction(numerical_aperture: float, reference_um: float) -> float:
    """Molar GeO2 fraction whose binary-mix core reproduces the nominal
    NA against a silica cladding at the reference wavelength."""
    n_cl = _sellmeier(np.asarray(reference_um), FUSED_SILICA_SELLMEIER)
    target = float(np.sqrt(n_cl**2 + numerical_aperture**2))

    def core_at(x):
        return float(_sellmeier(np.asarray(reference_um), _geo2_mix(x)))

    lo, hi = 0.0, 0.6
    if not core_at(lo) <= target <= core_at(hi):
        raise DomainError(
            f"numerical aperture {numerical_aperture} outside the range "
            "reachable by GeO2 doping"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if core_at(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FiberSpec:
    """Geometry, birefringence and segment layout of the fiber.

    Parameters
    ----------
    core_radius_um : float
        Step-index core radius, > 0.
    numerical_aperture : float
        Nominal NA in (0, 1); anchors the core index model at
        ``NA_REFERENCE_UM``.
    delta_pol : float
        Polarization birefringence, slow (x) minus fast (y) index.
    delta_parity : float
        Parity birefringence, odd minus even LP11 index (>= 0).
    delta_parity_dispersion : float
        Difference between the short-wavelength (idler) and
        long-wavelength (signal) parity birefringences; the signal-side
        parity term is ``delta_parity - delta_parity_dispersion``.
    segments : tuple of (length_m, axis_swapped)
        Ordered fiber segments; ``axis_swapped`` marks a cross-spliced
        segment whose slow axis is rotated 90 degrees.
    core_model : str
        "ge_doped" (default): germania-doped binary Sellmeier core whose
        doping is calibrated to the NA at ``NA_REFERENCE_UM``.
        "na_offset": n_core = sqrt(n_clad^2 + NA^2) with constant NA.
    """

    core_radius_um: float = 1.74
    numerical_aperture: float = 0.17
    delta_pol: float = 2.37e-4
    delta_parity: float = 4.41e-4
    delta_parity_dispersion: float = 3.0e-5
    segments: tuple = ((0.10, False),)
    core_model: str = "ge_doped"

    def __post_init__(self):
        if not self.core_radius_um > 0:
            raise ConfigError("core_radius_um must be > 0")
        if not 0 < self.numerical_aperture < 1:
            raise ConfigError("numerical_aperture must be in (0, 1)")
        if self.delta_parity < 0:
            raise ConfigError("delta_parity must be >= 0 (odd is slower)")
        if len(self.segments) < 1:
            raise ConfigError("at least one fiber segment is required")
        for length_m, _ in self.segments:
            if not length_m > 0:
                raise ConfigError("segment lengths must be > 0")
        if self.core_model not in ("ge_doped", "na_offset"):
            raise ConfigError(f"unknown core_model {self.core_model!r}")
        object.__setattr__(
            self, "segments",
            tuple((float(L), bool(sw)) for L, sw in self.segments),
        )

    @property
    def total_length_m(self) -> float:
        return sum(L for L, _ in self.segments)

    def cladding_index(self, lam_um) -> np.ndarray:
        lam = np.asarray(lam_um, dtype=float)
        _check_range(lam)
        return _sellmeier(lam, FUSED_SILICA_SELLMEIER)

    def core_index(self, lam_um) -> np.ndarray:
        lam = np.asarray(lam_um, dtype=float)
        _check_range(lam)
        if self.core_model == "na_offset":
            n_cl = _sellmeier(lam, FUSED_SILICA_SELLMEIER)
            return np.sqrt(n_cl**2 + self.numerical_aperture**2)
        return _sellmeier(lam, _geo2_mix(
            _geo2_fraction(self.numerical_aperture, NA_REFERENCE_UM)))

    def v_number(self, lam_um) -> np.ndarray:
        lam = np.asarray(lam_um, dtype=float)
        na = np.sqrt(self.core_index(lam) ** 2 - self.cladding_index(lam) ** 2)
        return 2.0 * np.pi * self.core_radius_um * na / lam


def check_few_mode(fiber: FiberSpec, lam_um) -> None:
    """Raise DomainError where V reaches FEW_MODE_V at one of the
    wavelengths ``lam_um``, naming the largest V and its wavelength."""
    lam = np.atleast_1d(np.asarray(lam_um, dtype=float))
    v = fiber.v_number(lam)
    k = int(np.argmax(v))
    if v[k] >= FEW_MODE_V:
        raise DomainError(
            f"fiber is not few-mode: V = {v[k]:.4g} at {lam[k] * 1e3:g} nm "
            f"is at least {FEW_MODE_V:.4f}, where LP21 and LP02 are guided")


# Bessel kernels of integer order n <= 2.  Each is a quadrature on a fixed
# node set, evaluated row by row on bounded chunks, so a value depends on
# its own argument only and temporaries stay below _BESSEL_CHUNK rows.
_BESSEL_CHUNK = 2048

# J_n: midpoint rule on Bessel's integral over [0, pi].  The integrand is
# even and 2 pi-periodic, so the error falls like J_{2 N - n}(x): below
# 1e-15 absolute for 0 <= x <= 4.5 (all LP core arguments lie below the
# first zero of J_1, 3.83).
_J_NODES = 16
_J_TAU = np.pi * (np.arange(_J_NODES) + 0.5) / _J_NODES
_J_SIN_TAU = np.sin(_J_TAU)

# K_n: trapezoid rule with step 0.15 on
# K_n(x) = e^{-x} int_0^inf exp(-x (cosh t - 1)) cosh(n t) dt,
# and the asymptotic series above _K_ASYMPTOTIC_X, where the step would
# no longer resolve the integrand.  Relative error below 1e-14 for
# x >= 1e-8.
_K_STEP = 0.15
_K_T = _K_STEP * np.arange(160)
_K_COSH_M1 = np.cosh(_K_T) - 1.0
_K_WEIGHTS = np.where(_K_T == 0.0, 0.5 * _K_STEP, _K_STEP)
_K_ASYMPTOTIC_X = 25.0
_K_ASYMPTOTIC_TERMS = 24


def _k_band_nodes(x_low: float) -> int:
    """Nodes that carry every integrand term above 1e-17 of the t = 0 term
    for all x >= ``x_low`` and n <= 2."""
    if x_low == 0.0:
        return len(_K_T)
    term = np.exp(-x_low * _K_COSH_M1) * np.cosh(2.0 * _K_T)
    return int(np.flatnonzero(term >= 1e-17)[-1]) + 1


# Argument bands by ascending lower edge, and the nodes each one sums:
# larger arguments damp the integrand sooner and need fewer nodes.
_K_BAND_LOW = np.array([0.0] + [4.0 / 16**k for k in range(6, -1, -1)])
_K_BAND_NODES = [_k_band_nodes(x_low) for x_low in _K_BAND_LOW]


def _bessel_j_orders(orders: tuple, x) -> tuple:
    """Bessel functions J_n(x), one array per n in ``orders`` (each in
    {0, 1, 2}), for 0 <= x <= 4.5; the orders share one x sin(tau)
    table."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty((len(orders), flat.size))
    for s in range(0, flat.size, _BESSEL_CHUNK):
        x_sin = flat[s:s + _BESSEL_CHUNK, None] * _J_SIN_TAU
        for row, n in zip(out, orders):
            row[s:s + _BESSEL_CHUNK] = np.cos(n * _J_TAU - x_sin).sum(axis=1)
    return tuple((row / _J_NODES).reshape(x.shape) for row in out)


def _bessel_k_orders(orders: tuple, x) -> tuple:
    """Modified Bessel functions K_n(x), one array per n in ``orders``
    (each in {0, 1, 2}), for x >= 1e-8; the orders share one damping
    table per argument band."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    scaled = np.full((len(orders), flat.size), np.nan)  # e^x K_n(x)
    far = np.flatnonzero(flat > _K_ASYMPTOTIC_X)
    if far.size:
        z = flat[far]
        for row, n in zip(scaled, orders):
            term = total = np.ones_like(z)
            for k in range(1, _K_ASYMPTOTIC_TERMS + 1):
                term = term * (4 * n * n - (2 * k - 1) ** 2) / (8 * k * z)
                total = total + term
            row[far] = np.sqrt(0.5 * np.pi / z) * total
    weights = [_K_WEIGHTS * np.cosh(n * _K_T) for n in orders]
    band = np.searchsorted(_K_BAND_LOW, flat, side="right") - 1
    band[~(flat <= _K_ASYMPTOTIC_X)] = -1
    for b in np.unique(band[band >= 0]):
        at = np.flatnonzero(band == b)
        nodes = _K_BAND_NODES[b]
        for s in range(0, at.size, _BESSEL_CHUNK):
            rows = at[s:s + _BESSEL_CHUNK]
            damp = np.exp(-flat[rows, None] * _K_COSH_M1[:nodes])
            for row, w in zip(scaled, weights):
                row[rows] = (damp * w[:nodes]).sum(axis=1)
    decay = np.exp(-flat)
    return tuple((decay * row).reshape(x.shape) for row in scaled)


def _solve_u_array(v: np.ndarray, azimuthal: int) -> np.ndarray:
    """Bracketed bisection for the LP characteristic equation.

    Solves u * J_{l+1}(u)/J_l(u) = w * K_{l+1}(w)/K_l(w) with
    w = sqrt(V^2 - u^2), on the fundamental branch of each label.  Each
    point stops once its own bracket is narrower than 1e-13, so a root
    does not depend on the other points of the batch.
    """
    l = azimuthal
    if l == 0:
        lo = np.full_like(v, 1e-9)
        hi = np.minimum(v, _J0_ZERO) * (1 - 1e-12) - 1e-12
    else:
        lo = np.full_like(v, _J0_ZERO + 1e-12)
        hi = np.minimum(v, _J1_ZERO) - 1e-12

    def resid(u):
        w = np.sqrt(np.maximum(v**2 - u**2, 1e-300))
        j_l, j_next = _bessel_j_orders((l, l + 1), u)
        k_l, k_next = _bessel_k_orders((l, l + 1), w)
        return u * j_next / j_l - w * k_next / k_l

    f_lo = resid(lo)
    for _ in range(120):
        open_ = hi - lo >= 1e-13
        if not np.any(open_):
            break
        mid = 0.5 * (lo + hi)
        f_mid = resid(mid)
        same = np.signbit(f_mid) == np.signbit(f_lo)
        lo = np.where(open_ & same, mid, lo)
        f_lo = np.where(open_ & same, f_mid, f_lo)
        hi = np.where(open_ & ~same, mid, hi)
    return 0.5 * (lo + hi)


def _bisect_n_eff(fiber: FiberSpec, lam: np.ndarray, azimuthal: int):
    """Effective index from the bisection root; the table's builder and
    reference."""
    u = _solve_u_array(fiber.v_number(lam), azimuthal)
    k = 2.0 * np.pi / lam
    return np.sqrt(fiber.core_index(lam) ** 2
                   - (u / (k * fiber.core_radius_um)) ** 2)


# Chebyshev index table: fixed panels on an absolute wavelength grid that
# starts at the low end of the Sellmeier range.
PANEL_WIDTH_UM = 0.02
PANEL_NODES = 20
# largest interpolation error tolerated at a panel's check points
PANEL_TOLERANCE = 1e-13


def _panel_bounds(index: int) -> tuple:
    lo, hi = SELLMEIER_RANGE_UM
    return lo + index * PANEL_WIDTH_UM, min(lo + (index + 1) * PANEL_WIDTH_UM,
                                            hi)


def _panel_x(lam: np.ndarray, a: float, b: float) -> np.ndarray:
    """Map [a, b] onto the Chebyshev interval [-1, 1]."""
    return (2.0 * lam - (a + b)) / (b - a)


def _clenshaw(coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Chebyshev series sum_k coef[k] T_k(x), elementwise."""
    b1 = b2 = np.zeros_like(x)
    for c in coef[:0:-1]:
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    return coef[0] + x * b1 - b2


# Chebyshev-Gauss angles of a panel's nodes and the cosine table of the
# discrete cosine sum that turns node values into coefficients
_PANEL_THETA = np.pi * (np.arange(PANEL_NODES) + 0.5) / PANEL_NODES
_PANEL_COS = np.cos(np.outer(np.arange(PANEL_NODES), _PANEL_THETA))

# (core_radius_um, numerical_aperture, core_model, azimuthal, panel index)
# -> Chebyshev coefficients or None, least recently used first
_PANEL_CACHE: OrderedDict = OrderedDict()
_PANEL_CACHE_SIZE = 1024


def _panels(fiber: FiberSpec, azimuthal: int, indices) -> list:
    """Chebyshev coefficients of n_eff on each panel in ``indices``, or
    None for a panel whose interpolant misses the bisection at its ends
    or centre (the panel holding the LP11 cutoff); that panel is bisected
    point by point.

    Panels are cached per fiber geometry; the ones missing from the cache
    are built together in one bisection.
    """
    keys = [(fiber.core_radius_um, fiber.numerical_aperture,
             fiber.core_model, azimuthal, int(index)) for index in indices]
    missing = [key for key in keys if key not in _PANEL_CACHE]
    if missing:
        bounds = [_panel_bounds(key[-1]) for key in missing]
        # per panel: the Chebyshev nodes, then the check points a, centre, b
        lam = np.array([np.concatenate([
            0.5 * (a + b) + 0.5 * (b - a) * np.cos(_PANEL_THETA),
            [a, 0.5 * (a + b), b]]) for a, b in bounds])
        guided = ((azimuthal == 0)
                  | np.all(fiber.v_number(lam) > LP11_CUTOFF_V, axis=1))
        n = np.full_like(lam, np.nan)
        if guided.any():
            n[guided] = _bisect_n_eff(fiber, lam[guided].ravel(),
                                      azimuthal).reshape(-1, lam.shape[1])
        for key, (a, b), ok, check, n_row in zip(missing, bounds, guided,
                                                  lam[:, PANEL_NODES:], n):
            coef = None
            if ok:
                coef = (2.0 / PANEL_NODES) * np.sum(
                    _PANEL_COS * n_row[:PANEL_NODES], axis=1)
                coef[0] *= 0.5
                error = np.abs(_clenshaw(coef, _panel_x(check, a, b))
                               - n_row[PANEL_NODES:])
                if not np.max(error) <= PANEL_TOLERANCE:
                    coef = None
            _PANEL_CACHE[key] = coef
    for key in keys:
        _PANEL_CACHE.move_to_end(key)
    out = [_PANEL_CACHE[key] for key in keys]
    while len(_PANEL_CACHE) > _PANEL_CACHE_SIZE:
        _PANEL_CACHE.popitem(last=False)
    return out


def lp_effective_index(fiber: FiberSpec, lam_um, lp_label: str) -> np.ndarray:
    """Vectorized base effective index of an LP mode (no birefringence).

    Values come from a Chebyshev table of fixed panels, built lazily by
    the bisection and cached per fiber geometry, so a value depends on
    the fiber and the wavelength only.  Raises ModeNotGuidedError if
    LP11 is below cutoff anywhere in ``lam_um``.
    """
    if lp_label not in LP_LABELS:
        raise ConfigError(f"unknown LP label {lp_label!r}")
    lam = np.atleast_1d(np.asarray(lam_um, dtype=float))
    _check_range(lam)
    v = fiber.v_number(lam)
    l = _LP_AZIMUTHAL[lp_label]
    if l == 1 and np.any(v <= LP11_CUTOFF_V):
        v_bad = float(np.min(v))
        raise ModeNotGuidedError(
            f"mode not guided: LP11 requires V > {LP11_CUTOFF_V:.4f}, "
            f"got V = {v_bad:.4f}",
            v_number=v_bad,
        )
    lo, hi = SELLMEIER_RANGE_UM
    last = int((hi - lo) // PANEL_WIDTH_UM)
    panel = np.minimum(((lam - lo) // PANEL_WIDTH_UM).astype(int), last)
    indices = np.unique(panel)
    n_eff = np.empty_like(lam)
    bisect = np.zeros(lam.shape, dtype=bool)
    for index, coef in zip(indices, _panels(fiber, l, indices)):
        at = panel == index
        if coef is None:
            bisect |= at
        else:
            n_eff[at] = _clenshaw(coef, _panel_x(lam[at],
                                                 *_panel_bounds(index)))
    if bisect.any():
        n_eff[bisect] = _bisect_n_eff(fiber, lam[bisect], l)
    return n_eff


def solve_lp_mode(fiber: FiberSpec, lam_um: float, lp_label: str) -> tuple:
    """Solve the LP eigenvalue problem at one wavelength.

    Returns (u, w) of the root with the largest effective index for the
    label; they satisfy u^2 + w^2 = V^2.
    """
    n_eff = float(lp_effective_index(fiber, lam_um, lp_label)[0])
    v = float(fiber.v_number(np.asarray(lam_um, dtype=float)))
    k = 2.0 * np.pi / lam_um
    n_core = float(fiber.core_index(np.asarray(lam_um, dtype=float)))
    u = k * fiber.core_radius_um * np.sqrt(n_core**2 - n_eff**2)
    w = np.sqrt(max(v**2 - u**2, 0.0))
    return float(u), float(w)


def birefringence_offset(fiber: FiberSpec, parity: str, photon: str,
                         axis_swapped: bool = False) -> float:
    """Additive index correction of a wave on top of its base LP index.

    ``parity`` is 'e', 'o' or 'g'; ``photon`` is 'pump', 'signal' or
    'idler'.  In an unswapped segment the pump rides the slow (x) axis
    and gains ``delta_pol``, and odd-parity waves gain the parity
    birefringence: ``delta_parity`` on the idler (short-wavelength) side
    and for the pump, reduced by ``delta_parity_dispersion`` on the
    signal side.  In an axis-swapped (cross-spliced) segment the roles
    flip: the pump loses the slow-axis term to the signal/idler, and the
    lab-frame parity is read against rotated stress axes, so 'e' and 'o'
    exchange their parity terms.
    """
    seg_parity = parity
    if axis_swapped and parity in ("e", "o"):
        seg_parity = "o" if parity == "e" else "e"

    offset = 0.0
    if (photon == "pump") != axis_swapped:
        offset += fiber.delta_pol
    if seg_parity == "o":
        offset += (fiber.delta_parity - fiber.delta_parity_dispersion
                   if photon == "signal" else fiber.delta_parity)
    return offset
