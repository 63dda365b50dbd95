"""Transverse LP mode fields: overlap integrals and intensity images.

An LP field factorizes into a radial profile R_l(r) (Bessel in the core,
modified Bessel in the cladding, from the numpy kernels of
``dispersion``) times an azimuthal factor: 1 for the
LP01 mode g, cos(phi) for the even LP11 mode e (lobes along the x, slow,
axis) and sin(phi) for the odd mode o.  The four-field overlap therefore
factorizes too: a 1-D radial integral, by Gauss-Legendre quadrature on
the core and on the cladding mapped to a finite interval, times a
closed-form integral of cos^m(phi) sin^n(phi).  Absolute orientation
drops out of every overlap magnitude.

The ``modes`` images sample the same fields on a square uniform grid
(``GridSpec``): ``basis_fields`` does one LP01 and one LP11 solve and
returns the unit-norm g, e and o fields, and ``intensity_image``
superposes them for a state or a mixture.  Nothing is cached between
calls.

The per-process spatial coupling O_j counts both orderings of a mixed
pump pair (the two pump photons are indistinguishable), which is what
makes the all-identical-mode channels about 2.2 times as bright as the
two-even/two-odd ones after normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import FiberSpec, ModeSuperposition
from .dispersion import (LP_LABELS, _bessel_j_orders, _bessel_k_orders,
                         solve_lp_mode)
from .errors import ConfigError, DomainError

@dataclass(frozen=True)
class GridSpec:
    """Square uniform sampling grid, half-width in um."""

    extent_um: float
    resolution: int = 257

    def axes(self):
        # midpoint sampling: cell centers of a uniform partition
        step = 2.0 * self.extent_um / self.resolution
        x = -self.extent_um + step * (np.arange(self.resolution) + 0.5)
        return x, x.copy(), step


def default_grid(fiber: FiberSpec) -> GridSpec:
    """Default field grid: 3 core radii half-width, ``GridSpec``'s
    default resolution."""
    return GridSpec(extent_um=3.0 * fiber.core_radius_um)


def _radial_profile(u, w, azimuthal: int, rho: np.ndarray) -> np.ndarray:
    """LP radial profiles R_l at ``rho`` = r / a, one per (u, w) pair, of
    shape u.shape + rho.shape: Bessel core, modified-Bessel cladding, both
    1 at the core boundary (an appended rho = 1), in one J_l and K_l pass."""
    inside = rho <= 1.0
    radial = np.empty(np.shape(u) + rho.shape)
    order = (azimuthal,)
    for part, kernel, scale in ((inside, _bessel_j_orders, u),
                                (~inside, _bessel_k_orders, w)):
        values = kernel(order, np.multiply.outer(
            scale, np.append(rho[part], 1.0)))[0]
        radial[..., part] = values[..., :-1] / values[..., -1:]
    return radial


def basis_fields(fiber: FiberSpec, lam_um: float, grid: GridSpec) -> dict:
    """The unit-norm basis fields {mode: array} of g, e and o sampled on
    ``grid`` (rows along y, columns along x): one LP01 and one LP11
    solve, whose radial profile the e and o fields share."""
    x, y, step = grid.axes()
    xx, yy = np.meshgrid(x, y, indexing="xy", sparse=True)
    r = np.hypot(xx, yy)
    basis = {}
    for order, modes in ((0, "g"), (1, "eo")):
        u, w = solve_lp_mode(fiber, lam_um, LP_LABELS[order])
        radial = _radial_profile(u, w, order, r / fiber.core_radius_um)
        for mode in modes:
            # each azimuthal factor is built only for its own field
            if mode == "g":
                profile = radial
            elif mode == "e":  # cos(phi)
                profile = radial * np.where(r > 0, xx / np.maximum(r, 1e-300),
                                            1.0)
            else:  # sin(phi)
                profile = radial * np.where(r > 0, yy / np.maximum(r, 1e-300),
                                            0.0)
            basis[mode] = profile / np.sqrt(np.sum(profile**2) * step**2)
    return basis


def mode_field(basis: dict, state: ModeSuperposition) -> np.ndarray:
    """The field of ``state``, superposed from ``basis_fields``: unit-norm
    to rounding, as the basis fields are orthonormal on the symmetric
    grid."""
    return sum(amp * basis[mode] for mode, amp in state.amplitudes.items())


# Gauss-Legendre nodes per radial part: the core [0, a], and the
# cladding r > a mapped to t = a / r in (0, 1].  Doubling them moves no
# default-channel overlap by more than 1e-15 relative.
RADIAL_NODES = 80

# (cos, sin) powers of each basis mode's azimuthal factor; their sum is
# the LP azimuthal order l.
_AZIMUTH_POWERS = {"g": (0, 0), "e": (1, 0), "o": (0, 1)}

# Integral over [0, 2 pi) of cos^m(phi) sin^n(phi), keyed by (m, n): every
# even pair with m + n <= 4, which covers any product of four LP fields.
# Any odd power integrates to zero.
_AZIMUTH_INTEGRALS = {
    (0, 0): 2.0 * np.pi,
    (2, 0): np.pi, (0, 2): np.pi,
    (4, 0): 0.75 * np.pi, (0, 4): 0.75 * np.pi,
    (2, 2): 0.25 * np.pi,
}


@lru_cache(maxsize=None)
def _radial_rule(nodes: int):
    """Nodes rho = r / a and weights w of the integral of f(r) r dr over
    r >= 0, in units of a^2: sum(w * f(a rho)).  Read-only arrays."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (x + 1.0)  # (0, 1) for both parts
    # core: r = a t, r dr = a^2 t dt; cladding: r = a / t, r dr = a^2 / t^3 dt
    rho = np.concatenate([t, 1.0 / t])
    weights = 0.5 * np.concatenate([w * t, w / t**3])
    rho.flags.writeable = weights.flags.writeable = False
    return rho, weights


def process_overlap(fiber: FiberSpec, processes, lam_p_nm: float,
                    centers: dict) -> dict:
    """Spatial couplings {label: O_j} of the FWM channels ``processes``
    (unnormalized), each at its (signal, idler) center ``centers[label]``.

    Plain four-field overlap integral T_p1 T_p2 T_s* T_i* d2r of unit-norm
    basis fields, computed as a radial quadrature times a closed-form
    azimuthal integral.  Pump fields are evaluated at the pump
    wavelength, signal and idler fields at the channel's center.  Mixed
    pump pairs count both photon orderings, doubling the integral.  The
    channels' distinct fields share one LP solve and profile pass per order.
    """
    rho, unit_weights = _radial_rule(RADIAL_NODES)
    weights = fiber.core_radius_um**2 * unit_weights
    # each channel's four fields as (LP order, wavelength in nm)
    roles = {p.label: [(sum(_AZIMUTH_POWERS[mode]), lam_nm) for mode, lam_nm
                       in zip(p.modes, (lam_p_nm, lam_p_nm,
                                        *centers[p.label]))]
             for p in processes}
    # each distinct field -> its unit-norm radial profile
    profiles = dict.fromkeys(key for keys in roles.values() for key in keys)
    for order in sorted({order for order, _ in profiles}):
        keys = [key for key in profiles if key[0] == order]
        u, w = solve_lp_mode(fiber, np.array([lam for _, lam in keys])
                             / 1000.0, LP_LABELS[order])
        # the azimuthal norm of g (2 pi), or of e and o (pi)
        azimuth_norm = _AZIMUTH_INTEGRALS[(2 * order, 0)]
        for key, radial in zip(keys, _radial_profile(u, w, order, rho)):
            profiles[key] = radial / np.sqrt(np.dot(weights, radial**2)
                                             * azimuth_norm)
    overlaps = {}
    for p in processes:
        product = np.ones_like(rho)
        for key in roles[p.label]:
            product *= profiles[key]
        cos_power, sin_power = map(sum, zip(*(_AZIMUTH_POWERS[mode]
                                              for mode in p.modes)))
        azimuth = _AZIMUTH_INTEGRALS.get((cos_power, sin_power), 0.0)
        exchange = 1.0 if p.pump_mode_degenerate else 2.0
        overlaps[p.label] = complex(exchange * azimuth
                                    * np.dot(weights, product))
    return overlaps


def normalize_overlaps(
        raw: dict,
        error: str = "cannot normalize an all-zero overlap set") -> dict:
    """Scale a {label: O_j} map so that sum |O_j|^2 = 1; a map whose
    sum is not positive raises ``DomainError(error)``."""
    total = sum(abs(v) ** 2 for v in raw.values())
    if total <= 0:
        raise DomainError(error)
    scale = 1.0 / np.sqrt(total)
    return {k: v * scale for k, v in raw.items()}


def intensity_image(basis: dict, state) -> np.ndarray:
    """Intensity image, scaled to peak 1, of a pure state or a weighted
    mixture, superposed from ``basis_fields``.

    ``state`` is a ModeSuperposition, or a list of (weight, state)
    pairs whose weights sum to 1 (incoherent mixture).
    """
    mixture = [(1.0, state)] if isinstance(state, ModeSuperposition) else state
    if abs(sum(w for w, _ in mixture) - 1.0) > 1e-9:
        raise ConfigError("mixture weights must sum to 1")
    img = sum(w * np.abs(mode_field(basis, st)) ** 2 for w, st in mixture)
    peak = img.max()
    return img / peak if peak > 0 else img
