"""Transverse LP mode fields, overlap integrals and intensity images.

An LP field factorizes into a radial profile R_l(r) (Bessel in the core,
modified Bessel in the cladding, from the numpy kernels of
``dispersion``) times an azimuthal factor: 1 for the
LP01 mode g, cos(phi) for the even LP11 mode e (lobes along the x, slow,
axis) and sin(phi) for the odd mode o.  The four-field overlap therefore
factorizes too: a 1-D radial integral, by Gauss-Legendre quadrature on
the core and on the cladding mapped to a finite interval, times a
closed-form integral of cos^m(phi) sin^n(phi).  Absolute orientation
drops out of every overlap magnitude.

Square uniform grids (``GridSpec``) are used only to synthesize field
images for the ``modes`` command.

The per-process spatial coupling O_j counts both orderings of a mixed
pump pair (the two pump photons are indistinguishable), which is what
makes the all-identical-mode channels about 2.2 times as bright as the
two-even/two-odd ones after normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dispersion import (FiberSpec, _bessel_j_orders, _bessel_k_orders,
                         solve_lp_mode)
from .errors import ConfigError, DomainError

_BASIS = ("g", "e", "o")

NAMED_STATES = {
    "g": {"g": 1.0},
    "e": {"e": 1.0},
    "o": {"o": 1.0},
    "d": {"e": 1.0 / np.sqrt(2.0), "o": 1.0 / np.sqrt(2.0)},
    "a": {"e": 1.0 / np.sqrt(2.0), "o": -1.0 / np.sqrt(2.0)},
    "r": {"e": 1.0 / np.sqrt(2.0), "o": 1j / np.sqrt(2.0)},
    "l": {"e": 1.0 / np.sqrt(2.0), "o": -1j / np.sqrt(2.0)},
}


@dataclass(frozen=True)
class ModeSuperposition:
    """Unit-norm complex superposition over the LP basis {g, e, o}."""

    amplitudes: dict
    name: str = ""

    def __post_init__(self):
        amps = {k: complex(v) for k, v in self.amplitudes.items() if v != 0}
        if not amps:
            raise ConfigError("empty mode superposition")
        for k in amps:
            if k not in _BASIS:
                raise ConfigError(f"unknown basis mode {k!r}")
        # hypot of the parts: no overflow or underflow at extreme scales
        norm = math.hypot(*(x for v in amps.values()
                            for x in (v.real, v.imag)))
        if abs(norm - 1.0) > 1e-9:
            amps = {k: v / norm for k, v in amps.items()}
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def named(cls, name: str) -> "ModeSuperposition":
        if name not in NAMED_STATES:
            raise ConfigError(
                f"unknown state name {name!r}; expected one of "
                f"{sorted(NAMED_STATES)}"
            )
        return cls(dict(NAMED_STATES[name]), name=name)

    def amplitude(self, mode: str) -> complex:
        return self.amplitudes.get(mode, 0j)


@dataclass(frozen=True)
class GridSpec:
    """Square uniform sampling grid, half-width in um."""

    extent_um: float
    resolution: int = 257

    def __post_init__(self):
        if self.extent_um <= 0 or self.resolution < 16:
            raise ConfigError("grid extent must be > 0, resolution >= 16")

    def axes(self):
        # midpoint sampling: cell centers of a uniform partition
        step = 2.0 * self.extent_um / self.resolution
        x = -self.extent_um + step * (np.arange(self.resolution) + 0.5)
        return x, x.copy(), step

    @property
    def cell_area_um2(self) -> float:
        step = 2.0 * self.extent_um / self.resolution
        return step * step


def default_grid(fiber: FiberSpec, extent_factor: float = 3.0,
                 resolution: int = 257) -> GridSpec:
    """Default field grid: 3 core radii half-width, 257 x 257 nodes."""
    return GridSpec(extent_um=extent_factor * fiber.core_radius_um,
                    resolution=resolution)


@dataclass
class FieldGrid:
    """Sampled complex transverse field, unit L2 norm over the grid."""

    grid: GridSpec
    values: np.ndarray
    wavelength_um: float
    description: str = ""

    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.cell_area_um2)


def _radial_profile(u: float, w: float, azimuthal: int,
                    rho: np.ndarray) -> np.ndarray:
    """LP radial profile R_l at ``rho`` = r / a for the mode parameters
    (u, w): Bessel core, modified-Bessel cladding, both equal to 1 at the
    core boundary."""
    inside = rho <= 1.0
    radial = np.empty_like(rho)
    order = (azimuthal,)
    radial[inside] = (_bessel_j_orders(order, u * rho[inside])[0]
                      / _bessel_j_orders(order, u)[0])
    radial[~inside] = (_bessel_k_orders(order, w * rho[~inside])[0]
                       / _bessel_k_orders(order, w)[0])
    return radial


@lru_cache(maxsize=len(_BASIS))
def _basis_profile(fiber: FiberSpec, lam_um: float, mode: str,
                   grid: GridSpec) -> np.ndarray:
    """Un-normalized LP mode profile sampled on ``grid``; read-only.

    Cached, so the images of one wavelength and grid share the three
    basis profiles instead of rebuilding one per superposed mode."""
    u, w = solve_lp_mode(fiber, lam_um, "LP01" if mode == "g" else "LP11")
    x, y, _ = grid.axes()
    xx, yy = np.meshgrid(x, y, indexing="xy")
    r = np.hypot(xx, yy)
    radial = _radial_profile(u, w, 0 if mode == "g" else 1,
                             r / fiber.core_radius_um)
    if mode == "g":
        azim = 1.0
    elif mode == "e":
        azim = np.where(r > 0, xx / np.maximum(r, 1e-300), 1.0)  # cos(phi)
    else:
        azim = np.where(r > 0, yy / np.maximum(r, 1e-300), 0.0)  # sin(phi)
    profile = radial * azim
    profile.flags.writeable = False
    return profile


def mode_field(fiber: FiberSpec, lam_um: float, state: ModeSuperposition,
               grid: GridSpec | None = None) -> FieldGrid:
    """Synthesize the normalized transverse field of ``state``."""
    if grid is None:
        grid = default_grid(fiber)
    total = np.zeros((grid.resolution, grid.resolution), dtype=complex)
    for mode, amp in state.amplitudes.items():
        prof = _basis_profile(fiber, lam_um, mode, grid)
        norm = np.sqrt(np.sum(prof**2) * grid.cell_area_um2)
        total += amp * prof / norm
    fg = FieldGrid(grid=grid, values=total, wavelength_um=lam_um,
                   description=state.name or "superposition")
    # basis modes are orthogonal on the symmetric grid, so the norm is
    # already 1 up to quadrature error; renormalize to pin it exactly
    fg.values = fg.values / np.sqrt(fg.power())
    return fg


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


def process_overlap(fiber: FiberSpec, process, lam_p_nm: float,
                    center_nm: tuple) -> complex:
    """Spatial coupling O_j of one FWM channel (unnormalized).

    Plain four-field overlap integral T_p1 T_p2 T_s* T_i* d2r of unit-norm
    basis fields, computed as a radial quadrature times a closed-form
    azimuthal integral.  Pump fields are evaluated at the pump
    wavelength, signal and idler fields at the channel's phase-matched
    center.  Mixed pump pairs count both photon orderings, doubling the
    integral.
    """
    rho, unit_weights = _radial_rule(RADIAL_NODES)
    weights = fiber.core_radius_um**2 * unit_weights
    lam_s_nm, lam_i_nm = center_nm
    product = np.ones_like(rho)
    cos_power = sin_power = 0
    for mode, lam_nm in ((process.t_p1, lam_p_nm), (process.t_p2, lam_p_nm),
                         (process.t_s, lam_s_nm), (process.t_i, lam_i_nm)):
        m, n = _AZIMUTH_POWERS[mode]
        u, w = solve_lp_mode(fiber, lam_nm / 1000.0,
                             "LP01" if mode == "g" else "LP11")
        radial = _radial_profile(u, w, m + n, rho)
        azimuth_norm = _AZIMUTH_INTEGRALS[(2 * m, 2 * n)]
        norm = np.sqrt(np.dot(weights, radial**2) * azimuth_norm)
        product *= radial / norm
        cos_power += m
        sin_power += n
    azimuth = _AZIMUTH_INTEGRALS.get((cos_power, sin_power), 0.0)
    exchange = 1.0 if process.pump_mode_degenerate else 2.0
    return complex(exchange * azimuth * np.dot(weights, product))


def normalize_overlaps(raw: dict) -> dict:
    """Scale a {label: O_j} map so that sum |O_j|^2 = 1."""
    total = sum(abs(v) ** 2 for v in raw.values())
    if total <= 0:
        raise DomainError("cannot normalize an all-zero overlap set")
    scale = 1.0 / np.sqrt(total)
    return {k: v * scale for k, v in raw.items()}


def intensity_image(fiber: FiberSpec, lam_um: float, state,
                    grid: GridSpec | None = None) -> np.ndarray:
    """Intensity image of a pure state or a weighted mixture.

    ``state`` is a ModeSuperposition, or a list of (weight, state)
    pairs whose weights sum to 1 (incoherent mixture).  Normalized to
    peak 1 for rendering.
    """
    if grid is None:
        grid = default_grid(fiber)
    if isinstance(state, ModeSuperposition):
        f = mode_field(fiber, lam_um, state, grid)
        img = np.abs(f.values) ** 2
    else:
        weights = [w for w, _ in state]
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError("mixture weights must sum to 1")
        img = np.zeros((grid.resolution, grid.resolution))
        for w, st in state:
            f = mode_field(fiber, lam_um, st, grid)
            img += w * np.abs(f.values) ** 2
    peak = img.max()
    if peak > 0:
        img = img / peak
    return img
