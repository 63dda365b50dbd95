"""Transverse LP mode fields, overlap integrals and intensity images.

Fields live on square uniform grids; the even LP11 lobe pair is
oriented along the grid x axis (the slow axis), the odd lobe pair along
y.  Absolute orientation drops out of every overlap magnitude.

The per-process spatial coupling O_j counts both orderings of a mixed
pump pair (the two pump photons are indistinguishable), which is what
makes the all-identical-mode channels about 2.2 times as bright as the
two-even/two-odd ones after normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import jv, kv

from .dispersion import FiberSpec, solve_lp_mode
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
        norm = np.sqrt(sum(abs(v) ** 2 for v in amps.values()))
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


def _basis_profile(fiber: FiberSpec, lam_um: float, mode: str,
                   grid: GridSpec) -> np.ndarray:
    """Un-normalized LP mode profile: Bessel core, modified-Bessel
    cladding, continuous at the core boundary."""
    lp = "LP01" if mode == "g" else "LP11"
    sol = solve_lp_mode(fiber, lam_um, lp)
    a = fiber.core_radius_um
    x, y, _ = grid.axes()
    xx, yy = np.meshgrid(x, y, indexing="xy")
    r = np.hypot(xx, yy)
    l = 0 if mode == "g" else 1
    inside = r <= a
    radial = np.empty_like(r)
    # continuity: both branches equal J_l(u)/J_l(u) = K_l(w)/K_l(w) at r=a
    radial[inside] = jv(l, sol.u * r[inside] / a) / jv(l, sol.u)
    radial[~inside] = kv(l, sol.w * r[~inside] / a) / kv(l, sol.w)
    if mode == "g":
        azim = 1.0
    elif mode == "e":
        azim = np.where(r > 0, xx / np.maximum(r, 1e-300), 1.0)  # cos(phi)
    else:
        azim = np.where(r > 0, yy / np.maximum(r, 1e-300), 0.0)  # sin(phi)
    return radial * azim


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


def overlap_integral(p1: FieldGrid, p2: FieldGrid, s: FieldGrid,
                     i: FieldGrid) -> complex:
    """Plain four-field overlap integral T_p1 T_p2 T_s* T_i* d2r.

    All four fields must share one grid spec.  Symmetric under p1 <-> p2.
    """
    specs = {f.grid for f in (p1, p2, s, i)}
    if len(specs) != 1:
        raise DomainError("overlap_integral requires identical grid specs")
    integrand = p1.values * p2.values * np.conj(s.values) * np.conj(i.values)
    return complex(np.sum(integrand) * p1.grid.cell_area_um2)


def process_overlap(fiber: FiberSpec, process, lam_p_nm: float,
                    center_nm: tuple, grid: GridSpec | None = None) -> complex:
    """Spatial coupling O_j of one FWM channel (unnormalized).

    Pump fields are evaluated at the pump wavelength, signal and idler
    fields at the channel's phase-matched center.  Mixed pump pairs
    count both photon orderings, doubling the integral.
    """
    if grid is None:
        grid = default_grid(fiber)
    lam_s_nm, lam_i_nm = center_nm
    f_p1 = mode_field(fiber, lam_p_nm / 1000.0,
                      ModeSuperposition({process.t_p1: 1.0}), grid)
    f_p2 = (f_p1 if process.pump_mode_degenerate else
            mode_field(fiber, lam_p_nm / 1000.0,
                       ModeSuperposition({process.t_p2: 1.0}), grid))
    f_s = mode_field(fiber, lam_s_nm / 1000.0,
                     ModeSuperposition({process.t_s: 1.0}), grid)
    f_i = mode_field(fiber, lam_i_nm / 1000.0,
                     ModeSuperposition({process.t_i: 1.0}), grid)
    raw = overlap_integral(f_p1, f_p2, f_s, f_i)
    exchange = 1.0 if process.pump_mode_degenerate else 2.0
    return exchange * raw


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
