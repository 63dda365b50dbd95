"""Four-wave-mixing channel enumeration and phase matching.

A process is an unordered pump-mode pair plus an ordered (signal, idler)
mode pair.  Three selection rules decide which combinations can emit:

* azimuthal-index sum conservation (LP01 carries 0, LP11 carries 1),
* parity conservation (even -> +1, odd -> -1, product preserved),
* phase-matchability under the convention that odd modes are slower:
  an odd-mode excess on the output side pushes the mismatch below zero
  everywhere on the energy surface, so pumps must carry at least as
  many odd modes as the outputs.

For the two-mode set {e, o} these rules leave exactly the five channels
labelled A-E; adding the fundamental mode g admits five more.

``phasematched_centers`` finds the phase-matched centers of a set of
channels from one shared scan of the idler band and one bisection of
all their bracketing intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dispersion import FiberSpec, birefringence_offset, lp_effective_index
from .errors import ConfigError, DomainError, PhaseMatchError

MODE_ORDER = ("g", "e", "o")
_AZIMUTHAL = {"g": 0, "e": 1, "o": 1}
_PARITY_SIGN = {"g": 1, "e": 1, "o": -1}
_TO_RAD_M = 2.0 * np.pi * 1e6  # 2 pi n / lambda[um] -> rad/m

# Canonical letter names of the two-mode channels, after the usual
# (pump1, pump2, signal, idler) convention.
CANONICAL_LABELS = {
    ("e", "o", "o", "e"): "A",
    ("o", "o", "o", "o"): "B",
    ("e", "e", "e", "e"): "C",
    ("e", "o", "e", "o"): "D",
    ("o", "o", "e", "e"): "E",
}


@dataclass(frozen=True)
class FwmProcess:
    """One FWM channel (T_p1, T_p2, T_s, T_i) with its display label."""

    t_p1: str
    t_p2: str
    t_s: str
    t_i: str
    label: str = ""

    def __post_init__(self):
        for t in self.modes:
            if t not in MODE_ORDER:
                raise ConfigError(f"unknown mode label {t!r}")
        if not self.label:
            object.__setattr__(self, "label", canonical_label(self.modes))

    @property
    def modes(self) -> tuple:
        return (self.t_p1, self.t_p2, self.t_s, self.t_i)

    @property
    def pump_mode_degenerate(self) -> bool:
        return self.t_p1 == self.t_p2

    def conserves_parity(self) -> bool:
        return (_PARITY_SIGN[self.t_p1] * _PARITY_SIGN[self.t_p2]
                == _PARITY_SIGN[self.t_s] * _PARITY_SIGN[self.t_i])

    def conserves_azimuthal_sum(self) -> bool:
        return (_AZIMUTHAL[self.t_p1] + _AZIMUTHAL[self.t_p2]
                == _AZIMUTHAL[self.t_s] + _AZIMUTHAL[self.t_i])

    def pump_odd_excess(self) -> int:
        pumps = (self.t_p1, self.t_p2).count("o")
        outputs = (self.t_s, self.t_i).count("o")
        return pumps - outputs

    def is_viable(self) -> bool:
        return (self.conserves_parity()
                and self.conserves_azimuthal_sum()
                and self.pump_odd_excess() >= 0)


def canonical_label(modes: tuple) -> str:
    if modes in CANONICAL_LABELS:
        return CANONICAL_LABELS[modes]
    p1, p2, s, i = modes
    return f"{p1}{p2}-{s}{i}"


def _canonical_pump_pair(a: str, b: str) -> tuple:
    return tuple(sorted((a, b), key=MODE_ORDER.index))


def all_candidates(mode_set) -> list:
    """All distinct mode combinations (unordered pumps, ordered outputs)."""
    modes = sorted(set(mode_set), key=MODE_ORDER.index)
    for m in modes:
        if m not in MODE_ORDER:
            raise ConfigError(f"unknown mode label {m!r}")
    seen = set()
    out = []
    for p1 in modes:
        for p2 in modes:
            pair = _canonical_pump_pair(p1, p2)
            for s in modes:
                for i in modes:
                    key = pair + (s, i)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(FwmProcess(*key))
    return out


def enumerate_processes(mode_set) -> list:
    """Conservation-allowed FWM channels over ``mode_set``.

    Deterministic ordering: lexicographic on the four mode labels.
    {e, o} yields exactly the five canonical channels A-E; {g, e, o}
    yields ten.
    """
    if not mode_set:
        raise ConfigError("mode_set must be non-empty")
    viable = [p for p in all_candidates(mode_set) if p.is_viable()]
    return sorted(viable, key=lambda p: p.modes)


class BaseIndexCache:
    """Base LP11 effective indices of the signal, idler and pump waves for
    one set of (lam_s, lam_i) wavelengths, in um.

    Every {e, o} channel shares one base index per wave, so the
    eigenvalue problem is solved once per wave and each channel's phase
    mismatch is composed from additive birefringence overlays.
    Axis-shaped inputs like (n, 1) and (1, m) are solved in their thin
    form; only the pump wavelength, 2/lam_p = 1/lam_s + 1/lam_i, which
    varies across the whole mesh, costs a full-size solve.
    """

    def __init__(self, fiber: FiberSpec, lam_s_um, lam_i_um):
        self.fiber = fiber
        self.lam_s = np.asarray(lam_s_um, dtype=float)
        self.lam_i = np.asarray(lam_i_um, dtype=float)
        self.lam_p = 1.0 / (0.5 * (1.0 / self.lam_s + 1.0 / self.lam_i))
        self.base_s, self.base_i, self.base_p = (
            np.reshape(lp_effective_index(fiber, lam.ravel(), "LP11"),
                       lam.shape)
            for lam in (self.lam_s, self.lam_i, self.lam_p))

    def delta_k(self, process: FwmProcess,
                axis_swapped: bool = False) -> np.ndarray:
        """Signed wavevector mismatch k_p1 + k_p2 - k_s - k_i in one
        segment, rad/m.  LP01 ('g') channels raise DomainError."""
        if "g" in process.modes:
            raise DomainError(
                "phase mismatch supports the LP11 {e, o} channels only")

        def k(parity, photon, base, lam_um):
            n = base + birefringence_offset(self.fiber, parity, photon,
                                            axis_swapped)
            return _TO_RAD_M * n / lam_um

        return (k(process.t_p1, "pump", self.base_p, self.lam_p)
                + k(process.t_p2, "pump", self.base_p, self.lam_p)
                - k(process.t_s, "signal", self.base_s, self.lam_s)
                - k(process.t_i, "idler", self.base_i, self.lam_i))

    def phase_matching(self, process: FwmProcess) -> np.ndarray:
        """Complex phase-matching amplitude of the segmented fiber.

        One segment gives sinc(L dk / 2) exp(i L dk / 2); cross-spliced
        segments contribute coherently with the accumulated propagation
        phase and their axis-swapped mismatch.
        """
        total_m = self.fiber.total_length_m
        phi = 0j
        accumulated = 0.0
        for length_m, swapped in self.fiber.segments:
            dk = self.delta_k(process, swapped)
            x = 0.5 * dk * length_m
            seg = (length_m / total_m) * np.sinc(x / np.pi) * np.exp(1j * x)
            phi = phi + np.exp(1j * accumulated) * seg
            accumulated = accumulated + dk * length_m
        return phi


# No caller in the package: kept because perfbench/tracer.py LAYERS wraps it.
def delta_k_vec(process: FwmProcess, lam_s_um, lam_i_um, fiber: FiberSpec,
                axis_swapped: bool = False) -> np.ndarray:
    """Vectorized phase mismatch (rad/m) on the frequency-degenerate
    surface, with the pump wavelength from 2/lam_p = 1/lam_s + 1/lam_i."""
    return BaseIndexCache(fiber, np.atleast_1d(lam_s_um),
                          np.atleast_1d(lam_i_um)).delta_k(
        process, axis_swapped)


def _energy_partner_nm(lam_p_nm: float, lam_i_nm):
    """Signal wavelength paired with lam_i on the degenerate surface."""
    return 1.0 / (2.0 / lam_p_nm - 1.0 / np.asarray(lam_i_nm, dtype=float))


def phasematched_centers(processes, fiber: FiberSpec, lam_p_nm: float,
                         band_i_nm: tuple = (540.0, 580.0),
                         scan_step_nm: float = 0.01) -> dict:
    """Locate, per channel, the (lam_s, lam_i) pair in nm where delta_k
    crosses zero.

    All channels share one scan of the idler band (one BaseIndexCache,
    with per-channel birefringence overlays).  Each channel takes the
    first scan point where delta_k is exactly zero or else the first
    bracketing interval, and the brackets are bisected together, each
    until it is at most 1e-5 nm wide.  A returned pair satisfies the
    energy constraint 2/lam_p = 1/lam_s + 1/lam_i exactly.

    Returns {label: (lam_s, lam_i)} with a PhaseMatchError (carrying the
    scanned extrema) in place of the pair for a channel with no sign
    change in the band.
    """
    lo_nm, hi_nm = band_i_nm
    grid_i = np.arange(lo_nm, hi_nm + 0.5 * scan_step_nm, scan_step_nm)
    grid_s = _energy_partner_nm(lam_p_nm, grid_i)
    scan = BaseIndexCache(fiber, grid_s / 1000.0, grid_i / 1000.0)
    out = {}
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
            out[process.label] = PhaseMatchError(
                f"process {process.label} not phase matched in band "
                f"[{lo_nm}, {hi_nm}] nm: delta_k in "
                f"[{dk.min():.6g}, {dk.max():.6g}] 1/m",
                dk_min=float(dk.min()), dk_max=float(dk.max()),
            )
        else:
            out[process.label] = None  # keeps the channel order; set below
            bracketed.append(process)
            first.append(crossings[0])
    if not bracketed:
        return out

    def dk_at(channels, li_nm):
        """delta_k of bracketed channel channels[j] at idler li_nm[j]."""
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
    return out


# No caller in the package: kept because perfbench/tracer.py LAYERS wraps it.
def phasematched_center(process: FwmProcess, fiber: FiberSpec,
                        lam_p_nm: float,
                        band_i_nm: tuple = (540.0, 580.0),
                        scan_step_nm: float = 0.01) -> tuple:
    """(lam_s, lam_i) in nm where delta_k of one channel crosses zero;
    see ``phasematched_centers``.

    Raises PhaseMatchError (with the scanned extrema) when no sign
    change exists in the band.
    """
    center = phasematched_centers([process], fiber, lam_p_nm, band_i_nm,
                                  scan_step_nm)[process.label]
    if isinstance(center, PhaseMatchError):
        raise center
    return center
