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

A channel is its four modes; its label derives from them: the letter
of a canonical two-mode channel, else ``p1p2-si``.

``phasematched_centers`` finds the phase-matched centers of a set of
channels from one shared scan of the idler band and one shared index
solve on the dyadic points of all their bracketing intervals.  It
returns the centers of the matched channels and, beside them, a message
for each channel with no zero of delta_k in the band.

Every ``fiber`` argument is a ``config.FiberSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from .config import MODE_ORDER
from .dispersion import birefringence_offset, lp_effective_index
from .errors import ConfigError, DomainError, PhaseMatchError

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
    """One FWM channel (T_p1, T_p2, T_s, T_i)."""

    t_p1: str
    t_p2: str
    t_s: str
    t_i: str

    @property
    def modes(self) -> tuple:
        return (self.t_p1, self.t_p2, self.t_s, self.t_i)

    @property
    def label(self) -> str:
        """The canonical letter, else ``p1p2-si``."""
        p1, p2, s, i = self.modes
        return CANONICAL_LABELS.get(self.modes, f"{p1}{p2}-{s}{i}")

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


def all_candidates(mode_set) -> list:
    """All distinct mode combinations (unordered pumps, ordered outputs);
    a ConfigError names a label outside the basis."""
    unknown = set(mode_set) - set(MODE_ORDER)
    if unknown:
        raise ConfigError(f"unknown mode label "
                          f"{', '.join(sorted(map(repr, unknown)))}: the "
                          f"basis is ({', '.join(MODE_ORDER)})")
    modes = sorted(set(mode_set), key=MODE_ORDER.index)
    return [FwmProcess(*pumps, *outputs)
            for pumps in combinations_with_replacement(modes, 2)
            for outputs in product(modes, repeat=2)]


def enumerate_processes(mode_set) -> list:
    """Conservation-allowed FWM channels over ``mode_set``.

    Deterministic ordering: lexicographic on the four mode labels.
    {e, o} yields exactly the five canonical channels A-E; {g, e, o}
    yields ten.
    """
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

    def __init__(self, fiber, lam_s_um, lam_i_um):
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
def delta_k_vec(process: FwmProcess, lam_s_um, lam_i_um, fiber,
                axis_swapped: bool = False) -> np.ndarray:
    """Vectorized phase mismatch (rad/m) on the frequency-degenerate
    surface, with the pump wavelength from 2/lam_p = 1/lam_s + 1/lam_i."""
    return BaseIndexCache(fiber, np.atleast_1d(lam_s_um),
                          np.atleast_1d(lam_i_um)).delta_k(
        process, axis_swapped)


# Step of the idler scan that brackets each channel's zero of delta_k
SCAN_STEP_NM = 0.01


def _energy_partner_nm(lam_p_nm: float, lam_i_nm):
    """Signal wavelength paired with lam_i on the degenerate surface."""
    return 1.0 / (2.0 / lam_p_nm - 1.0 / np.asarray(lam_i_nm, dtype=float))


def phasematched_centers(processes, fiber, lam_p_nm: float,
                         band_i_nm: tuple) -> tuple:
    """Locate, per channel, the (lam_s, lam_i) pair in nm where delta_k
    crosses zero.

    All channels share one scan of the idler band (one BaseIndexCache,
    with per-channel birefringence overlays).  Each channel takes the
    first scan point where delta_k is exactly zero or else the first
    bracketing interval of the ``SCAN_STEP_NM`` scan.  Each bracket is cut
    into the dyadic parts, at most 1e-5 nm wide, that bisecting it would
    reach (1 024 parts of a 0.01 nm step), delta_k is evaluated at all
    their ends of all brackets in one index solve, and the channel takes
    the midpoint of its first part across which delta_k leaves the sign
    of the bracket's low end: the point a bisection returns when the
    bracket holds one zero.  A returned pair satisfies the energy constraint
    2/lam_p = 1/lam_s + 1/lam_i exactly.

    Returns two maps: ``({label: (lam_s, lam_i)}, {label: message})``,
    the centers in channel order and, for each channel with no sign
    change in the band, a message that gives the scanned extrema.
    """
    lo_nm, hi_nm = band_i_nm
    grid_i = np.arange(lo_nm, hi_nm + 0.5 * SCAN_STEP_NM, SCAN_STEP_NM)
    grid_s = _energy_partner_nm(lam_p_nm, grid_i)
    scan = BaseIndexCache(fiber, grid_s / 1000.0, grid_i / 1000.0)
    centers, unmatched = {}, {}
    bracketed, first = [], []
    for process in processes:
        dk = scan.delta_k(process)
        sign = np.sign(dk)
        crossings = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        exact = np.nonzero(dk == 0.0)[0]
        if len(exact):
            li = float(grid_i[exact[0]])
            centers[process.label] = (float(_energy_partner_nm(lam_p_nm, li)),
                                      li)
        elif len(crossings) == 0:
            unmatched[process.label] = (
                f"process {process.label} not phase matched in band "
                f"[{lo_nm}, {hi_nm}] nm: delta_k in "
                f"[{dk.min():.6g}, {dk.max():.6g}] 1/m")
        else:
            bracketed.append(process)
            first.append(crossings[0])
    if not bracketed:
        return centers, unmatched

    # Each bracket's dyadic points: its ends and the midpoints of halving
    # it until every part is at most 1e-5 nm wide, each midpoint taken
    # from its two neighbours exactly as a bisection takes it.  Their
    # Delta k comes from one shared index solve.
    first = np.array(first, dtype=int)
    points = np.stack([grid_i[first], grid_i[first + 1]], axis=1)
    while np.max(np.diff(points, axis=1)) > 1e-5:
        finer = np.empty((len(points), 2 * points.shape[1] - 1))
        finer[:, ::2] = points
        finer[:, 1::2] = 0.5 * (points[:, :-1] + points[:, 1:])
        points = finer
    cache = BaseIndexCache(fiber,
                           _energy_partner_nm(lam_p_nm, points) / 1000.0,
                           points / 1000.0)
    for c, (process, li) in enumerate(zip(bracketed, points)):
        sign = np.sign(cache.delta_k(process)[c])
        # the first part whose upper end leaves the sign of the low end
        j = int(np.argmax(sign[1:] != sign[0]))
        lam_i = 0.5 * (li[j] + li[j + 1])
        lam_s = float(_energy_partner_nm(lam_p_nm, lam_i))
        centers[process.label] = lam_s, float(lam_i)
    return ({p.label: centers[p.label] for p in processes
             if p.label in centers}, unmatched)


# No caller in the package: kept because perfbench/tracer.py LAYERS wraps it.
def phasematched_center(process: FwmProcess, fiber, lam_p_nm: float,
                        band_i_nm: tuple) -> tuple:
    """(lam_s, lam_i) in nm where delta_k of one channel crosses zero;
    see ``phasematched_centers``.

    Raises PhaseMatchError (with the scanned extrema) when no sign
    change exists in the band.
    """
    centers, unmatched = phasematched_centers([process], fiber, lam_p_nm,
                                              band_i_nm)
    if unmatched:
        raise PhaseMatchError(unmatched[process.label])
    return centers[process.label]
