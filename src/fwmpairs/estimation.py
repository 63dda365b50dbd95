"""Two-photon transverse-mode density matrices from spectral data.

Under the flat joint-spectral-phase assumption, each point of the
joint spectrum carries a pure two-qubit state whose components are the
per-process magnitudes; tracing the spectral degree of freedom out of
the intensity-weighted projectors produces the estimated density
matrix.  Spectral overlap between channels turns into off-diagonal
coherence, spectral separation into an incoherent mixture.

Basis order everywhere: (ee, eo, oe, oo) on (signal, idler).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .fields import ModeSuperposition
from .processes import BaseIndexCache
from .spectrum import PumpSpec, pump_envelope

BASIS_LABELS = ("ee", "eo", "oe", "oo")
_BASIS_INDEX = {("e", "e"): 0, ("e", "o"): 1, ("o", "e"): 2, ("o", "o"): 3}

BELL_PHI_PLUS = np.zeros(4, dtype=complex)
BELL_PHI_PLUS[0] = BELL_PHI_PLUS[3] = 1.0 / np.sqrt(2.0)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check entry magnitudes, Hermiticity, unit trace and positivity;
    returns the input."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got {rho.shape}")
    # |rho_rc| <= 1 holds for every density matrix; larger entries would
    # also overflow the checks below
    if np.max(np.abs(rho)) > 1.0 + TRACE_TOL:
        raise DomainError(
            f"matrix entry of magnitude {np.max(np.abs(rho)):.3e} exceeds 1")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise DomainError("matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or \
            abs(np.trace(rho).imag) > TRACE_TOL:
        raise DomainError("matrix trace differs from 1")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < -PSD_TOL:
        raise DomainError(
            f"matrix has negative eigenvalue {eigs.min():.3e}")
    return rho


def basis_index(t_s: str, t_i: str) -> int:
    key = (t_s, t_i)
    if key not in _BASIS_INDEX:
        raise DomainError(
            f"output modes {key} outside the two-qubit {{e, o}} space")
    return _BASIS_INDEX[key]


# ---------------------------------------------------------------------------
# process weights


def process_weights(pump: PumpSpec | ModeSuperposition, overlaps: dict,
                    processes) -> dict:
    """Relative complex coefficients {label: c_j} of the emitted
    channels, normalized so that sum |c_j|^2 = 1.

    c_j is the product of the two pump-mode amplitudes with the spatial
    coupling O_j (whose mixed-pump exchange doubling already accounts
    for pump-photon indistinguishability).  Raises when every channel
    weight vanishes (e.g. a pump state with no support on the required
    modes).
    """
    state = pump.transverse_state if isinstance(pump, PumpSpec) else pump
    amps = {proc.label: state.amplitude(proc.t_p1)
            * state.amplitude(proc.t_p2) * overlaps.get(proc.label, 0j)
            for proc in processes}
    total = sum(abs(v) ** 2 for v in amps.values())
    if total <= 0:
        raise DomainError("all process weights are zero for this pump state")
    scale = 1.0 / np.sqrt(total)
    return {k: v * scale for k, v in amps.items()}


# ---------------------------------------------------------------------------
# spectral tracing


@dataclass(frozen=True)
class SpectralWindow:
    """Rectangular integration window in the (lambda_s, lambda_i) plane."""

    lambda_s_nm: tuple
    lambda_i_nm: tuple

    def quadrature(self, nodes: int = 101):
        """Midpoint nodes and the cell area."""
        s0, s1 = self.lambda_s_nm
        i0, i1 = self.lambda_i_nm
        hs = (s1 - s0) / nodes
        hi = (i1 - i0) / nodes
        ls = s0 + hs * (np.arange(nodes) + 0.5)
        li = i0 + hi * (np.arange(nodes) + 0.5)
        return ls, li, hs * hi


def trace_spectral(amplitudes, processes, window: SpectralWindow,
                   nodes: int = 101) -> np.ndarray:
    """Integrate pointwise projectors over a window and renormalize.

    ``amplitudes(lam_s[:, None], lam_i[None, :])`` returns a dict from
    process labels to real amplitude arrays over the mesh (nm); the flat
    joint-spectral-phase assumption makes these nonnegative magnitudes.
    ``model_amplitudes`` and ``lobe_amplitudes`` build such sources.
    """
    by_label = {p.label: p for p in processes}
    ls, li, _ = window.quadrature(nodes)
    comp = np.zeros((4, nodes, nodes), dtype=complex)
    for label, amp in amplitudes(ls[:, None], li[None, :]).items():
        proc = by_label[label]
        comp[basis_index(proc.t_s, proc.t_i)] += amp
    flat = comp.reshape(4, -1)
    peak = float(np.max(np.abs(flat)))
    if not np.isfinite(peak):
        raise DomainError("window amplitudes overflow")
    # an exact power of two (at most 2^1023, the largest finite one)
    # brings the largest magnitude to [0.5, 1), so the products cannot
    # overflow; rho is renormalized below
    flat = flat * 2.0 ** min(-np.frexp(peak)[1], 1023)
    rho = flat @ flat.conj().T
    tr = float(np.trace(rho).real)
    if tr <= 0:
        raise DomainError("window contains no intensity")
    rho = rho / tr
    return 0.5 * (rho + rho.conj().T)


def model_amplitudes(processes, fiber, pump: PumpSpec, weights: dict):
    """Flat-phase amplitude source straight from the physical model.

    a_j = |c_j| * envelope * |phase-matching|, with c_j from the
    {label: c_j} map ``weights``, evaluated analytically at the
    requested wavelengths (no grid interpolation); one index solve per
    call serves every channel.
    """
    mags = {proc: abs(weights.get(proc.label, 0j)) for proc in processes}

    def amplitudes(ls, li):
        shape = np.broadcast_shapes(np.shape(ls), np.shape(li))
        cache = BaseIndexCache(fiber, np.asarray(ls) / 1000.0,
                               np.asarray(li) / 1000.0)
        envelope = pump_envelope(ls, li, pump)
        return {proc.label: np.broadcast_to(
                    mag * envelope * np.abs(cache.phase_matching(proc)),
                    shape)
                for proc, mag in mags.items() if mag != 0}

    return amplitudes


def lobe_amplitudes(lobes):
    """Flat-phase amplitude source from fitted intensity lobes.

    Each lobe must carry a process label; amplitudes are square roots
    of the fitted Gaussian intensity (lobes sharing a label add in
    intensity).
    """
    groups = {}
    for lobe in lobes:
        if not lobe.process_label:
            raise ConfigError("every lobe needs a process_label")
        groups.setdefault(lobe.process_label, []).append(lobe)

    def amplitudes(ls, li):
        shape = np.broadcast_shapes(np.shape(ls), np.shape(li))
        out = {}
        for label, group in groups.items():
            total = np.zeros(shape)
            # lobes of one label can overflow their sum to inf, which
            # trace_spectral rejects
            with np.errstate(over="ignore"):
                for lobe in group:
                    total += np.maximum(lobe.evaluate(ls, li), 0.0)
            out[label] = np.sqrt(total)
        return out

    return amplitudes


# ---------------------------------------------------------------------------
# two-qubit metrics


_SIGMA_Y_PAIR = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix."""
    rho = validate_density(rho)
    tilde = _SIGMA_Y_PAIR @ rho.conj() @ _SIGMA_Y_PAIR
    eigs = np.linalg.eigvals(rho @ tilde)
    lam = np.sqrt(np.clip(eigs.real, 0.0, None))
    lam.sort()
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def purity(rho: np.ndarray) -> float:
    rho = validate_density(rho)
    return float(np.trace(rho @ rho).real)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    vals = np.clip(vals, 0.0, None)
    # rank-deficient inputs: sqrt amplifies eigenvalue noise, drop it
    vals[vals < 1e-12 * max(vals.max(), 1e-300)] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity, squared convention: (tr sqrt(sqrt(r) s sqrt(r)))^2."""
    rho = validate_density(rho)
    sigma = validate_density(sigma)
    root = _psd_sqrt(rho)
    inner = _psd_sqrt(root @ sigma @ root)
    val = float(np.trace(inner).real) ** 2
    return float(min(max(val, 0.0), 1.0))


def bell_fidelity(rho: np.ndarray) -> float:
    """Overlap with the (|ee> + |oo>)/sqrt(2) Bell state."""
    rho = validate_density(rho)
    return float((BELL_PHI_PLUS.conj() @ rho @ BELL_PHI_PLUS).real)


def metrics_block(rho: np.ndarray) -> dict:
    """Standard metrics bundle reported with every density matrix."""
    bf = bell_fidelity(rho)
    return {
        "concurrence": concurrence(rho),
        "bell_fidelity": bf,
        "bell_fidelity_unsquared": float(np.sqrt(max(bf, 0.0))),
        "purity": purity(rho),
    }
