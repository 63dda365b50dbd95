"""Two-photon transverse-mode density matrices from spectral data: the
spectral trace-out.

Under the flat joint-spectral-phase assumption, each point of the
joint spectrum carries a pure two-qubit state whose components are the
per-process magnitudes; tracing the spectral degree of freedom out of
the intensity-weighted projectors produces the estimated density
matrix.  Spectral overlap between channels turns into off-diagonal
coherence, spectral separation into an incoherent mixture.  The
metrics of the result are in ``tomography``.

Basis order everywhere: ``config.BASIS_LABELS`` = (ee, eo, oe, oo) on
(signal, idler).
"""

from __future__ import annotations

import numpy as np

from .config import (BASIS_LABELS, ModeSuperposition, PumpSpec,
                     SpectralWindow)
from .errors import ConfigError, DomainError
from .fields import normalize_overlaps
from .processes import BaseIndexCache
from .spectrum import pump_envelope

_BASIS_INDEX = {tuple(label): k for k, label in enumerate(BASIS_LABELS)}


def basis_index(t_s: str, t_i: str) -> int:
    key = (t_s, t_i)
    if key not in _BASIS_INDEX:
        raise DomainError(
            f"output modes {key} outside the two-qubit {{e, o}} space")
    return _BASIS_INDEX[key]


# ---------------------------------------------------------------------------
# process weights


def process_weights(state: ModeSuperposition, overlaps: dict,
                    processes) -> dict:
    """Relative complex coefficients {label: c_j} of the emitted
    channels, normalized so that sum |c_j|^2 = 1.

    c_j is the product of the amplitudes of the two pump modes in the
    pump's transverse ``state`` with the spatial coupling O_j (whose
    mixed-pump exchange doubling already accounts for pump-photon
    indistinguishability).  Raises when every channel weight vanishes
    (e.g. a pump state with no support on the required modes).
    """
    return normalize_overlaps(
        {proc.label: state.amplitude(proc.t_p1)
         * state.amplitude(proc.t_p2) * overlaps.get(proc.label, 0j)
         for proc in processes},
        "all process weights are zero for this pump state")


# ---------------------------------------------------------------------------
# spectral tracing


def trace_spectral(amplitudes, processes, window: SpectralWindow,
                   nodes: int = 101) -> np.ndarray:
    """Integrate pointwise projectors over a window and renormalize.

    ``amplitudes(lam_s[:, None], lam_i[None, :])`` returns a dict from
    process labels to amplitude arrays over the mesh (nm), as
    ``model_amplitudes`` and ``lobe_amplitudes`` build them.  The flat
    joint-spectral-phase assumption is taken here alone: each channel
    enters as its magnitude |a_j|.
    """
    by_label = {p.label: p for p in processes}
    ls, li, _ = window.quadrature(nodes)
    comp = np.zeros((4, nodes, nodes), dtype=complex)
    for label, amp in amplitudes(ls[:, None], li[None, :]).items():
        proc = by_label[label]
        comp[basis_index(proc.t_s, proc.t_i)] += np.abs(amp)
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
    """Amplitude source straight from the physical model.

    a_j = c_j * alpha * phi_j, complex, with c_j from the {label: c_j} map
    ``weights``, the pump envelope alpha and the phase-matching function
    phi_j, evaluated analytically at the requested wavelengths (no grid
    interpolation); one index solve per call serves every channel.  The
    one place this product is formed: ``jsa_grid`` reads it too.
    """
    coefficients = {proc: weights.get(proc.label, 0j) for proc in processes}

    def amplitudes(ls, li):
        cache = BaseIndexCache(fiber, np.asarray(ls) / 1000.0,
                               np.asarray(li) / 1000.0)
        envelope = pump_envelope(ls, li, pump)
        return {proc.label: c_j * envelope * cache.phase_matching(proc)
                for proc, c_j in coefficients.items() if c_j != 0}

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
