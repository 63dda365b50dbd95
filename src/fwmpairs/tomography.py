"""Simulated 36-projector quantum state tomography with Poisson MLE.

Projective coincidence measurements use all products of the six
single-photon states {e, o, d, a, r, l} (three mutually unbiased bases)
on signal and idler.  Reconstruction maximizes the Poisson
log-likelihood with one diluted R rho R iteration (Rehacek et al., PRA
75, 042108, 2007) over a stack of count records: every iterate is a
density matrix, no accepted step lowers the likelihood, and a record
stops on the KKT residual ||R rho - rho||_F (Hradil, PRA 55, R1561,
1997).  The bootstrap solves all of its resamples in one such stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .estimation import bell_fidelity, concurrence, purity, validate_density

SINGLE_STATES = {
    "e": np.array([1.0, 0.0], dtype=complex),
    "o": np.array([0.0, 1.0], dtype=complex),
    "d": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "a": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "r": np.array([1.0, 1j], dtype=complex) / np.sqrt(2.0),
    "l": np.array([1.0, -1j], dtype=complex) / np.sqrt(2.0),
}
STATE_ORDER = ("e", "o", "d", "a", "r", "l")


@dataclass(frozen=True)
class ProjectorSet:
    """The 36 rank-1 two-photon projectors in canonical order."""

    names: tuple
    projectors: np.ndarray  # (36, 4, 4)

    def __len__(self) -> int:
        return len(self.names)


def projector_basis() -> ProjectorSet:
    names = []
    mats = []
    for s in STATE_ORDER:
        for i in STATE_ORDER:
            ket = np.kron(SINGLE_STATES[s], SINGLE_STATES[i])
            names.append(s + i)
            mats.append(np.outer(ket, ket.conj()))
    return ProjectorSet(names=tuple(names), projectors=np.array(mats))


def expected_counts(rho: np.ndarray, n0: float,
                    basis: ProjectorSet | None = None) -> np.ndarray:
    """Expected coincidence rates N0 * tr(Pi_k rho)."""
    rho = validate_density(rho)
    if n0 <= 0:
        raise DomainError("acquisition scale N0 must be > 0")
    if basis is None:
        basis = projector_basis()
    probs = np.einsum("kij,ji->k", basis.projectors, rho).real
    return n0 * np.clip(probs, 0.0, None)


@dataclass
class CountRecord:
    """Observed (or resampled) coincidence counts for the 36 projectors."""

    counts: np.ndarray
    n0: float
    seed: int | None = None
    names: tuple = field(default_factory=lambda: projector_basis().names)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (36,):
            raise DomainError("expected 36 projector counts")
        if np.any(self.counts < 0):
            raise DomainError("counts must be nonnegative")
        if self.n0 <= 0:
            raise DomainError("acquisition scale N0 must be > 0")


def sample_counts(rates: np.ndarray, seed: int, n0: float) -> CountRecord:
    """Independent Poisson draws around ``rates``; reproducible by seed."""
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise DomainError("rates must be nonnegative")
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rates).astype(float)
    return CountRecord(counts=counts, n0=n0, seed=seed)


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction

KKT_TOL = 1e-8      # a record stops once ||R rho - rho||_F <= KKT_TOL
MAX_ITER = 20_000   # ... or after this many accepted steps
_DILUTIONS = (None, 1.0, 0.1, 0.01)


@dataclass
class MleResult:
    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    kkt_residual: float
    ll_trace: np.ndarray


def _probabilities(rho: np.ndarray, pconj: np.ndarray) -> np.ndarray:
    """tr(Pi_k rho) for a stack of states, shape (B, 36)."""
    return (rho.reshape(-1, 1, 16) * pconj).sum(axis=2).real


def _log_likelihood(p: np.ndarray, counts: np.ndarray,
                    n0: np.ndarray) -> np.ndarray:
    mu = n0[:, None] * np.clip(p, 0.0, None)
    return (counts * np.log(np.maximum(mu, 1e-300)) - mu).sum(axis=1)


def _solve(counts: np.ndarray, n0: np.ndarray,
           ll_trace: list | None = None):
    """Diluted R rho R iteration over a stack of count records.

    R = sum_k (c_k / p_k) Pi_k / sum_k c_k over the projectors with
    c_k > 0, so that R rho = rho at the likelihood maximum.  Each record
    starts at I/4 and, in every pass, takes the first of the steps
    rho <- S rho S / tr(S rho S), S in (R, (I + eps R) / (1 + eps)), that
    does not lower its log-likelihood.  A record stops once
    ||R rho - rho||_F <= KKT_TOL, after MAX_ITER steps, or when no
    dilution keeps its likelihood.  Every operation acts on each record
    alone, so a record's result does not depend on the rest of the batch.

    Returns (rho, log-likelihood, steps, KKT residual) per record.  Given
    a list, ``ll_trace`` gets the log-likelihoods of the records still
    iterating at the start of every pass: one record's trace when a
    single record is solved.
    """
    pflat = projector_basis().projectors.reshape(36, 16)
    pconj = pflat.conj()
    eye = np.eye(4)
    n_rec = len(counts)
    out_rho = np.empty((n_rec, 4, 4), dtype=complex)
    out_ll = np.empty(n_rec)
    out_steps = np.empty(n_rec, dtype=int)
    out_res = np.empty(n_rec)
    # state of the records still iterating; rows are dropped as they stop
    live = np.arange(n_rec)
    weights = counts / counts.sum(axis=1, keepdims=True)
    observed = counts > 0
    rho = np.tile(eye / 4.0 + 0j, (n_rec, 1, 1))
    p = _probabilities(rho, pconj)
    ll = _log_likelihood(p, counts, n0)
    it = 0
    while live.size:
        ratio = np.where(observed, weights / np.maximum(p, 1e-300), 0.0)
        r_op = (ratio[:, :, None] * pflat).sum(axis=1).reshape(-1, 4, 4)
        res = np.linalg.norm(r_op @ rho - rho, axis=(1, 2))
        if ll_trace is not None:
            ll_trace.append(ll.copy())
        stop = (res <= KKT_TOL) | (it >= MAX_ITER)
        pending = ~stop
        for eps in _DILUTIONS:
            if not pending.any():
                break
            step = r_op if eps is None else (eye + eps * r_op) / (1.0 + eps)
            cand = step @ rho @ step
            cand /= np.trace(cand, axis1=1, axis2=2).real[:, None, None]
            cand = 0.5 * (cand + cand.conj().transpose(0, 2, 1))
            p_cand = _probabilities(cand, pconj)
            ll_cand = _log_likelihood(p_cand, counts, n0)
            ok = pending & (ll_cand >= ll)
            np.copyto(rho, cand, where=ok[:, None, None])
            np.copyto(p, p_cand, where=ok[:, None])
            np.copyto(ll, ll_cand, where=ok)
            pending &= ~ok
        stop |= pending  # no dilution kept the likelihood
        if stop.any():
            done = live[stop]
            out_rho[done], out_ll[done] = rho[stop], ll[stop]
            out_steps[done], out_res[done] = it, res[stop]
            keep = ~stop
            live, rho, p, ll = live[keep], rho[keep], p[keep], ll[keep]
            counts, n0 = counts[keep], n0[keep]
            weights, observed = weights[keep], observed[keep]
        it += 1
    return out_rho, out_ll, out_steps, out_res


def mle_reconstruct(record: CountRecord) -> MleResult:
    """Maximum-likelihood density matrix for a count record.

    One diluted R rho R iteration (``_solve``) from I/4: every iterate
    is physical, every accepted step keeps the Poisson log-likelihood
    from falling, so the recorded trace is monotone, and ``converged``
    says whether the KKT residual ||R rho - rho||_F reached KKT_TOL.
    """
    if record.counts.sum() <= 0:
        raise DomainError("cannot reconstruct from all-zero counts")
    trace: list = []
    rho, ll, steps, residual = _solve(
        record.counts[None, :], np.array([record.n0]), trace)
    return MleResult(rho=rho[0], log_likelihood=float(ll[0]),
                     iterations=int(steps[0]),
                     converged=bool(residual[0] <= KKT_TOL),
                     kkt_residual=float(residual[0]),
                     ll_trace=np.concatenate(trace))


# ---------------------------------------------------------------------------
# bootstrap error bars


@dataclass
class BootstrapResult:
    means: dict
    stds: dict
    n_samples: int
    failures: int
    unconverged: int
    seed: int


def bootstrap_metrics(record: CountRecord, n_samples: int = 100,
                      seed: int = 0) -> BootstrapResult:
    """Poisson-resample the counts, reconstruct every sample in one
    batched solve and report mean and standard deviation of the
    entanglement metrics.

    Each resample draws from its own child of one master seed; an
    all-zero draw is redrawn up to 3 times and otherwise counted as a
    failure.  Resamples whose solve stopped short of KKT_TOL stay in the
    statistics and are counted as ``unconverged``.
    """
    if n_samples < 2:
        raise DomainError("bootstrap needs n_samples >= 2")
    draws = []
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        rng = np.random.default_rng(child)
        for _ in range(3):
            counts = rng.poisson(record.counts).astype(float)
            if counts.sum() > 0:
                draws.append(counts)
                break
    if not draws:
        raise NumericError("every bootstrap resample failed to reconstruct")
    rhos, _, _, residual = _solve(
        np.array(draws), np.full(len(draws), record.n0))
    means = {}
    stds = {}
    for name, metric in (("concurrence", concurrence),
                         ("bell_fidelity", bell_fidelity),
                         ("purity", purity)):
        vals = np.array([metric(rho) for rho in rhos])
        means[name] = float(vals.mean())
        stds[name] = float(vals.std(ddof=1))
    return BootstrapResult(means=means, stds=stds, n_samples=n_samples,
                           failures=n_samples - len(draws),
                           unconverged=int(np.sum(residual > KKT_TOL)),
                           seed=seed)
