"""Simulated 36-projector quantum state tomography with Poisson MLE.

Projective coincidence measurements use all products of the six
single-photon states {e, o, d, a, r, l} (three mutually unbiased bases)
on signal and idler.  Reconstruction maximizes the Poisson
log-likelihood over a stack of count records by log-barrier path
following: damped Newton steps on the 15 real parameters of a 4 x 4
density matrix, each step one batched linear solve.  Every iterate is
positive definite, and a record stops only where the KKT conditions
R rho = rho and R <= I (Hradil, PRA 55, R1561, 1997) both hold within
their bounds, or at the step cap.  The bootstrap solves all of its
resamples in one such stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericError
from .estimation import bell_fidelity, concurrence, purity, validate_density
from .fields import NAMED_STATES

STATE_ORDER = ("e", "o", "d", "a", "r", "l")
# the named single-photon states as (e, o) kets
SINGLE_STATES = {s: np.array([NAMED_STATES[s].get(m, 0.0) for m in "eo"],
                             dtype=complex) for s in STATE_ORDER}


@dataclass(frozen=True)
class ProjectorSet:
    """The 36 rank-1 two-photon projectors in canonical order."""

    names: tuple
    projectors: np.ndarray  # (36, 4, 4)


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


MAX_COUNT = 2.0**53  # float64 holds every integer count up to here exactly
# Largest bootstrap a config may ask for: each resample adds about 28 kB
# to the batched solve, so 10 000 of them peak near 330 MB
MAX_BOOTSTRAP_SAMPLES = 10_000


@dataclass
class CountRecord:
    """Observed (or resampled) coincidence counts for the 36 projectors."""

    counts: np.ndarray
    n0: float
    seed: int | None = None

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (36,):
            raise DomainError("expected 36 projector counts")
        if not np.all((self.counts >= 0) & (self.counts <= MAX_COUNT)):
            raise DomainError("counts must be finite, nonnegative and at "
                              "most 2^53")
        if not 0 < self.n0 < np.inf:
            raise DomainError("acquisition scale N0 must be finite and > 0")


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

# A record stops at a centred point where ||R rho - rho||_F <= KKT_TOL
# and lambda_max(R) - 1 <= DUAL_TOL, or after MAX_ITER Newton steps.
KKT_TOL = 1e-8
DUAL_TOL = 1e-6
MAX_ITER = 500
_TAU_START = 0.1     # first barrier weight
_TAU_MIN = 1e-10     # barrier weight floor
_CENTRE_TOL = 1e-8   # centred once the Newton decrement is below this * tau
_ARMIJO = 0.25       # sufficient increase of a backtracked step


@dataclass
class MleResult:
    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    kkt_residual: float
    dual_gap: float
    ll_trace: np.ndarray


@lru_cache(maxsize=1)
def _operators():
    """Read-only (A, G, P): A[k, a] = tr(Pi_k G_a) over the 15 traceless
    two-qubit Pauli products G_a, orthonormal in the Frobenius inner
    product (G as (15, 4, 4)), and the projectors as rows P (36, 16)."""
    paulis = (np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    gens = np.array([np.kron(a, b) / 2.0 for a in paulis for b in paulis][1:],
                    dtype=complex)
    projectors = projector_basis().projectors
    amat = np.einsum("kij,aji->ka", projectors, gens).real
    out = (amat, gens, projectors.reshape(36, 16))
    for arr in out:
        arr.setflags(write=False)
    return out


def _probabilities(rho: np.ndarray, pconj: np.ndarray) -> np.ndarray:
    """tr(Pi_k rho) for a stack of states, shape (B, 36)."""
    return (rho.reshape(-1, 1, 16) * pconj).sum(axis=2).real


def _log_likelihood(p: np.ndarray, counts: np.ndarray,
                    n0: np.ndarray) -> np.ndarray:
    mu = n0[:, None] * np.clip(p, 0.0, None)
    return (counts * np.log(np.maximum(mu, 1e-300)) - mu).sum(axis=1)


def _kkt(rho: np.ndarray, counts: np.ndarray):
    """KKT certificate per record: the residual ||R rho - rho||_F, the
    dual gap sum(c) max(lambda_max(R) - 1, 0) and whether both
    ||R rho - rho||_F <= KKT_TOL and lambda_max(R) - 1 <= DUAL_TOL.

    R = sum_k (c_k / p_k) Pi_k / sum_k c_k over the projectors with
    c_k > 0, rebuilt from ``rho``.  rho maximizes the likelihood iff
    R rho = rho and R <= I (Hradil, PRA 55, R1561, 1997); by concavity
    the dual gap bounds ll* - ll.
    """
    pflat = _operators()[2]
    p = _probabilities(rho, pflat.conj())
    total = counts.sum(axis=1)
    ratio = counts / np.where(counts > 0, p, 1.0) / total[:, None]
    r_op = (ratio[:, :, None] * pflat).sum(axis=1).reshape(-1, 4, 4)
    residual = np.linalg.norm(r_op @ rho - rho, axis=(1, 2))
    excess = np.linalg.eigvalsh(r_op)[:, -1] - 1.0
    return (residual, total * np.maximum(excess, 0.0),
            (residual <= KKT_TOL) & (excess <= DUAL_TOL))


def _step_length(dp: np.ndarray, mu: np.ndarray, weights: np.ndarray,
                 tau: np.ndarray, dec: np.ndarray) -> np.ndarray:
    """Backtracking along a Newton step per record: the largest 2^-j,
    j < 60, that keeps rho positive definite and raises the barrier
    objective by at least _ARMIJO * t * decrement, or 0.

    ``dp`` = d p / p and ``mu`` = eigenvalues of rho^-1/2 d rho rho^-1/2,
    so the change at step t is sum_k w_k log1p(t dp_k) +
    tau sum_i log1p(t mu_i), free of the cancellation of a plain
    difference of two objectives.
    """
    t = np.zeros(len(dec))
    pending = np.arange(len(dec))
    for step in 0.5 ** np.arange(60):
        zp, zm = step * dp[pending], step * mu[pending]
        inside = (zp > -1.0).all(axis=1) & (zm > -1.0).all(axis=1)
        zp[~inside] = zm[~inside] = 0.0
        gain = ((weights[pending] * np.log1p(zp)).sum(axis=1)
                + tau[pending] * np.log1p(zm).sum(axis=1))
        ok = inside & (gain >= _ARMIJO * step * dec[pending])
        t[pending[ok]] = step
        pending = pending[~ok]
        if not pending.size:
            break
    return t


def _solve(counts: np.ndarray, n0: np.ndarray,
           ll_trace: list | None = None):
    """Log-barrier path following over a stack of count records.

    rho = I/4 + sum_a x_a G_a over the 15 orthonormal traceless Pauli
    products G_a, so p = 1/4 + A x, and each record maximizes
    f = sum_k w_k log p_k + tau log det rho with w = c / sum(c) by damped
    Newton steps (Boyd & Vandenberghe, Convex Optimization, 2004, ch. 11).
    A step backtracks on the change of f, computed directly as
    sum_k w_k log1p(dp_k / p_k) + tau log det(I + rho^-1 d rho).  Each
    record starts at I/4 with tau = 0.1; once its decrement g.d / tau is
    below _CENTRE_TOL it is centred, and there R = (1 + 4 tau) I -
    tau rho^-1 up to the centring error, so ||R rho - rho||_F <= ~3.5 tau
    and lambda_max(R) <= 1 + 4 tau.  A centred record stops if both KKT
    conditions hold (``_kkt``) and otherwise cuts tau tenfold, down to
    _TAU_MIN; a record also stops after MAX_ITER steps.  Every operation
    acts on each record alone, so a record's result does not depend on
    the rest of the batch.

    Returns (rho, log-likelihood, steps, KKT residual) per record.  Given
    a list, ``ll_trace`` gets the log-likelihoods at I/4 and at every
    centred point, where they do not fall along the path: one record's
    trace when a single record is solved.
    """
    amat, gens, _ = _operators()
    gflat = gens.reshape(15, 16)
    n_rec = len(counts)
    out_rho = np.empty((n_rec, 4, 4), dtype=complex)
    out_ll = np.empty(n_rec)
    out_steps = np.empty(n_rec, dtype=int)
    out_res = np.empty(n_rec)
    # state of the records still iterating; rows are dropped as they stop
    live = np.arange(n_rec)
    weights = counts / counts.sum(axis=1, keepdims=True)
    x = np.zeros((n_rec, 15))
    tau = np.full(n_rec, _TAU_START)
    it = 0
    while live.size:
        rho = (np.eye(4) / 4.0
               + (x[:, :, None] * gflat).sum(axis=1).reshape(-1, 4, 4))
        p = 0.25 + (amat @ x[:, :, None])[:, :, 0]
        ll = _log_likelihood(p, counts, n0)
        if it == 0 and ll_trace is not None:
            ll_trace.append(ll.copy())
        # whitened generators W^H G_a W, W^H rho W = I, as rows (B, 15, 16)
        s, u = np.linalg.eigh(rho)
        white = u / np.sqrt(s)[:, None, :]
        kron = (white.conj().transpose(0, 2, 1)[:, :, None, :, None]
                * white.transpose(0, 2, 1)[:, None, :, None, :])
        m = gflat @ kron.reshape(-1, 16, 16).transpose(0, 2, 1)
        wp = weights / p
        g_ll = (wp[:, :, None] * amat).sum(axis=1)
        g_bar = m[:, :, ::5].real.sum(axis=2)  # tr(rho^-1 G_a)
        h_ll = amat.T @ (wp[:, :, None] / p[:, :, None] * amat)
        h_bar = (m @ m.conj().transpose(0, 2, 1)).real

        def newton(tau):
            g = g_ll + tau[:, None] * g_bar
            h = h_ll + tau[:, None, None] * h_bar
            d = np.linalg.solve(h, g[:, :, None])[:, :, 0]
            return d, (g * d).sum(axis=1)

        d, dec = newton(tau)
        centred = dec < _CENTRE_TOL * tau
        stop = np.zeros(live.size, dtype=bool)
        if centred.any():
            if ll_trace is not None:
                ll_trace.append(ll[centred])
            stop[centred] = _kkt(rho[centred], counts[centred])[2]
            cut = centred & ~stop & (tau > _TAU_MIN)
            if cut.any():
                tau = np.where(cut, np.maximum(tau * 0.1, _TAU_MIN), tau)
                d, dec = newton(tau)
        stop |= it >= MAX_ITER
        if stop.any():
            done = live[stop]
            out_rho[done], out_ll[done], out_steps[done] = \
                rho[stop], ll[stop], it
            out_res[done] = _kkt(rho[stop], counts[stop])[0]
            keep = ~stop
            live, x, tau, counts, n0, weights = (
                live[keep], x[keep], tau[keep], counts[keep], n0[keep],
                weights[keep])
            p, m, d, dec = p[keep], m[keep], d[keep], dec[keep]
        if live.size:
            dp = (amat @ d[:, :, None])[:, :, 0] / p
            mu = np.linalg.eigvalsh((d[:, None, :] @ m).reshape(-1, 4, 4))
            x += _step_length(dp, mu, weights, tau, dec)[:, None] * d
        it += 1
    return out_rho, out_ll, out_steps, out_res


def mle_reconstruct(record: CountRecord) -> MleResult:
    """Maximum-likelihood density matrix for a count record.

    One log-barrier path following (``_solve``) from I/4: every iterate
    is positive definite, the recorded trace holds the log-likelihood at
    I/4 and at every centred point, and ``converged`` says whether both
    KKT conditions hold; ``dual_gap`` = sum(c) max(lambda_max(R) - 1, 0)
    bounds how far the log-likelihood is below its maximum.
    """
    if record.counts.sum() <= 0:
        raise DomainError("cannot reconstruct from all-zero counts")
    trace: list = []
    counts = record.counts[None, :]
    rho, ll, steps, _ = _solve(counts, np.array([record.n0]), trace)
    residual, gap, converged = _kkt(rho, counts)
    return MleResult(rho=rho[0], log_likelihood=float(ll[0]),
                     iterations=int(steps[0]), converged=bool(converged[0]),
                     kkt_residual=float(residual[0]), dual_gap=float(gap[0]),
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
    draws = np.array(draws)
    rhos = _solve(draws, np.full(len(draws), record.n0))[0]
    converged = _kkt(rhos, draws)[2]
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
                           unconverged=int(np.sum(~converged)),
                           seed=seed)
