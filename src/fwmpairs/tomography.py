"""Two-qubit metrics and simulated 36-projector quantum state tomography
with Poisson MLE.

Every density matrix, estimated or reconstructed, is checked by
``validate_density`` and reported through ``metrics_block``: Wootters
concurrence, Bell-state fidelity and purity.  Each takes one (4, 4) matrix
or a (..., 4, 4) stack, and a stacked value equals the one-matrix value
bitwise.

Projective coincidence measurements use all products of the six
single-photon states {e, o, d, a, r, l} (three mutually unbiased bases)
on signal and idler.  Reconstruction maximizes the Poisson
log-likelihood over a stack of count records by log-barrier path
following: damped Newton steps on the 15 real parameters of a 4 x 4
density matrix, each step one batched linear solve, with the barrier
weight cut a hundredfold at each loosely centred point.  Every iterate
is positive definite, and a record stops only where the KKT conditions
R rho = rho and R <= I (Hradil, PRA 55, R1561, 1997) both hold within
their bounds, or at the step cap.  Each contraction over projectors or
generators is a matmul over a stack of one-row matrices, (B, 1, n) @
(n, m), which runs the same kernel on every record whatever B is: a
record's result does not depend on its batch, bitwise.  The bootstrap
solves all of its resamples in one such stack and scores them with one
``metrics_block`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import MAX_COUNT, NAMED_STATES
from .errors import DomainError, NumericError

# ---------------------------------------------------------------------------
# two-qubit states and metrics

BELL_PHI_PLUS = np.zeros(4, dtype=complex)
BELL_PHI_PLUS[0] = BELL_PHI_PLUS[3] = 1.0 / np.sqrt(2.0)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check entry magnitudes, Hermiticity, unit trace and positivity of
    a matrix or of every matrix of a stack; returns the input."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise DomainError(f"expected a 4x4 matrix, got {rho.shape}")
    # |rho_rc| <= 1 holds for every density matrix; larger entries would
    # also overflow the checks below
    if np.max(np.abs(rho)) > 1.0 + TRACE_TOL:
        raise DomainError(
            f"matrix entry of magnitude {np.max(np.abs(rho)):.3e} exceeds 1")
    adjoint = rho.conj().swapaxes(-1, -2)
    if np.max(np.abs(rho - adjoint)) > HERMITICITY_TOL:
        raise DomainError("matrix is not Hermitian within tolerance")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if (np.abs([trace.real - 1.0, trace.imag]) > TRACE_TOL).any():
        raise DomainError("matrix trace differs from 1")
    eigs = np.linalg.eigvalsh(0.5 * (rho + adjoint))
    if eigs.min() < -PSD_TOL:
        raise DomainError(
            f"matrix has negative eigenvalue {eigs.min():.3e}")
    return rho


_SIGMA_Y_PAIR = np.array([
    [0, 0, 0, -1],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [-1, 0, 0, 0],
], dtype=complex)



def concurrence(rho: np.ndarray):
    """Wootters concurrence of a two-qubit density matrix."""
    rho = validate_density(rho)
    tilde = _SIGMA_Y_PAIR @ rho.conj() @ _SIGMA_Y_PAIR
    eigs = np.linalg.eigvals(rho @ tilde)
    lam = np.sort(np.sqrt(np.clip(eigs.real, 0.0, None)), axis=-1)
    return np.maximum(
        0.0, lam[..., 3] - lam[..., 2] - lam[..., 1] - lam[..., 0])


def purity(rho: np.ndarray):
    rho = validate_density(rho)
    return np.trace(rho @ rho, axis1=-2, axis2=-1).real


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


def bell_fidelity(rho: np.ndarray):
    """Overlap with the (|ee> + |oo>)/sqrt(2) Bell state."""
    rho = validate_density(rho)
    # (1, 4) @ rho @ (4, 1) rounds a stack as one matrix; [()] unwraps 0-d
    val = BELL_PHI_PLUS.conj()[None, :] @ rho @ BELL_PHI_PLUS[:, None]
    return val[..., 0, 0].real[()]


def metrics_block(rho: np.ndarray) -> dict:
    """Standard metrics bundle reported with every density matrix."""
    bf = bell_fidelity(rho)
    return {
        "concurrence": concurrence(rho),
        "bell_fidelity": bf,
        "bell_fidelity_unsquared": np.sqrt(np.maximum(bf, 0.0)),
        "purity": purity(rho),
    }


# ---------------------------------------------------------------------------
# projective measurements

STATE_ORDER = ("e", "o", "d", "a", "r", "l")
# the named single-photon states as (e, o) kets
SINGLE_STATES = {s: np.array([NAMED_STATES[s].get(m, 0.0) for m in "eo"],
                             dtype=complex) for s in STATE_ORDER}
# The 36 rank-1 two-photon projectors |s i><s i| in canonical order, the
# signal state major, and their names "si"; read-only.
PROJECTOR_NAMES = tuple(s + i for s in STATE_ORDER for i in STATE_ORDER)
_KETS = np.array([np.kron(SINGLE_STATES[s], SINGLE_STATES[i])
                  for s, i in PROJECTOR_NAMES])
PROJECTORS = _KETS[:, :, None] * _KETS[:, None, :].conj()
PROJECTORS.setflags(write=False)


def expected_counts(rho: np.ndarray, n0: float) -> np.ndarray:
    """Expected coincidence rates N0 * tr(Pi_k rho)."""
    rho = validate_density(rho)
    probs = np.einsum("kij,ji->k", PROJECTORS, rho).real
    return n0 * np.clip(probs, 0.0, None)


@dataclass
class CountRecord:
    """Observed (or resampled) coincidence counts for the 36 projectors."""

    counts: np.ndarray
    n0: float

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
    rng = np.random.default_rng(seed)
    counts = rng.poisson(rates).astype(float)
    return CountRecord(counts=counts, n0=n0)


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction

# A record stops at a centred point where ||R rho - rho||_F <= KKT_TOL
# and lambda_max(R) - 1 <= DUAL_TOL, or after MAX_ITER Newton steps.
KKT_TOL = 1e-8
DUAL_TOL = 1e-6
MAX_ITER = 500
_TAU_START = 0.1     # first barrier weight
_TAU_CUT = 0.01      # factor on tau at each centred point
_TAU_MIN = 1e-10     # barrier weight floor
_CENTRE_TOL = 1e-2   # centred once the Newton decrement is below this * tau
_ARMIJO = 0.25       # sufficient increase of a backtracked step


@dataclass
class MleResult:
    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    kkt_residual: float
    dual_gap: float


@lru_cache(maxsize=1)
def _operators():
    """Read-only (A, G, P): A[k, a] = tr(Pi_k G_a) over the 15 traceless
    two-qubit Pauli products G_a, orthonormal in the Frobenius inner
    product (G as (15, 4, 4)), and the projectors as rows P (36, 16)."""
    paulis = (np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    gens = np.array([np.kron(a, b) / 2.0 for a in paulis for b in paulis][1:],
                    dtype=complex)
    amat = np.einsum("kij,aji->ka", PROJECTORS, gens).real
    out = (amat, gens, PROJECTORS.reshape(36, 16))
    for arr in out:
        arr.setflags(write=False)
    return out


def _probabilities(rho: np.ndarray, pconj: np.ndarray) -> np.ndarray:
    """tr(Pi_k rho) for a stack of states, shape (B, 36)."""
    return (rho.reshape(-1, 1, 16) @ pconj.T)[:, 0].real


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
    r_op = (ratio[:, None, :] @ pflat).reshape(-1, 4, 4)
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


def _solve(counts: np.ndarray, n0: np.ndarray):
    """Log-barrier path following over a stack of count records.

    rho = I/4 + sum_a x_a G_a over the 15 orthonormal traceless Pauli
    products G_a, so p = 1/4 + A x, and each record maximizes
    f = sum_k w_k log p_k + tau log det rho with w = c / sum(c) by damped
    Newton steps (Boyd & Vandenberghe, Convex Optimization, 2004, ch. 11).
    A step backtracks on the change of f, computed directly as
    sum_k w_k log1p(dp_k / p_k) + tau log det(I + rho^-1 d rho).  Each
    record starts at I/4 with tau = _TAU_START; once its decrement
    g.d / tau is below _CENTRE_TOL it is centred.  On the central path
    R = (1 + 4 tau) I - tau rho^-1, so ||R rho - rho||_F <= ~3.5 tau and
    lambda_max(R) <= 1 + 4 tau, and a centred point lies near it.  A
    centred record stops if both KKT conditions hold (``_kkt``) and
    otherwise multiplies tau by _TAU_CUT, down to _TAU_MIN; a record also
    stops after MAX_ITER steps.  The stop checks the certificate itself,
    so how closely the path is followed sets only the cost: a larger cut
    means fewer centrings and more Newton steps in each (Boyd &
    Vandenberghe, section 11.3), and _TAU_CUT and _CENTRE_TOL were
    chosen together from a measured sweep (README).  Every operation
    acts on each record alone, so a record's result does not depend on
    the rest of the batch.

    Returns rho, the log-likelihood, the steps and the ``_kkt`` residual,
    dual gap and converged flag, each per record.
    """
    amat, gens, _ = _operators()
    gflat = gens.reshape(15, 16)
    n_rec = len(counts)
    out_rho = np.empty((n_rec, 4, 4), dtype=complex)
    out_ll = np.empty(n_rec)
    out_steps = np.empty(n_rec, dtype=int)
    out_res = np.empty(n_rec)
    out_gap = np.empty(n_rec)
    out_conv = np.empty(n_rec, dtype=bool)
    # state of the records still iterating; rows are dropped as they stop
    live = np.arange(n_rec)
    weights = counts / counts.sum(axis=1, keepdims=True)
    x = np.zeros((n_rec, 15))
    tau = np.full(n_rec, _TAU_START)
    it = 0
    while live.size:
        rho = np.eye(4) / 4.0 + (x[:, None, :] @ gflat).reshape(-1, 4, 4)
        p = 0.25 + (x[:, None, :] @ amat.T)[:, 0]
        ll = _log_likelihood(p, counts, n0)
        # whitened generators W^H G_a W, W^H rho W = I, as rows (B, 15, 16)
        s, u = np.linalg.eigh(rho)
        white = u / np.sqrt(s)[:, None, :]
        kron = (white.conj().transpose(0, 2, 1)[:, :, None, :, None]
                * white.transpose(0, 2, 1)[:, None, :, None, :])
        m = gflat @ kron.reshape(-1, 16, 16).transpose(0, 2, 1)
        wp = weights / p
        g_ll = (wp[:, None, :] @ amat)[:, 0]
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
        # the certificate of this pass's rho, evaluated where a record
        # may stop: centred, or at the step cap
        check = centred | (it >= MAX_ITER)
        res, gap = np.empty(live.size), np.empty(live.size)
        conv = np.zeros(live.size, dtype=bool)
        if check.any():
            res[check], gap[check], conv[check] = _kkt(
                rho[check], counts[check])
            cut = centred & ~conv & (tau > _TAU_MIN)
            if cut.any():
                tau = np.where(cut, np.maximum(tau * _TAU_CUT, _TAU_MIN), tau)
                d, dec = newton(tau)
        stop = conv | (it >= MAX_ITER)
        if stop.any():
            done = live[stop]
            out_rho[done], out_ll[done], out_steps[done] = \
                rho[stop], ll[stop], it
            out_res[done], out_gap[done], out_conv[done] = \
                res[stop], gap[stop], conv[stop]
            keep = ~stop
            live, x, tau, counts, n0, weights = (
                live[keep], x[keep], tau[keep], counts[keep], n0[keep],
                weights[keep])
            p, m, d, dec = p[keep], m[keep], d[keep], dec[keep]
        if live.size:
            dp = (d[:, None, :] @ amat.T)[:, 0] / p
            mu = np.linalg.eigvalsh((d[:, None, :] @ m).reshape(-1, 4, 4))
            x += _step_length(dp, mu, weights, tau, dec)[:, None] * d
        it += 1
    return out_rho, out_ll, out_steps, out_res, out_gap, out_conv


def mle_reconstruct(record: CountRecord) -> MleResult:
    """Maximum-likelihood density matrix for a count record.

    One log-barrier path following (``_solve``) from I/4: every iterate
    is positive definite, and ``converged`` says whether both KKT
    conditions hold; ``dual_gap`` = sum(c) max(lambda_max(R) - 1, 0)
    bounds how far the log-likelihood is below its maximum.
    """
    if record.counts.sum() <= 0:
        raise DomainError("cannot reconstruct from all-zero counts")
    rho, ll, steps, residual, gap, converged = _solve(
        record.counts[None, :], np.array([record.n0]))
    return MleResult(rho=rho[0], log_likelihood=float(ll[0]),
                     iterations=int(steps[0]), converged=bool(converged[0]),
                     kkt_residual=float(residual[0]), dual_gap=float(gap[0]))


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


def bootstrap_metrics(record: CountRecord, n_samples: int,
                      seed: int) -> BootstrapResult:
    """Poisson-resample the counts, reconstruct every sample in one
    batched solve and report mean and standard deviation of the
    entanglement metrics.

    Each resample draws from its own child of one master seed; an
    all-zero draw is redrawn up to 3 times and otherwise counted as a
    failure, and fewer than 2 surviving resamples raise NumericError.
    Resamples whose solve stopped short of KKT_TOL stay in the statistics
    and are counted as ``unconverged``.
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
    if len(draws) < 2:
        raise NumericError(f"{len(draws)} of {n_samples} bootstrap resamples "
                           "drew any counts; their spread needs at least 2")
    draws = np.array(draws)
    rhos, *_, converged = _solve(draws, np.full(len(draws), record.n0))
    block = metrics_block(rhos)
    # the bootstrap reports the squared-convention Bell fidelity only
    del block["bell_fidelity_unsquared"]
    return BootstrapResult(
        means={k: float(v.mean()) for k, v in block.items()},
        stds={k: float(v.std(ddof=1)) for k, v in block.items()},
        n_samples=n_samples, failures=n_samples - len(draws),
        unconverged=int(np.sum(~converged)), seed=seed)
