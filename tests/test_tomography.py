import numpy as np
import pytest

from fwmpairs import tomography
from fwmpairs.errors import DomainError, NumericError
from fwmpairs.tomography import (BELL_PHI_PLUS, KKT_TOL, PROJECTOR_NAMES,
                                 PROJECTORS, SINGLE_STATES, CountRecord,
                                 bell_fidelity, bootstrap_metrics,
                                 concurrence, expected_counts, fidelity,
                                 metrics_block, mle_reconstruct, purity,
                                 sample_counts, validate_density)

BELL = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())


def random_mixed(rng, rank=4):
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(rng):
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


SIGMA_YY = np.fliplr(np.diag([-1, 1, 1, -1])).astype(complex)  # sy (x) sy


def per_matrix_metrics(rho):
    """The reference for the stacked metrics: each metric of one matrix
    from its own per-matrix formula."""
    tilde = SIGMA_YY @ rho.conj() @ SIGMA_YY
    lam = np.sqrt(np.clip(np.linalg.eigvals(rho @ tilde).real, 0.0, None))
    lam.sort()
    bf = float((BELL_PHI_PLUS.conj() @ rho @ BELL_PHI_PLUS).real)
    return {"concurrence": float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0])),
            "bell_fidelity": bf,
            "bell_fidelity_unsquared": float(np.sqrt(max(bf, 0.0))),
            "purity": float(np.trace(rho @ rho).real)}


# ---------------------------------------------------------------------------
# projectors


def test_projector_set_size_and_order():
    assert len(PROJECTOR_NAMES) == 36
    assert PROJECTORS.shape == (36, 4, 4)
    assert PROJECTOR_NAMES[0] == "ee"
    assert PROJECTOR_NAMES[1] == "eo"
    assert PROJECTOR_NAMES[-1] == "ll"
    assert not PROJECTORS.flags.writeable


def test_mutually_unbiased_structure():
    # within a basis: orthonormal; across bases: |<x|y>|^2 = 1/2
    bases = (("e", "o"), ("d", "a"), ("r", "l"))
    for bi in bases:
        for bj in bases:
            for x in bi:
                for y in bj:
                    ov = abs(np.vdot(SINGLE_STATES[x], SINGLE_STATES[y])) ** 2
                    if bi is bj:
                        assert ov == pytest.approx(1.0 if x == y else 0.0,
                                                   abs=1e-12)
                    else:
                        assert ov == pytest.approx(0.5, abs=1e-12)


def test_projector_completeness_over_product_basis(rng):
    rho = random_mixed(rng)
    for pair in (("e", "o"), ("d", "a"), ("r", "l")):
        total = 0.0
        for s in pair:
            for i in pair:
                k = PROJECTOR_NAMES.index(s + i)
                total += np.einsum("ij,ji->", PROJECTORS[k], rho).real
        assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# forward model and sampling


def test_expected_counts_for_computational_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |ee><ee|
    rates = expected_counts(rho, 1000.0)
    by = dict(zip(PROJECTOR_NAMES, rates))
    assert by["ee"] == pytest.approx(1000.0)
    assert by["oo"] == pytest.approx(0.0, abs=1e-9)


def test_expected_counts_bell_diagonal_correlations():
    rates = dict(zip(PROJECTOR_NAMES, expected_counts(BELL, 1000.0)))
    assert rates["dd"] == pytest.approx(500.0)
    assert rates["aa"] == pytest.approx(500.0)
    assert rates["da"] == pytest.approx(0.0, abs=1e-9)


def test_expected_counts_basis_sums(rng):
    rho = random_mixed(rng)
    rates = dict(zip(PROJECTOR_NAMES, expected_counts(rho, 1234.5)))
    for pair in (("e", "o"), ("d", "a"), ("r", "l")):
        total = sum(rates[s + i] for s in pair for i in pair)
        assert total == pytest.approx(1234.5, rel=1e-9)


def test_sampling_reproducible_and_zero_safe():
    rates = np.linspace(0.0, 50.0, 36)
    a = sample_counts(rates, seed=99, n0=1000.0)
    b = sample_counts(rates, seed=99, n0=1000.0)
    assert np.array_equal(a.counts, b.counts)
    assert a.counts[0] == 0.0  # rate 0 draws 0 always


def test_sample_mean_matches_rate():
    # law of large numbers on one projector rate
    rate = 40.0
    draws = np.array([
        sample_counts(np.full(36, rate), seed=s, n0=1.0).counts[0]
        for s in range(400)
    ])
    sigma_mean = np.sqrt(rate / len(draws))
    assert abs(draws.mean() - rate) < 3 * sigma_mean


# ---------------------------------------------------------------------------
# maximum likelihood


def test_mle_round_trip_on_exact_rates(rng):
    for _ in range(5):
        rho = random_mixed(rng)
        rates = expected_counts(rho, 5000.0)
        res = mle_reconstruct(CountRecord(counts=rates, n0=5000.0))
        assert fidelity(rho, res.rho) >= 0.999
        validate_density(res.rho)


def test_mle_output_physical_under_noise(rng):
    rho = 0.7 * BELL + 0.3 * np.eye(4) / 4
    rates = expected_counts(rho, 200.0)
    rec = sample_counts(rates, seed=5, n0=200.0)
    res = mle_reconstruct(rec)
    validate_density(res.rho)
    assert np.trace(res.rho).real == pytest.approx(1.0, abs=1e-10)


def r_operator(rho, counts):
    """R = sum_k (c_k / p_k) Pi_k / sum_k c_k over the observed projectors,
    built independently of the solver."""
    p = np.array([np.trace(pi @ rho).real for pi in PROJECTORS])
    r_op = np.zeros((4, 4), dtype=complex)
    for c, pk, pi in zip(counts, p, PROJECTORS):
        if c > 0:
            r_op += c / pk * pi
    return r_op / counts.sum()


def criterion_7_pure_states():
    rng = np.random.default_rng(777)
    for k in range(50):
        if k % 2 == 0:
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            yield np.outer(psi, psi.conj())
        else:
            rng.standard_normal((4, 4))
            rng.standard_normal((4, 4))


def kkt_records():
    """The criterion-7 pure states at exact rates, then Poisson records of
    random rank-2 states at n0 = 1000, 5000 and 20 000."""
    records = [CountRecord(counts=expected_counts(rho, 10000.0),
                           n0=10000.0) for rho in criterion_7_pure_states()]
    for n0, size in ((1000.0, 10), (5000.0, 60), (20000.0, 60)):
        rng = np.random.default_rng(31)
        for k in range(size):
            rho = random_mixed(rng, rank=2)
            records.append(sample_counts(expected_counts(rho, n0),
                                         seed=k, n0=n0))
    return records


def test_mle_satisfies_kkt_conditions():
    # Rho maximizes the likelihood iff R rho = rho and R <= I; the stop
    # guarantees both, the second certifies the likelihood gap
    records = kkt_records()
    # one batched solve; test_batched_solve_matches_single_records ties
    # each row to mle_reconstruct
    rhos, _, _, residual, _, converged = tomography._solve(
        np.array([r.counts for r in records]),
        np.array([r.n0 for r in records]))
    assert np.all(residual <= KKT_TOL) and np.all(converged)
    for rec, rho in zip(records, rhos):
        r_op = r_operator(rho, rec.counts)
        assert np.linalg.norm(r_op @ rho - rho) <= 1e-8
        assert np.linalg.eigvalsh(r_op).max() <= 1.0 + 1e-6


def test_stop_requires_both_kkt_conditions(monkeypatch):
    # with either bound loosened to 1, the other alone must still hold
    rng = np.random.default_rng(5)
    records = [sample_counts(expected_counts(random_mixed(rng, rank=2),
                                             5000.0),
                             seed=k, n0=5000.0) for k in range(6)]
    for loose in ("KKT_TOL", "DUAL_TOL"):
        with monkeypatch.context() as patch:
            patch.setattr(tomography, loose, 1.0)
            results = [mle_reconstruct(rec) for rec in records]
        for rec, res in zip(records, results):
            assert res.converged, loose
            r_op = r_operator(res.rho, rec.counts)
            if loose == "KKT_TOL":
                assert np.linalg.eigvalsh(r_op).max() <= 1.0 + 1e-6
                assert res.dual_gap <= 1e-6 * rec.counts.sum()
            else:
                assert np.linalg.norm(r_op @ res.rho - res.rho) <= 1e-8


def rrhor_reference(counts, tol=1e-8, max_steps=20_000):
    """Diluted R rho R iteration (Rehacek et al., PRA 75, 042108, 2007),
    the slow reference the barrier solver replaced.  Each record starts
    at I/4 and takes the first of R, (I + eps R) / (1 + eps) for
    eps = 1, 0.1, 0.01 that does not lower its likelihood, until
    ||R rho - rho||_F <= tol, max_steps, or no step keeps the likelihood.
    """
    pflat = PROJECTORS.reshape(36, 16)
    eye = np.eye(4)
    out = np.empty((len(counts), 4, 4), dtype=complex)
    live = np.arange(len(counts))
    weights = counts / counts.sum(axis=1, keepdims=True)
    observed = weights > 0

    def likelihood(rho, weights, observed):
        p = (rho.reshape(-1, 1, 16) * pflat.conj()).sum(axis=2).real
        p_obs = np.where(observed, p, 1.0)
        return p_obs, (weights * np.log(p_obs)).sum(axis=1)

    rho = np.tile(eye / 4.0 + 0j, (len(counts), 1, 1))
    p, ll = likelihood(rho, weights, observed)
    for step in range(max_steps + 1):
        r_op = ((np.where(observed, weights / p, 0.0))[:, :, None]
                * pflat).sum(axis=1).reshape(-1, 4, 4)
        stop = ((np.linalg.norm(r_op @ rho - rho, axis=(1, 2)) <= tol)
                | (step == max_steps))
        pending = ~stop
        for eps in (None, 1.0, 0.1, 0.01):
            if not pending.any():
                break
            s = r_op if eps is None else (eye + eps * r_op) / (1.0 + eps)
            cand = s @ rho @ s
            cand /= np.trace(cand, axis1=1, axis2=2).real[:, None, None]
            p_cand, ll_cand = likelihood(cand, weights, observed)
            ok = pending & (ll_cand >= ll)
            rho[ok], p[ok], ll[ok] = cand[ok], p_cand[ok], ll_cand[ok]
            pending &= ~ok
        stop |= pending
        out[live[stop]] = rho[stop]
        keep = ~stop
        live, rho, p, ll = live[keep], rho[keep], p[keep], ll[keep]
        weights, observed = weights[keep], observed[keep]
        if not live.size:
            return out


def test_mle_within_dual_gap_of_rrhor_reference():
    # ll_new <= ll* <= ll_new + dual_gap, so no physical state, the
    # reference's included, may beat the certificate; and the reference's
    # own gap bounds it from the other side
    records = kkt_records()
    counts = np.array([r.counts for r in records])
    n0 = np.array([r.n0 for r in records])
    rho, ll, _, _, gap, _ = tomography._solve(counts, n0)
    ref = rrhor_reference(counts)
    ll_ref = tomography._log_likelihood(
        tomography._probabilities(
            ref, PROJECTORS.reshape(36, 16).conj()),
        counts, n0)
    gap_ref = tomography._kkt(ref, counts)[1]
    assert np.all(gap <= 1e-6 * counts.sum(axis=1))
    assert np.all(ll_ref <= ll + gap)
    assert np.all(ll <= ll_ref + gap_ref)


def test_batched_solve_matches_single_records():
    rng = np.random.default_rng(8)
    records = [sample_counts(expected_counts(random_mixed(rng, rank=2),
                                             300.0 * (k + 1)),
                             seed=k, n0=300.0 * (k + 1)) for k in range(8)]
    rho, ll, steps, residual, _, converged = tomography._solve(
        np.array([r.counts for r in records]),
        np.array([r.n0 for r in records]))
    for k, rec in enumerate(records):
        res = mle_reconstruct(rec)
        assert np.max(np.abs(res.rho - rho[k])) <= 1e-14
        assert res.log_likelihood == pytest.approx(ll[k], abs=1e-14, rel=0)
        assert res.iterations == steps[k]
        assert res.kkt_residual == pytest.approx(residual[k], abs=1e-14)
        assert res.converged == converged[k]


def test_batched_solve_is_bitwise_per_record_at_the_rank_boundary(
        monkeypatch):
    # the benchmark's regime: a near-pure state like its 1 nm window
    # (eigenvalues 0.9875 and 0.0125, purity 0.975) at n0 = 1000, solved
    # in one stack with its 34 bootstrap resamples
    rho = 0.9875 * BELL + 0.0125 * np.diag([0, 1, 0, 0]).astype(complex)
    rec = sample_counts(expected_counts(rho, 1000.0), seed=4242, n0=1000.0)
    solve, stacks = tomography._solve, []

    def keep_counts(counts, n0):
        stacks.append(counts)
        return solve(counts, n0)

    with monkeypatch.context() as patch:
        patch.setattr(tomography, "_solve", keep_counts)
        bootstrap_metrics(rec, n_samples=34, seed=4242)
    counts = np.r_[rec.counts[None, :], stacks[0]]
    n0 = np.full(len(counts), rec.n0)
    batch = tomography._solve(counts, n0)
    assert np.all(batch[5])
    for k in range(len(counts)):
        single = tomography._solve(counts[k:k + 1], n0[k:k + 1])
        for name, b, s in zip(("rho", "ll", "steps", "converged"),
                              (batch[i] for i in (0, 1, 2, 5)),
                              (single[i] for i in (0, 1, 2, 5))):
            assert np.array_equal(b[k:k + 1], s), (k, name)


def test_mle_reports_iteration_cap(monkeypatch):
    rates = expected_counts(0.7 * BELL + 0.3 * np.eye(4) / 4, 500.0)
    rec = CountRecord(counts=np.round(rates), n0=500.0)
    uncapped = mle_reconstruct(rec)
    monkeypatch.setattr(tomography, "MAX_ITER", 5)
    res = mle_reconstruct(rec)
    assert res.converged is False
    assert res.iterations == tomography.MAX_ITER
    assert res.kkt_residual > KKT_TOL
    validate_density(res.rho)
    # the uncapped solve's dual gap bounds every feasible log-likelihood
    assert uncapped.converged
    assert res.log_likelihood <= uncapped.log_likelihood + uncapped.dual_gap
    boot = bootstrap_metrics(rec, n_samples=6, seed=1)
    assert boot.unconverged == 6 and boot.failures == 0


def test_mle_rejects_all_zero_counts():
    with pytest.raises(DomainError):
        mle_reconstruct(CountRecord(counts=np.zeros(36), n0=100.0))


def test_count_record_validation():
    with pytest.raises(DomainError):
        CountRecord(counts=np.zeros(35), n0=100.0)
    with pytest.raises(DomainError):
        CountRecord(counts=-np.ones(36), n0=100.0)
    with pytest.raises(DomainError):
        CountRecord(counts=np.ones(36), n0=0.0)
    for bad in (np.nan, np.inf, 2.0**53 + 2.0):
        with pytest.raises(DomainError):
            CountRecord(counts=np.r_[np.ones(35), bad], n0=100.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError):
            CountRecord(counts=np.ones(36), n0=bad)
    CountRecord(counts=np.full(36, 2.0**53), n0=100.0)


# ---------------------------------------------------------------------------
# bootstrap


def test_bootstrap_defaults_and_determinism(monkeypatch):
    rho = 0.8 * BELL + 0.2 * np.eye(4) / 4
    rates = expected_counts(rho, 500.0)
    rec = sample_counts(rates, seed=3, n0=500.0)
    solve, solved = tomography._solve, []

    def keep_states(*args):
        out = solve(*args)
        solved.append(out[0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(tomography, "_solve", keep_states)
        a = bootstrap_metrics(rec, n_samples=25, seed=7)
    # the stacked metrics give the statistics of a per-matrix loop, bitwise
    assert len(solved) == 1 and len(solved[0]) == 25
    ref = [per_matrix_metrics(r) for r in solved[0]]
    assert set(a.means) == set(a.stds) == {"concurrence", "bell_fidelity",
                                           "purity"}
    for name in a.means:
        vals = np.array([m[name] for m in ref])
        assert a.means[name] == float(vals.mean())
        assert a.stds[name] == float(vals.std(ddof=1))
    b = bootstrap_metrics(rec, n_samples=25, seed=7)
    assert a.means == b.means and a.stds == b.stds
    assert a.failures == 0
    c = bootstrap_metrics(rec, n_samples=25, seed=8)
    assert c.means != a.means  # different master seed, different draws


def test_bootstrap_std_shrinks_with_counts():
    rho = 0.7 * BELL + 0.3 * np.eye(4) / 4
    stds = {}
    for n0 in (200.0, 20000.0):
        rates = expected_counts(rho, n0)
        rec = CountRecord(counts=np.round(rates), n0=n0)
        stds[n0] = bootstrap_metrics(rec, n_samples=40, seed=11).stds
    for key in ("concurrence", "bell_fidelity", "purity"):
        assert stds[20000.0][key] * 3.0 <= stds[200.0][key]


def test_bootstrap_nearly_deterministic_at_huge_counts():
    rho = 0.7 * BELL + 0.3 * np.eye(4) / 4
    n0 = 2e6
    rates = expected_counts(rho, n0)
    rec = CountRecord(counts=rates, n0=n0)
    boot = bootstrap_metrics(rec, n_samples=20, seed=13)
    for key, std in boot.stds.items():
        assert std < 0.01, key


def test_bootstrap_needs_two_samples():
    rec = CountRecord(counts=np.ones(36), n0=10.0)
    with pytest.raises(DomainError):
        bootstrap_metrics(rec, n_samples=1, seed=0)
    # one count in all: under seed 9 one of two resamples draws only zeros
    # three times, and one survivor has no spread
    counts = np.zeros(36)
    counts[0] = 1.0
    with pytest.raises(NumericError, match="1 of 2 bootstrap resamples"):
        bootstrap_metrics(CountRecord(counts=counts, n0=100.0), n_samples=2,
                          seed=9)


# ---------------------------------------------------------------------------
# regression fixture for the reported tomography metrics


def reported_qst_like_state():
    """An X-basis state built to reproduce the reported tomography
    metrics (concurrence 0.27, Bell fidelity 0.48, purity 0.52); used to
    validate the metrics code, not the reconstruction."""
    # diag (d1, q, 0, d2) with ee-oo coherence c:
    #   concurrence = 2 c, bell fidelity = (d1 + d2)/2 + c,
    #   purity = d1^2 + d2^2 + q^2 + 2 c^2, trace = d1 + d2 + q = 1
    c = 0.135
    q = 0.31
    s = 0.69           # d1 + d2
    p2 = 0.52 - q**2 - 2 * c**2
    disc = np.sqrt(2 * p2 - s**2)
    d1 = 0.5 * (s + disc)
    d2 = 0.5 * (s - disc)
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[1, 1], rho[3, 3] = d1, q, d2
    rho[0, 3] = rho[3, 0] = c
    return rho


def test_stacked_metrics_match_per_matrix_loop(rng):
    # random states of every rank, rank-1 Bell and product states and the
    # maximally mixed state, scored as one stack and one matrix at a time
    ket = np.kron(SINGLE_STATES["d"], SINGLE_STATES["r"])
    states = np.array([random_mixed(rng, rank=1 + k % 4) for k in range(40)]
                      + [random_pure(rng) for _ in range(4)]
                      + [BELL, np.outer(ket, ket.conj()),
                         np.diag([0, 1, 0, 0]).astype(complex),
                         np.eye(4, dtype=complex) / 4])
    stacked = metrics_block(states)
    ref = [per_matrix_metrics(rho) for rho in states]
    for name, values in stacked.items():
        assert values.shape == (len(states),)
        assert values.tobytes() == np.array([m[name] for m in ref]).tobytes()
        for rho, m in zip(states, ref):
            one = metrics_block(rho)[name]
            assert type(one) is np.float64 and one == m[name]
    grid = metrics_block(states[:6].reshape(2, 3, 4, 4))
    assert np.array_equal(grid["purity"], stacked["purity"][:6].reshape(2, 3))


def test_reported_metrics_fixture():
    rho = reported_qst_like_state()
    validate_density(rho)
    assert concurrence(rho) == pytest.approx(0.27, abs=0.03)
    assert bell_fidelity(rho) == pytest.approx(0.48, abs=0.02)
    assert purity(rho) == pytest.approx(0.52, abs=0.01)


def test_reported_metrics_survive_tomography_round_trip():
    rho = reported_qst_like_state()
    rates = expected_counts(rho, 10000.0)
    res = mle_reconstruct(CountRecord(counts=rates, n0=10000.0))
    assert concurrence(res.rho) == pytest.approx(0.27, abs=0.03)
    assert bell_fidelity(res.rho) == pytest.approx(0.48, abs=0.02)
    assert purity(res.rho) == pytest.approx(0.52, abs=0.01)
