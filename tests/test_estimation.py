import numpy as np
import pytest

from fwmpairs.errors import ConfigError, DomainError
from fwmpairs.config import (FiberSpec, GaussianLobe, ModeSuperposition,
                             SpectralWindow)
from fwmpairs.estimation import (basis_index, lobe_amplitudes,
                                 model_amplitudes, process_weights,
                                 trace_spectral)
from fwmpairs.processes import FwmProcess
from fwmpairs.tomography import (BELL_PHI_PLUS, bell_fidelity, concurrence,
                                 fidelity, metrics_block, purity,
                                 validate_density)

BELL = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
MIXED4 = np.eye(4, dtype=complex) / 4.0

PROC_A = FwmProcess("e", "o", "o", "e")
PROC_B = FwmProcess("o", "o", "o", "o")
PROC_C = FwmProcess("e", "e", "e", "e")
PROC_D = FwmProcess("e", "o", "e", "o")
ABCD = [PROC_A, PROC_B, PROC_C, PROC_D]


def bc_lobe(center_i, center_s=678.0, sigma=0.5, amp=1.0, label=""):
    return GaussianLobe(center_s_nm=center_s, center_i_nm=center_i,
                        sigma_major_nm=sigma, sigma_minor_nm=sigma,
                        orientation_rad=0.0, amplitude=amp,
                        process_label=label)


# ---------------------------------------------------------------------------
# weights


def intensities(weights: dict) -> dict:
    """Channel intensities |c_j|^2 of a weight map."""
    return {k: abs(v) ** 2 for k, v in weights.items()}


def test_even_pump_kills_odd_pump_channels(overlaps_abcd):
    m = intensities(process_weights(ModeSuperposition.named("e"),
                                    overlaps_abcd, ABCD))
    assert m["B"] == 0.0
    assert m["D"] == 0.0
    assert m["A"] == 0.0  # also needs one odd pump photon
    assert m["C"] == pytest.approx(1.0)


def test_odd_pump_leaves_only_odd_pair_channels(overlaps_abcd, processes_eo):
    m = intensities(process_weights(ModeSuperposition.named("o"),
                                    {**overlaps_abcd, "E": 0.3},
                                    processes_eo))
    assert m["A"] == m["C"] == m["D"] == 0.0
    assert m["B"] > 0 and m["E"] > 0


def test_diagonal_pump_factor_two_for_mixed_pairs(overlaps_abcd):
    m = intensities(process_weights(ModeSuperposition.named("d"),
                                    overlaps_abcd, ABCD))
    # with equal pump amplitudes the channel intensities follow the
    # squared overlaps (what makes the identical-mode lobes brighter)
    assert m["B"] > m["A"]
    assert m["C"] > m["D"]
    assert m["A"] / m["C"] == pytest.approx(
        abs(overlaps_abcd["A"]) ** 2 / abs(overlaps_abcd["C"]) ** 2, rel=1e-9)


def test_weights_normalized(overlaps_abcd):
    w = process_weights(ModeSuperposition.named("d"), overlaps_abcd, ABCD)
    assert sum(intensities(w).values()) == pytest.approx(1.0, abs=1e-12)


def test_all_zero_weights_rejected(overlaps_abcd):
    with pytest.raises(DomainError):
        process_weights(ModeSuperposition.named("g"), overlaps_abcd, ABCD)


# ---------------------------------------------------------------------------
# spectral tracing


def test_coincident_equal_lobes_give_bell_state():
    lobes = [bc_lobe(570.8, label="B"), bc_lobe(570.8, label="C")]
    amps = lobe_amplitudes(lobes)
    win = SpectralWindow((675.0, 681.0), (568.0, 573.6))
    rho = trace_spectral(amps, [PROC_B, PROC_C], win)
    assert concurrence(rho) >= 0.999
    assert np.allclose(rho, BELL, atol=1e-6)


def test_disjoint_lobes_give_incoherent_mixture():
    # separation of 15 sigma: overlap below 1e-9 everywhere
    lobes = [bc_lobe(567.0, sigma=0.4, label="B"),
             bc_lobe(573.0, sigma=0.4, label="C")]
    amps = lobe_amplitudes(lobes)
    win = SpectralWindow((672.0, 684.0), (564.0, 576.0))
    rho = trace_spectral(amps, [PROC_B, PROC_C], win, nodes=161)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.max(np.abs(rho - expect)) < 1e-9
    assert concurrence(rho) <= 1e-3


def test_window_additivity():
    lobes = [bc_lobe(570.2, label="B"), bc_lobe(571.4, label="C")]
    amps = lobe_amplitudes(lobes)
    w1 = SpectralWindow((676.0, 678.0), (569.0, 571.0))
    w2 = SpectralWindow((676.0, 678.0), (571.0, 573.0))
    w12 = SpectralWindow((676.0, 678.0), (569.0, 573.0))
    nodes = 120
    rho1 = trace_spectral(amps, [PROC_B, PROC_C], w1, nodes=nodes)
    rho2 = trace_spectral(amps, [PROC_B, PROC_C], w2, nodes=nodes)
    rho12 = trace_spectral(amps, [PROC_B, PROC_C], w12, nodes=2 * nodes)

    # intensity weights of the two halves
    def mass(win, n):
        ls, li, da = win.quadrature(n)
        total = np.zeros((n, n))
        for amp in amps(ls[:, None], li[None, :]).values():
            total += amp ** 2
        return total.sum() * da

    m1, m2 = mass(w1, nodes), mass(w2, nodes)
    mix = (m1 * rho1 + m2 * rho2) / (m1 + m2)
    assert np.max(np.abs(mix - rho12)) < 1e-12


def test_rescaling_invariance():
    lobes = [bc_lobe(570.2, label="B"), bc_lobe(571.4, label="C")]
    scaled = [bc_lobe(570.2, amp=7.3, label="B"),
              bc_lobe(571.4, amp=7.3, label="C")]
    win = SpectralWindow((676.0, 680.0), (569.5, 572.1))
    a = trace_spectral(lobe_amplitudes(lobes), [PROC_B, PROC_C], win)
    b = trace_spectral(lobe_amplitudes(scaled), [PROC_B, PROC_C], win)
    assert np.max(np.abs(a - b)) < 1e-12


def test_window_narrowing_never_decreases_concurrence():
    lobes = [bc_lobe(570.2, label="B"), bc_lobe(571.4, label="C")]
    amps = lobe_amplitudes(lobes)
    mid_i, mid_s = 570.8, 678.0
    prev = -1.0
    for width in (4.0, 2.0, 1.0, 0.5, 0.25):
        win = SpectralWindow((mid_s - width / 2, mid_s + width / 2),
                             (mid_i - width / 2, mid_i + width / 2))
        c = concurrence(trace_spectral(amps, [PROC_B, PROC_C], win))
        assert c >= prev - 1e-9
        prev = c


def test_zero_intensity_window_rejected():
    lobes = [bc_lobe(570.0, sigma=0.1, label="B")]
    win = SpectralWindow((690.0, 695.0), (574.0, 576.0))
    with pytest.raises(DomainError):
        trace_spectral(lobe_amplitudes(lobes), [PROC_B], win)


def test_trace_rejects_fundamental_mode_channels():
    gg = FwmProcess("g", "g", "g", "g")
    lobes = [bc_lobe(570.8, label=gg.label)]
    win = SpectralWindow((675.0, 681.0), (568.0, 573.6))
    with pytest.raises(DomainError, match="outside the two-qubit"):
        trace_spectral(lobe_amplitudes(lobes), [gg], win)


def test_disjoint_supports_have_no_cross_coherence():
    # A and D do not overlap each other: no <eo|rho|oe> coherence
    lobes = [bc_lobe(568.1, sigma=0.3, label="A"),
             bc_lobe(573.3, sigma=0.3, label="D"),
             bc_lobe(570.4, sigma=0.3, label="B"),
             bc_lobe(571.2, sigma=0.3, label="C")]
    win = SpectralWindow((672.0, 684.0), (566.0, 576.0))
    rho = trace_spectral(lobe_amplitudes(lobes), ABCD, win, nodes=201)
    assert abs(rho[1, 2]) < 1e-9   # eo vs oe
    assert abs(rho[0, 3]) > 1e-3   # ee vs oo coherence from B-C overlap


def test_quadrature_doubling_converged(fiber, pump, processes_eo,
                                       overlaps_abcd, centers):
    procs = [p for p in processes_eo if p.label in "ABCD"]
    weights = process_weights(pump.transverse_state, overlaps_abcd, procs)
    amps = model_amplitudes(procs, fiber, pump, weights)
    mid_i = 0.5 * (centers["B"][1] + centers["C"][1])
    mid_s = 0.5 * (centers["B"][0] + centers["C"][0])
    win = SpectralWindow((mid_s - 0.5, mid_s + 0.5),
                         (mid_i - 0.5, mid_i + 0.5))
    c1 = concurrence(trace_spectral(amps, procs, win, nodes=101))
    c2 = concurrence(trace_spectral(amps, procs, win, nodes=202))
    assert abs(c1 - c2) < 1e-3


def unscaled_trace_spectral(amplitudes, processes, window, nodes=101):
    """``trace_spectral`` without the power-of-two scaling of the
    amplitudes, the reference that ordinary windows must match."""
    by_label = {p.label: p for p in processes}
    ls, li, _ = window.quadrature(nodes)
    comp = np.zeros((4, nodes, nodes), dtype=complex)
    for label, amp in amplitudes(ls[:, None], li[None, :]).items():
        proc = by_label[label]
        comp[basis_index(proc.t_s, proc.t_i)] += np.abs(amp)
    flat = comp.reshape(4, -1)
    rho = flat @ flat.conj().T
    rho = rho / float(np.trace(rho).real)
    return 0.5 * (rho + rho.conj().T)


@pytest.mark.parametrize("amp", [1e-200, 0.3, 1.0, 7.0, 1e200])
def test_scaled_trace_matches_the_unscaled_one(fiber, pump, processes_eo,
                                               overlaps_abcd, amp):
    # a power-of-two scaling is exact, and rho is renormalized
    procs = [p for p in processes_eo if p.label in "ABCD"]
    weights = process_weights(pump.transverse_state, overlaps_abcd, procs)
    lobes = [bc_lobe(570.2, amp=amp, label="B"),
             bc_lobe(571.4, amp=amp, label="C"),
             bc_lobe(568.4, amp=0.4 * amp, label="A")]
    win = SpectralWindow((672.0, 684.0), (566.0, 576.0))
    for source in (lobe_amplitudes(lobes),
                   model_amplitudes(procs, fiber, pump, weights)):
        got = trace_spectral(source, ABCD, win)
        assert got.tobytes() == unscaled_trace_spectral(source, ABCD,
                                                        win).tobytes()


def magnitudes(amplitudes):
    """The source of the magnitudes |a_j| of the source ``amplitudes``."""
    return lambda ls, li: {label: np.abs(amp) for label, amp
                           in amplitudes(ls, li).items()}


@pytest.mark.parametrize("segments", [((0.10, False),),
                                      ((0.015, False), (0.015, True))])
def test_trace_takes_the_magnitudes_of_complex_amplitudes(
        pump, processes_eo, overlaps_abcd, segments):
    # the flat-phase assumption: a complex source traces as the source of
    # its magnitudes, bit for bit, in a window where B and C overlap
    fiber = FiberSpec(segments=segments)
    procs = [p for p in processes_eo if p.label in "ABCD"]
    source = model_amplitudes(procs, fiber, pump,
                              process_weights(pump.transverse_state,
                                              overlaps_abcd, procs))
    win = SpectralWindow((672.0, 684.0), (566.0, 576.0))
    assert any(np.iscomplexobj(amp) and np.any(amp.imag != 0)
               for amp in source(np.array([[678.0]]),
                                 np.array([[570.5]])).values())
    got = trace_spectral(source, procs, win)
    assert got.tobytes() == trace_spectral(magnitudes(source), procs,
                                           win).tobytes()


def test_overflowing_amplitudes_trace_without_warnings():
    lobes = [bc_lobe(570.2, amp=1e308, label="B"),
             bc_lobe(571.4, amp=1e308, label="C")]
    win = SpectralWindow((672.0, 684.0), (566.0, 576.0))
    with np.errstate(all="raise"):
        rho = trace_spectral(lobe_amplitudes(lobes), ABCD, win)
    want = trace_spectral(lobe_amplitudes(
        [bc_lobe(570.2, label="B"), bc_lobe(571.4, label="C")]), ABCD, win)
    assert np.max(np.abs(rho - want)) <= 1e-15
    # lobes of one label whose intensities sum to inf
    same = [bc_lobe(570.2, amp=1e308, label="B")] * 2
    with pytest.raises(DomainError, match="window amplitudes overflow"):
        trace_spectral(lobe_amplitudes(same), ABCD, win)


def test_trace_spectral_output_is_physical():
    lobes = [bc_lobe(570.2, label="B"), bc_lobe(571.4, label="C"),
             bc_lobe(568.4, amp=0.4, label="A"),
             bc_lobe(573.0, amp=0.4, label="D")]
    win = SpectralWindow((672.0, 684.0), (566.0, 576.0))
    rho = trace_spectral(lobe_amplitudes(lobes), ABCD, win)
    validate_density(rho)  # hermitian, unit trace, PSD


def test_lobe_amplitudes_require_labels():
    with pytest.raises(ConfigError):
        lobe_amplitudes([bc_lobe(570.0)])


# ---------------------------------------------------------------------------
# metrics


def test_concurrence_reference_states():
    assert concurrence(BELL) == pytest.approx(1.0, abs=1e-12)
    assert concurrence(MIXED4) == pytest.approx(0.0, abs=1e-12)
    product = np.zeros((4, 4), dtype=complex)
    product[1, 1] = 1.0  # |eo><eo|
    assert concurrence(product) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_random_product_states(rng):
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        psi = np.kron(a, b)
        rho = np.outer(psi, psi.conj())
        assert concurrence(rho) < 1e-8


def test_concurrence_werner_family():
    # analytic concurrence of p*Bell + (1-p)*I/4 is max(0, (3p-1)/2)
    for p in (0.2, 1 / 3, 0.5, 0.8, 1.0):
        rho = p * BELL + (1 - p) * MIXED4
        expect = max(0.0, (3 * p - 1) / 2)
        assert concurrence(rho) == pytest.approx(expect, abs=1e-10)


def test_fidelity_identity_and_symmetry(rng):
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
        g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sigma = g2 @ g2.conj().T
        sigma /= np.trace(sigma).real
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho),
                                                     abs=1e-9)


def test_fidelity_pure_state_reduces_to_overlap():
    rho = 0.6 * BELL + 0.4 * MIXED4
    assert fidelity(BELL, rho) == pytest.approx(bell_fidelity(rho), abs=1e-10)


def test_purity_bounds():
    assert purity(MIXED4) == pytest.approx(0.25, abs=1e-12)
    assert purity(BELL) == pytest.approx(1.0, abs=1e-12)


def test_bell_fidelity_reference_values():
    assert bell_fidelity(MIXED4) == pytest.approx(0.25, abs=1e-12)
    assert bell_fidelity(BELL) == pytest.approx(1.0, abs=1e-12)


def test_metrics_block_conventions():
    rho = 0.5 * BELL + 0.5 * MIXED4
    block = metrics_block(rho)
    assert set(block) == {"concurrence", "bell_fidelity",
                          "bell_fidelity_unsquared", "purity"}
    assert block["bell_fidelity_unsquared"] == pytest.approx(
        np.sqrt(block["bell_fidelity"]))


def test_validate_density_rejects_bad_matrices():
    with pytest.raises(DomainError):
        validate_density(np.eye(4) * 0.5)  # trace 2
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.2  # not hermitian
    with pytest.raises(DomainError):
        validate_density(bad)
    neg = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(DomainError):
        validate_density(neg)
    with pytest.raises(DomainError):
        concurrence(np.eye(4, dtype=complex))  # trace 4
    # one bad matrix fails a whole stack, in the check and in the metrics
    for one in (np.eye(4) * 0.5, bad, neg):
        stack = np.array([MIXED4, one, BELL])
        for check in (validate_density, metrics_block):
            with pytest.raises(DomainError):
                check(stack)
    with pytest.raises(DomainError):
        validate_density(np.zeros((2, 3, 3)))
