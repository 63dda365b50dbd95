import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT

from references import distances2, fused_jsa_grid
from fwmpairs.config import (FiberSpec, GaussianLobe, PipelineConfig,
                             SpectralGrid)
from fwmpairs.errors import ConfigError, DomainError, NumericError
from fwmpairs.estimation import model_amplitudes, process_weights
from fwmpairs.processes import BaseIndexCache, FwmProcess, enumerate_processes
from fwmpairs.spectrum import (_JAC_BLOCK, _JSA_BLOCK, fit_lobes, jsa_grid,
                               pump_envelope)


def phase_matching_fn(process, lam_s_nm, lam_i_nm, fiber):
    """Complex phase-matching amplitude of the segmented fiber at
    (lam_s, lam_i) in nm."""
    cache = BaseIndexCache(fiber, np.atleast_1d(lam_s_nm) / 1000.0,
                           np.atleast_1d(lam_i_nm) / 1000.0)
    return cache.phase_matching(process)


def surface_partner(lam_i_nm, lam_p_nm=620.0):
    return 1.0 / (2.0 / lam_p_nm - 1.0 / lam_i_nm)


@pytest.fixture(scope="module")
def weights(fiber, pump, processes_eo, overlaps_abcd):
    procs = [p for p in processes_eo if p.label in "ABCD"]
    return process_weights(pump.transverse_state, overlaps_abcd, procs)


@pytest.fixture(scope="module")
def grid_default(fiber, pump, processes_eo, weights):
    procs = [p for p in processes_eo if p.label in "ABCD"]
    return jsa_grid(model_amplitudes(procs, fiber, pump, weights), procs,
                    SpectralGrid(points_s=201, points_i=201))


def test_envelope_peak_on_energy_surface(pump):
    for li in (568.0, 571.0, 575.0):
        assert pump_envelope(surface_partner(li), li, pump) == \
            pytest.approx(1.0, abs=1e-12)


def test_envelope_symmetric_in_sum_frequency(pump):
    # depends only on omega_s + omega_i: swapping the detunings about the
    # surface leaves it unchanged
    om_p = pump.omega_p
    nu = 0.35e12
    om_s = om_p - 2.1e14 + nu
    om_i = om_p + 2.1e14
    lam_s = 2 * np.pi * C_LIGHT / om_s * 1e9
    lam_i = 2 * np.pi * C_LIGHT / om_i * 1e9
    lam_s2 = 2 * np.pi * C_LIGHT / (om_s - nu) * 1e9
    lam_i2 = 2 * np.pi * C_LIGHT / (om_i + nu) * 1e9
    a = pump_envelope(lam_s, lam_i, pump)
    b = pump_envelope(lam_s2, lam_i2, pump)
    assert a == pytest.approx(b, rel=1e-9)
    assert a < 1.0


def test_envelope_half_intensity_at_half_width(pump):
    # the combined envelope carries sqrt(2) times the single-pump
    # intensity width; |alpha|^2 = 1/2 at its own half width
    sigma_nu = np.sqrt(2.0) * pump.sigma_omega
    nu_half = np.sqrt(2.0 * np.log(2.0)) * sigma_nu
    om_p = pump.omega_p
    lam_s = 2 * np.pi * C_LIGHT / (om_p + nu_half) * 1e9
    lam_i = 2 * np.pi * C_LIGHT / om_p * 1e9
    val = pump_envelope(lam_s, lam_i, pump)
    assert val**2 == pytest.approx(0.5, rel=1e-9)


def test_pump_spec_validation():
    # each rule is checked where the config is read, and names its key
    # and the value
    for key in ("intensity_fwhm_nm", "center_wavelength_nm"):
        with pytest.raises(ConfigError, match=rf"^config\.pump\.{key}: "
                                              r"must be > 0, got 0\.0$"):
            PipelineConfig.parse({"pump": {key: 0.0}})


def test_phase_matching_unity_at_center(fiber, centers):
    proc = FwmProcess("e", "e", "e", "e")
    ls, li = centers["C"]
    val = phase_matching_fn(proc, ls, li, fiber)
    assert abs(val[0]) == pytest.approx(1.0, abs=1e-6)


def test_phase_matching_first_null(fiber, centers):
    # |phi|^2 = 0 where L dk / 2 = pi
    from fwmpairs.processes import delta_k_vec
    proc = FwmProcess("e", "e", "e", "e")
    L = fiber.total_length_m
    target = -2 * np.pi / L  # detuned side below the center
    li = np.arange(centers["C"][1] - 0.5, centers["C"][1], 1e-4)
    ls = surface_partner(li)
    dk = delta_k_vec(proc, ls / 1000.0, li / 1000.0, fiber)
    idx = int(np.argmin(np.abs(dk - target)))
    val = phase_matching_fn(proc, ls[idx], li[idx], fiber)
    assert abs(val[0]) ** 2 < 1e-5


def test_split_segments_reproduce_single_fiber(centers):
    single = FiberSpec(segments=((0.10, False),))
    split = FiberSpec(segments=((0.05, False), (0.05, False)))
    proc = FwmProcess("o", "o", "o", "o")
    li = np.linspace(569.0, 571.0, 41)
    ls = surface_partner(li)
    a = phase_matching_fn(proc, ls, li, single)
    b = phase_matching_fn(proc, ls, li, split)
    assert np.max(np.abs(a - b)) < 1e-12


def test_grid_normalization(grid_default):
    step_s = grid_default.lambda_s_axis[1] - grid_default.lambda_s_axis[0]
    step_i = grid_default.lambda_i_axis[1] - grid_default.lambda_i_axis[0]
    total = grid_default.combined.sum() * step_s * step_i
    assert total == pytest.approx(1.0, abs=1e-9)
    assert np.all(grid_default.combined >= 0)


def test_grid_axes_ascending_uniform(grid_default):
    for axis in (grid_default.lambda_s_axis, grid_default.lambda_i_axis):
        steps = np.diff(axis)
        assert np.all(steps > 0)
        assert np.ptp(steps) < 1e-9 * steps.mean()


def test_empty_process_list_rejected(fiber, pump):
    with pytest.raises(DomainError):
        jsa_grid(model_amplitudes([], fiber, pump, {}), [], SpectralGrid())


def channel_amplitudes(fiber, pump, grid, weights):
    """c_j * alpha * phi_j of each weighted {e, o} channel on ``grid``,
    from the envelope and the phase matching alone."""
    ls, li = grid.axes()
    alpha = pump_envelope(ls[:, None], li[None, :], pump)
    cache = BaseIndexCache(fiber, ls[:, None] / 1000.0, li[None, :] / 1000.0)
    procs = {p.label: p for p in enumerate_processes({"e", "o"})}
    return {label: c_j * alpha * cache.phase_matching(procs[label])
            for label, c_j in weights.items()}, procs


def unit_integral(intensity, grid):
    ls, li = grid.axes()
    return intensity / (intensity.sum() * (ls[1] - ls[0]) * (li[1] - li[0]))


def test_single_process_combined_equals_squared_amplitude(fiber, pump):
    grid = SpectralGrid(points_s=101, points_i=101)
    amps, procs = channel_amplitudes(fiber, pump, grid, {"C": 1.0 + 0j})
    combined = jsa_grid(model_amplitudes([procs["C"]], fiber, pump,
                                         {"C": 1.0 + 0j}),
                        [procs["C"]], grid).combined
    recon = unit_integral(np.abs(amps["C"]) ** 2, grid)
    assert np.max(np.abs(recon - combined)) < 1e-12 * combined.max()


# C (eeee) and E (ooee) share the output modes (e, e); B (oooo) does not
CHANNEL_WEIGHTS = {"B": 0.6j, "C": 0.8 + 0.1j, "E": 0.3 - 0.5j}
COMBINATION_CASES = {
    "coherent_CE": ("CE", lambda a: np.abs(a["C"] + a["E"]) ** 2,
                    lambda a: np.abs(a["C"]) ** 2 + np.abs(a["E"]) ** 2),
    "incoherent_BC": ("BC", lambda a: np.abs(a["B"]) ** 2
                      + np.abs(a["C"]) ** 2,
                      lambda a: np.abs(a["B"] + a["C"]) ** 2),
}


@pytest.mark.parametrize("case", sorted(COMBINATION_CASES))
def test_jsi_combination_rule(fiber, pump, case):
    # channels with the same output modes add in amplitude, the others in
    # intensity; the other rule must read visibly different on this grid
    labels, rule, other_rule = COMBINATION_CASES[case]
    weights = {label: CHANNEL_WEIGHTS[label] for label in labels}
    grid = SpectralGrid(points_s=101, points_i=101)
    amps, procs = channel_amplitudes(fiber, pump, grid, weights)
    chosen = [procs[label] for label in labels]
    combined = jsa_grid(model_amplitudes(chosen, fiber, pump, weights),
                        chosen, grid).combined
    want = unit_integral(rule(amps), grid)
    other = unit_integral(other_rule(amps), grid)
    assert np.max(np.abs(combined - want)) <= 1e-12 * want.max()
    assert np.max(np.abs(other - want)) > 1e-4 * want.max()


def test_energy_concentration_near_surface(grid_default, pump):
    # >= 99% of the combined intensity lies within 3 pump intensity
    # FWHMs of the energy surface
    ls = grid_default.lambda_s_axis[:, None]
    li = grid_default.lambda_i_axis[None, :]
    om = 2 * np.pi * C_LIGHT * 1e9
    nu = om / ls + om / li - 2 * pump.omega_p
    fwhm_nu = 2 * np.sqrt(2 * np.log(2)) * pump.sigma_omega
    mask = np.abs(nu) <= 3 * fwhm_nu
    frac = grid_default.combined[mask].sum() / grid_default.combined.sum()
    assert frac >= 0.99


def test_halving_length_doubles_antidiagonal_width(pump, overlaps_abcd,
                                                   processes_eo):
    procs = [p for p in processes_eo if p.label == "C"]
    w = {"C": 1.0 + 0j}
    widths = {}
    for L in (0.10, 0.05):
        f = FiberSpec(segments=((L, False),))
        grid = jsa_grid(model_amplitudes(procs, f, pump, w), procs,
                        SpectralGrid((674.0, 682.0), (569.0, 574.0),
                                     321, 321))
        fit = fit_lobes(grid.lambda_s_axis, grid.lambda_i_axis,
                        grid.combined, 1)
        widths[L] = fit.lobes[0].sigma_minor_nm
    assert widths[0.05] / widths[0.10] == pytest.approx(2.0, rel=0.05)


def test_short_cross_spliced_fiber_has_broader_lobes(pump):
    w = {"C": 1.0 + 0j}
    procs = [FwmProcess("e", "e", "e", "e")]
    sizes = {}
    for tag, segments in (("long", ((0.10, False),)),
                          ("short", ((0.025, False), (0.025, True)))):
        f = FiberSpec(segments=segments)
        grid = jsa_grid(model_amplitudes(procs, f, pump, w), procs,
                        SpectralGrid((674.0, 682.0), (569.0, 574.0),
                                     321, 321))
        fit = fit_lobes(grid.lambda_s_axis, grid.lambda_i_axis,
                        grid.combined, 1)
        sizes[tag] = fit.lobes[0].sigma_minor_nm
    assert sizes["short"] > 2.5 * sizes["long"]


# ---------------------------------------------------------------------------
# lobe fitting


def synthetic_lobe_grid(params, noise=0.0, seed=0):
    ls = np.linspace(670.0, 690.0, 201)
    li = np.linspace(566.0, 576.0, 161)
    total = np.zeros((201, 161))
    for p in params:
        lobe = GaussianLobe(**p)
        total += lobe.evaluate(ls[:, None], li[None, :])
    if noise:
        rng = np.random.default_rng(seed)
        total = np.abs(total + noise * total.max()
                       * rng.standard_normal(total.shape))
    return ls, li, total


def test_lobe_with_subnormal_sigma_square_evaluates_without_warning():
    # sigma^2 = 1e-320 overflows the exponent's quotient to inf off the
    # major axis, where the Gaussian's limit is 0
    lobe = GaussianLobe(center_s_nm=678.0, center_i_nm=571.0,
                        sigma_major_nm=1.0, sigma_minor_nm=1e-160,
                        orientation_rad=0.0, amplitude=2.0)
    with np.errstate(over="raise"):
        values = lobe.evaluate(678.0, np.array([571.0, 571.5]))
    assert values.tolist() == [2.0, 0.0]


def test_fit_exact_single_gaussian():
    truth = dict(center_s_nm=678.0, center_i_nm=571.0, sigma_major_nm=1.4,
                 sigma_minor_nm=0.5, orientation_rad=0.6, amplitude=2.0)
    ls, li, grid = synthetic_lobe_grid([truth])
    fit = fit_lobes(ls, li, grid, 1)
    lobe = fit.lobes[0]
    assert lobe.center_s_nm == pytest.approx(truth["center_s_nm"], rel=1e-6)
    assert lobe.center_i_nm == pytest.approx(truth["center_i_nm"], rel=1e-6)
    assert lobe.sigma_major_nm == pytest.approx(1.4, rel=1e-6)
    assert lobe.sigma_minor_nm == pytest.approx(0.5, rel=1e-6)
    assert lobe.orientation_rad == pytest.approx(0.6, rel=1e-6)
    assert lobe.amplitude == pytest.approx(2.0, rel=1e-6)
    assert lobe.r_squared == pytest.approx(1.0, abs=1e-9)


def test_fit_four_lobes_with_noise_recovers_centers():
    truths = [
        dict(center_s_nm=680.9, center_i_nm=568.1, sigma_major_nm=1.1,
             sigma_minor_nm=0.35, orientation_rad=0.45, amplitude=0.8),
        dict(center_s_nm=679.0, center_i_nm=570.0, sigma_major_nm=1.1,
             sigma_minor_nm=0.35, orientation_rad=0.45, amplitude=1.9),
        dict(center_s_nm=677.3, center_i_nm=571.6, sigma_major_nm=1.1,
             sigma_minor_nm=0.35, orientation_rad=0.45, amplitude=2.0),
        dict(center_s_nm=675.4, center_i_nm=573.3, sigma_major_nm=1.1,
             sigma_minor_nm=0.35, orientation_rad=0.45, amplitude=0.9),
    ]
    ls, li, grid = synthetic_lobe_grid(truths, noise=0.01, seed=11)
    fit = fit_lobes(ls, li, grid, 4)
    got = sorted((lb.center_i_nm, lb.center_s_nm) for lb in fit.lobes)
    want = sorted((t["center_i_nm"], t["center_s_nm"]) for t in truths)
    for (gi, gs), (wi, ws) in zip(got, want):
        assert gi == pytest.approx(wi, abs=0.05)
        assert gs == pytest.approx(ws, abs=0.05)


@pytest.mark.parametrize("seed", [12, 13])
def test_fit_four_lobes_stays_positive(seed):
    # the truths above; unconstrained fits seeded inside two lobes gave
    # a +/-6490 amplitude pair on seed 12 and no convergence on seed 13
    truths = [dict(center_s_nm=cs, center_i_nm=ci, sigma_major_nm=1.1,
                   sigma_minor_nm=0.35, orientation_rad=0.45, amplitude=a)
              for cs, ci, a in ((680.9, 568.1, 0.8), (679.0, 570.0, 1.9),
                                (677.3, 571.6, 2.0), (675.4, 573.3, 0.9))]
    ls, li, grid = synthetic_lobe_grid(truths, noise=0.01, seed=seed)
    fit = fit_lobes(ls, li, grid, 4)
    assert len(fit.lobes) == 4
    for lobe in fit.lobes:
        assert lobe.amplitude > 0
        assert lobe.sigma_major_nm > 0 and lobe.sigma_minor_nm > 0
    got = sorted((lb.center_i_nm, lb.center_s_nm) for lb in fit.lobes)
    want = sorted((t["center_i_nm"], t["center_s_nm"]) for t in truths)
    for (gi, gs), (wi, ws) in zip(got, want):
        assert gi == pytest.approx(wi, abs=0.05)
        assert gs == pytest.approx(ws, abs=0.05)


def one_lobe_with_noise(seed):
    """One lobe plus 1 % noise on an 81 x 61 grid."""
    ls = np.linspace(670.0, 690.0, 81)
    li = np.linspace(565.0, 577.0, 61)
    lobe = GaussianLobe(center_s_nm=680.0, center_i_nm=571.0,
                        sigma_major_nm=1.0, sigma_minor_nm=0.4,
                        orientation_rad=0.45, amplitude=1.0)
    rng = np.random.default_rng(seed)
    return ls, li, np.abs(lobe.evaluate(ls[:, None], li[None, :])
                          + 0.01 * rng.standard_normal((81, 61)))


@pytest.mark.parametrize("seed, message", [
    (4, "off the grid"),              # a center reaches (675.67, 561.59) nm
    (7, "wider than the grid span"),  # a sigma reaches 21.9 nm
])
def test_fit_leaving_the_grid_raises(seed, message):
    # asked for two lobes, the peel seeds the second on noise, and the
    # fit drives that lobe off the grid or spreads it into a pedestal; it
    # raises at the first step that does so
    ls, li, grid = one_lobe_with_noise(seed)
    with pytest.raises(NumericError, match=message):
        fit_lobes(ls, li, grid, 2)


@pytest.fixture
def model_calls(monkeypatch):
    """The list that grows by one per evaluation of the lobe model."""
    from fwmpairs import spectrum
    calls = []
    lobe_model = spectrum._lobe_model

    def counted(*args):
        calls.append(1)
        return lobe_model(*args)

    monkeypatch.setattr(spectrum, "_lobe_model", counted)
    return calls


@pytest.mark.parametrize("seed", [3, 5])
def test_diverging_fits_stop_well_inside_the_budget(model_calls, seed):
    # the second lobe of these fits creeps away in small steps that each
    # lower the cost; the bound is a tenth of the joint fit's budget
    from fwmpairs.spectrum import MAX_EVALS_PER_PARAM
    ls, li, grid = one_lobe_with_noise(seed)
    with pytest.raises(NumericError):
        fit_lobes(ls, li, grid, 2)
    assert 0 < len(model_calls) <= MAX_EVALS_PER_PARAM * 12 // 10


def test_stalled_fit_raises_without_spending_the_budget(model_calls):
    # a data node at infinity: no step can lower the cost
    from fwmpairs.spectrum import _least_squares, _to_log
    ls, li, grid = one_lobe_with_noise(0)
    grid[40, 30] = np.inf
    p0 = _to_log([1.0, 680.0, 571.0, 1.0, 0.4, 0.45])
    with pytest.raises(NumericError, match="stalled"):
        _least_squares(p0, grid, ls[:, None], li[None, :], (ls, li))
    assert len(model_calls) <= 20


def test_lobe_checks_reject_vanishing_amplitudes():
    from fwmpairs.spectrum import _check_lobes
    ls = np.linspace(670.0, 690.0, 81)
    li = np.linspace(565.0, 577.0, 61)
    _check_lobes(np.array([0.0, 680.0, 571.0, 0.0, -1.0, 0.45]), ls, li)
    with pytest.raises(NumericError, match="to 0 or infinity"):
        _check_lobes(np.array([-800.0, 680.0, 571.0, 0.0, -1.0, 0.45]),
                     ls, li)


def test_lobe_jacobian_matches_finite_differences():
    from fwmpairs.spectrum import _from_log, _lobe_jacobian, _lobe_model
    ls = np.linspace(674.0, 682.0, 41)[:, None]
    li = np.linspace(569.0, 574.0, 37)[None, :]
    # log amplitude, centers, log sigmas, orientation; two lobes
    p = np.array([0.2, 677.5, 571.0, 0.1, -1.0, 0.5,
                  -0.4, 679.0, 570.2, -0.2, -1.2, 2.0])
    jac = _lobe_jacobian(p, ls, li)
    h = 1e-6
    for j in range(len(p)):
        step = np.zeros_like(p)
        step[j] = h
        fd = (_lobe_model(_from_log(p + step), ls, li)
              - _lobe_model(_from_log(p - step), ls, li)).ravel() / (2 * h)
        assert np.max(np.abs(jac[j] - fd)) < 1e-6 * np.max(np.abs(fd))


def test_diverging_fit_prints_no_runtime_warnings():
    # the second lobe, seeded on noise, diverges: on this seed an LM
    # trial step overflows sigma**2 in the Jacobian on the way (two
    # warnings without the guard); the fit must raise NumericError,
    # never warn
    import warnings
    ls, li, grid = one_lobe_with_noise(89)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match="off the grid"):
            fit_lobes(ls, li, grid, 2)


def test_fit_quality_on_noisy_data():
    truths = [dict(center_s_nm=678.0, center_i_nm=570.5, sigma_major_nm=1.2,
                   sigma_minor_nm=0.4, orientation_rad=0.5, amplitude=1.0)]
    ls, li, grid = synthetic_lobe_grid(truths, noise=0.05, seed=3)
    fit = fit_lobes(ls, li, grid, 1)
    assert fit.lobes[0].r_squared > 0.85


def test_fit_rejects_zero_grid():
    ls = np.linspace(0, 1, 32)
    with pytest.raises(DomainError):
        fit_lobes(ls, ls, np.zeros((32, 32)), 1)
    with pytest.raises(DomainError, match="n_lobes must be >= 1, got 0"):
        fit_lobes(ls, ls, np.ones((32, 32)), 0)


def test_fit_rejects_a_non_finite_grid():
    ls = np.linspace(670.0, 671.0, 32)
    for bad in (np.nan, np.inf, -np.inf):
        grid = np.ones((32, 32))
        grid[5, 7] = bad
        with pytest.raises(DomainError, match="non-finite"):
            fit_lobes(ls, ls, grid, 1)


# a 61 x 61 grid over the default band, zero but for a few nodes
SPARSE_LS = np.linspace(670.0, 700.0, 61)
SPARSE_LI = np.linspace(567.0, 576.0, 61)


def sparse_grid(*nodes):
    grid = np.zeros((61, 61))
    for node in nodes:
        grid[node] = 1.0
    return grid


def test_peel_refuses_more_lobes_than_positive_maxima():
    # one positive node: the first lobe covers it, and nothing positive
    # is left to seed a second
    with pytest.raises(NumericError, match="found only 1 positive maxima "
                                           "for 2 requested lobes"):
        fit_lobes(SPARSE_LS, SPARSE_LI, sparse_grid((30, 30)), 2)


def short_fiber_jsi(pump, weights, processes_eo, points):
    """The A-D JSI of the 25 + 25 mm cross-spliced fiber on ``points``^2
    nodes: lobes wide enough to resolve at 161^2, centers unchanged by
    the segment layout."""
    short = FiberSpec(segments=((0.025, False), (0.025, True)))
    procs = [p for p in processes_eo if p.label in "ABCD"]
    grid = jsa_grid(model_amplitudes(procs, short, pump, weights), procs,
                    SpectralGrid((672.0, 684.0), (566.0, 576.0), points,
                                 points))
    return grid.lambda_s_axis, grid.lambda_i_axis, grid.combined


def test_fit_refuses_once_its_evaluation_budget_is_spent(pump, weights,
                                                         processes_eo):
    # the 25 + 25 mm JSI at 301^2 less its first peeled lobe, without the
    # peel's clamp at 0: the lobe takes out more than the grid holds, and
    # a Gaussian fitted across the hole it leaves converges only linearly
    # (in 2 218 evaluations, given the budget); the 1 200 of a lobe's
    # budget run out first
    from fwmpairs import spectrum
    ls, li, grid = short_fiber_jsi(pump, weights, processes_eo, 301)
    first = spectrum._from_log(spectrum._peel(grid, ls, li, 1))
    nodes = spectrum._window(first, ls, li, spectrum.SUPPORT_RADIUS**2)
    hole = grid.copy()
    hole.ravel()[nodes] -= spectrum._lobe_model(first, ls[nodes // li.size],
                                                li[nodes % li.size])
    assert hole.min() < 0
    with pytest.raises(NumericError, match="did not converge in 1200 "
                                           "evaluations"):
        spectrum._peel(hole, ls, li, 1)


def test_least_squares_stops_where_the_gradient_vanishes():
    # data off the model at p0 only along a direction orthogonal to every
    # Jacobian row: the residual is nonzero, yet p0 is stationary, and
    # only the gradient-cosine test stops the fit before a trial step
    from fwmpairs import spectrum
    xs, yi = np.meshgrid(SPARSE_LS[20:41], SPARSE_LI[20:41], indexing="ij")
    xs, yi = xs.ravel(), yi.ravel()
    p0 = spectrum._to_log([1.0, 685.0, 571.5, 2.0, 0.5, 0.3])
    jac = spectrum._lobe_jacobian(p0, xs, yi)
    off = np.random.default_rng(7).standard_normal(xs.size)
    off -= jac.T @ np.linalg.solve(jac @ jac.T, jac @ off)
    data = spectrum._lobe_model(spectrum._from_log(p0), xs, yi) - off
    p, r, nfev = spectrum._least_squares(p0, data, xs, yi,
                                         (SPARSE_LS, SPARSE_LI))
    assert nfev == 1
    assert np.array_equal(p, p0)
    assert r @ r == pytest.approx(off @ off)


def test_fit_rejects_grid_with_fewer_nodes_than_parameters():
    ls = np.linspace(670.0, 671.0, 2)
    with pytest.raises(DomainError, match="4 grid nodes are too few"):
        fit_lobes(ls, ls, np.ones((2, 2)), 1)


def test_fit_determinism():
    truths = [dict(center_s_nm=678.0, center_i_nm=570.5, sigma_major_nm=1.2,
                   sigma_minor_nm=0.4, orientation_rad=0.5, amplitude=1.0)]
    ls, li, grid = synthetic_lobe_grid(truths, noise=0.02, seed=5)
    a = fit_lobes(ls, li, grid, 1)
    b = fit_lobes(ls, li, grid, 1)
    assert a.lobes[0] == b.lobes[0]
    assert a.residual_norm == b.residual_norm


def test_grid_refinement_moves_fitted_centers_little(pump, weights,
                                                     processes_eo):
    # at 301^2 (101^2 coarse) and 322^2 (108^2 coarse) an unclamped peel
    # spent a lobe's whole budget
    results = {}
    for n in (161, 301, 322):
        fit = fit_lobes(*short_fiber_jsi(pump, weights, processes_eo, n), 4)
        results[n] = sorted(lb.center_i_nm for lb in fit.lobes)
    for n in (301, 322):
        for a, b in zip(results[161], results[n]):
            assert abs(a - b) < 0.01


def test_fitted_centers_satisfy_energy_identity(grid_default):
    fit = fit_lobes(grid_default.lambda_s_axis, grid_default.lambda_i_axis,
                    grid_default.combined, 4)
    for lobe in fit.lobes:
        resid = abs(2.0 / 620.0 - 1.0 / lobe.center_s_nm
                    - 1.0 / lobe.center_i_nm)
        # within the pump-bandwidth equivalent (paper checks 0.2%)
        assert resid / (2.0 / 620.0) < 0.002


# ---------------------------------------------------------------------------
# the numpy Levenberg-Marquardt against MINPACK, the test-side reference

def minpack_least_squares(p0, data, xs, yi, grid, groups=None, rest=0.0):
    """``spectrum._least_squares`` through ``scipy.optimize.leastsq`` with
    the same residual, Jacobian, node groups, tolerances and budget.  The
    constant ``rest`` does not move the minimum, and MINPACK's relative
    tests take the residual alone."""
    from scipy.optimize import leastsq
    from fwmpairs import spectrum

    def resid(p):
        return (spectrum._lobe_model(spectrum._from_log(p), xs, yi, groups)
                - data).ravel()

    def jacobian(p):
        if groups is None:
            return spectrum._lobe_jacobian(p, xs, yi)
        rows = np.zeros((len(p), np.size(data)))
        for at, lobes in groups:
            own = (6 * lobes[:, None] + np.arange(6)).ravel()
            rows[own, at] = spectrum._lobe_jacobian(p, xs[at], yi[at], lobes)
        return rows

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p, _, info, _, ier = leastsq(
            resid, p0, Dfun=jacobian, col_deriv=True, full_output=True,
            maxfev=spectrum.MAX_EVALS_PER_PARAM * len(p0),
            xtol=1e-12, ftol=1e-12, gtol=1e-12)
    assert ier in (1, 2, 3, 4)
    return p, info["fvec"], info["nfev"]


def benchmark_style_lobes(seed, centers, points=301):
    """Four lobes near the model's A-D centers with 1 % noise on the
    default grid span, drawn as the benchmark's lobes are, at 301^2 nodes
    by default."""
    rng = np.random.default_rng([seed, 1])
    ls = np.linspace(670.0, 700.0, points)
    li = np.linspace(567.0, 576.0, points)
    total = np.zeros((points, points))
    for label in "ABCD":
        cs, ci = centers[label]
        total += GaussianLobe(
            center_s_nm=cs + rng.uniform(-0.3, 0.3),
            center_i_nm=ci + rng.uniform(-0.2, 0.2),
            sigma_major_nm=rng.uniform(1.0, 1.2),
            sigma_minor_nm=rng.uniform(0.3, 0.4),
            orientation_rad=rng.uniform(0.4, 0.5),
            amplitude=rng.uniform(0.8, 2.0)).evaluate(ls[:, None],
                                                      li[None, :])
    return ls, li, np.abs(total + 0.01 * total.max()
                          * rng.standard_normal(total.shape))


@pytest.mark.parametrize("case", ["simulate-jsi", 1, 2, 3])
def test_levenberg_marquardt_matches_minpack(monkeypatch, centers, case):
    from fwmpairs import spectrum
    if case == "simulate-jsi":
        from fwmpairs.pipeline import Simulation
        jsi = Simulation(PipelineConfig.parse({})).jsi()
        ls, li, grid = jsi.lambda_s_axis, jsi.lambda_i_axis, jsi.combined
    else:
        ls, li, grid = benchmark_style_lobes(case, centers)
    ours = fit_lobes(ls, li, grid, 4).lobes
    monkeypatch.setattr(spectrum, "_least_squares", minpack_least_squares)
    reference = fit_lobes(ls, li, grid, 4).lobes
    for a, b in zip(ours, reference):
        assert a.center_s_nm == pytest.approx(b.center_s_nm, abs=1e-6)
        assert a.center_i_nm == pytest.approx(b.center_i_nm, abs=1e-6)
        for name in ("sigma_major_nm", "sigma_minor_nm", "amplitude"):
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     rel=1e-6)


@pytest.mark.parametrize("power", [-1000, 1000])
def test_fit_does_not_depend_on_the_intensity_scale(centers, power):
    # the stopping test overflowed from about 1e76 and underflowed below
    # 1e-200: the fit stopped at its seeds or gave R^2 nan
    ls, li, grid = benchmark_style_lobes(1, centers, points=121)
    # cells that 2^-1000 takes to subnormals are rounded as it rounds
    # them, so the grid holds exactly at both scales
    grid = np.ldexp(np.ldexp(grid, -1000), 1000)
    want = fit_lobes(ls, li, grid, 4)
    got = fit_lobes(ls, li, np.ldexp(grid, power), 4)
    assert got.r_squared == want.r_squared
    assert got.residual_norm == np.ldexp(want.residual_norm, power)
    for a, b in zip(got.lobes, want.lobes):
        assert a.amplitude == np.ldexp(b.amplitude, power)
        for name in ("center_s_nm", "center_i_nm", "sigma_major_nm",
                     "sigma_minor_nm", "orientation_rad", "r_squared"):
            assert getattr(a, name) == getattr(b, name), name


def test_fit_past_the_float_range_raises(centers):
    # noisy lobes whose maximum is within a factor 2 of the largest
    # float: the residual norm, about that maximum times 1.2, overflows
    ls, li, grid = benchmark_style_lobes(1, centers, points=121)
    grid = np.ldexp(grid, 1024 - np.frexp(grid.max())[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="passes the float range"):
            fit_lobes(ls, li, grid, 4)


# ---------------------------------------------------------------------------
# the fine pass on the coarse lobes' own nodes against the whole grid, the
# test-side reference

def full_grid_fit(ls, li, grid, n):
    """The fine pass of ``fit_lobes`` run on every node of the grid from
    the coarse pass: the canonical natural parameters of each lobe, in
    idler order, and the residual norm."""
    from fwmpairs import spectrum
    p0 = spectrum._coarse_pass(grid, ls, li, n)[0]
    p, fvec, _ = spectrum._least_squares(p0, grid, ls[:, None],
                                         li[None, :], (ls, li))
    q = spectrum._canonical_params(spectrum._from_log(p)).reshape(-1, 6)
    return q[np.argsort(q[:, 2])], float(np.linalg.norm(fvec))


@pytest.fixture
def joint_fit_nodes(monkeypatch):
    """The list of node counts, one per ``_least_squares`` call."""
    from fwmpairs import spectrum
    nodes = []
    least_squares = spectrum._least_squares

    def counted(p0, data, *args):
        nodes.append(np.size(data))
        return least_squares(p0, data, *args)

    monkeypatch.setattr(spectrum, "_least_squares", counted)
    return nodes


def assert_matches_full_grid(ls, li, grid, n, nodes):
    """Fit ``n`` lobes, compare them with the reference and return the
    node counts of the coarse joint fit and the fine pass, from the list
    ``nodes``."""
    fit = fit_lobes(ls, li, grid, n)
    joint = nodes[n:]
    want, residual_norm = full_grid_fit(ls, li, grid, n)
    got = np.array([[lb.amplitude, lb.center_s_nm, lb.center_i_nm,
                     lb.sigma_major_nm, lb.sigma_minor_nm,
                     lb.orientation_rad] for lb in fit.lobes])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert fit.residual_norm == pytest.approx(residual_norm, rel=1e-12)
    return joint


@pytest.mark.parametrize("case", ["simulate-jsi", "cross-spliced",
                                  *range(1, 9)])
def test_supported_fit_matches_the_full_grid(joint_fit_nodes, centers,
                                             case):
    # on the 15 + 15 mm cross-spliced fiber at 301^2, without the coarse
    # pass and the peel's clamp, the joint fit walks lobe C 3.6 nm to the
    # A side
    if case in ("simulate-jsi", "cross-spliced"):
        from fwmpairs.pipeline import Simulation
        fiber = FiberSpec(segments=((0.015, False), (0.015, True))) \
            if case == "cross-spliced" else FiberSpec()
        jsi = Simulation(PipelineConfig.parse({}), fiber=fiber).jsi()
        ls, li, grid = jsi.lambda_s_axis, jsi.lambda_i_axis, jsi.combined
    else:
        ls, li, grid = benchmark_style_lobes(case, centers)
    coarse, support = assert_matches_full_grid(ls, li, grid, 4,
                                               joint_fit_nodes)
    assert coarse == 101 * 101
    assert support < grid.size


def test_staying_lobes_keep_their_leak_inside_their_own_nodes():
    # the test of _stays is sufficient: a lobe it passes has no node
    # above _LEAK_FRACTION of its amplitude outside its anchor's nodes
    from fwmpairs import spectrum
    ls = np.linspace(670.0, 690.0, 201)
    li = np.linspace(566.0, 576.0, 161)
    anchor = np.array([1.0, 680.0, 571.0, 1.1, 0.35, 0.45])
    own = spectrum._window(anchor, ls, li, spectrum.SUPPORT_RADIUS**2)
    leak = -2.0 * np.log(spectrum._LEAK_FRACTION)
    assert spectrum._stays(anchor, anchor)
    rng = np.random.default_rng(5)
    passed = 0
    for _ in range(300):
        q = anchor * np.exp(rng.normal(0.0, [0, 0, 0, 0.03, 0.03, 0]))
        q[1:3] += rng.normal(0.0, 0.15, 2)
        q[5] += rng.normal(0.0, 0.05)
        if spectrum._stays(q, anchor):
            passed += 1
            assert np.all(np.isin(spectrum._window(q, ls, li, leak), own))
    assert 0 < passed < 300
    # half a minor sigma across the minor axis passes, one does not
    for shift, want in ((0.5, True), (1.0, False)):
        q = anchor.copy()
        q[1:3] += shift * 0.35 * np.array([-np.sin(0.45), np.cos(0.45)])
        assert spectrum._stays(q, anchor) is want


# ---------------------------------------------------------------------------
# the normal equations summed over node blocks against the whole Jacobian,
# the test-side reference

def whole_jacobian_normal_equations(p, xs, yi, data):
    """J J^T and J r from the rows J of ``_lobe_jacobian`` on all nodes at
    once, at the residual r of the log parameters ``p``."""
    from fwmpairs import spectrum
    r = (spectrum._lobe_model(spectrum._from_log(p), xs, yi)
         - data).ravel()
    jac = spectrum._lobe_jacobian(p, xs, yi)
    return jac @ jac.T, jac @ r


def lobe_nodes(case, ls, li, grid, p):
    """The nodes (xs, yi) and data of one kind of fit on ``grid``, in the
    shapes ``_least_squares`` receives them."""
    from fwmpairs import spectrum
    if case == "peel crop":
        rows, cols = slice(118, 181), slice(40, 101)
        return ls[rows, None], li[None, cols], grid[rows, cols]
    if case == "whole grid":
        return ls[:, None], li[None, :], grid
    xs, yi = np.meshgrid(ls, li, indexing="ij")
    support = np.zeros(grid.shape, dtype=bool)
    for d2 in distances2(spectrum._from_log(p), xs, yi):
        support |= d2 <= spectrum.SUPPORT_RADIUS**2
    if case == "support":
        return xs[support], yi[support], grid[support]
    # the first ``case`` nodes of the support
    return xs[support][:case], yi[support][:case], grid[support][:case]


@pytest.mark.parametrize("case", [1, _JAC_BLOCK - 1, _JAC_BLOCK,
                                  _JAC_BLOCK + 1, "peel crop", "support",
                                  "whole grid"])
def test_normal_equations_match_the_whole_jacobian(centers, case):
    from fwmpairs import spectrum
    ls, li, grid = benchmark_style_lobes(1, centers)
    p = np.asarray(spectrum._peel(grid, ls, li, 4))
    xs, yi, data = lobe_nodes(case, ls, li, grid, p)
    want_normal, want_grad = whole_jacobian_normal_equations(p, xs, yi, data)
    flat_xs, flat_yi = (np.ravel(a) for a in np.broadcast_arrays(xs, yi))
    r = (spectrum._lobe_model(spectrum._from_log(p), flat_xs, flat_yi)
         - np.ravel(data))
    normal, grad = spectrum._normal_equations(p, flat_xs, flat_yi, r)
    assert np.max(np.abs(normal - want_normal)) <= 1e-12 * np.max(
        np.abs(want_normal))
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(
        np.abs(want_grad))


@pytest.mark.parametrize("points", [301, 451])
def test_lobe_fit_memory_stays_within_ten_grids(centers, points):
    # numpy reports its buffers to tracemalloc; a fit that held the whole
    # 24 x n Jacobian of the support peaked above 30 grids
    import tracemalloc
    ls, li, grid = benchmark_style_lobes(1, centers, points)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fit_lobes(ls, li, grid, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 10 * grid.nbytes


# ---------------------------------------------------------------------------
# the JSI filled in row blocks against the whole grid at once, the
# test-side reference

def whole_grid_jsa(processes, fiber, pump, weights, grid):
    """(combined, normalization) of ``jsa_grid`` with the pump envelope,
    the index solve and the channel sums on the whole mesh at once."""
    ls, li = grid.axes()
    mesh_s, mesh_i = ls[:, None], li[None, :]
    alpha = pump_envelope(mesh_s, mesh_i, pump)
    cache = BaseIndexCache(fiber, mesh_s / 1000.0, mesh_i / 1000.0)
    groups = {}
    for proc in processes:
        c_j = weights.get(proc.label, 0j)
        if c_j != 0:
            groups.setdefault((proc.t_s, proc.t_i), []).append((c_j, proc))
    combined = np.zeros(alpha.shape)
    for group in groups.values():
        coherent = sum(c_j * alpha * cache.phase_matching(proc)
                       for c_j, proc in group)
        combined += np.abs(coherent) ** 2
    raw = float(combined.sum()) * (ls[1] - ls[0]) * (li[1] - li[0])
    return combined / raw, raw


# idler points of the block tests, and the rows of one block there
_BLOCK_COLS = 64
_BLOCK_ROWS = _JSA_BLOCK // _BLOCK_COLS
BLOCK_FIBERS = {"single": ((0.10, False),),
                "cross-spliced": ((0.015, False), (0.015, True))}


@pytest.mark.parametrize("fiber_name", sorted(BLOCK_FIBERS))
@pytest.mark.parametrize("rows, block", [
    (7, 1),  # blocks of one row: a block narrower than a row
    (_BLOCK_ROWS - 1, _JSA_BLOCK), (_BLOCK_ROWS, _JSA_BLOCK),
    (_BLOCK_ROWS + 1, _JSA_BLOCK), (2 * _BLOCK_ROWS + 7, _JSA_BLOCK)])
def test_row_blocks_match_the_whole_grid(monkeypatch, pump, processes_eo,
                                         fiber_name, rows, block):
    from fwmpairs import spectrum
    monkeypatch.setattr(spectrum, "_JSA_BLOCK", block)
    f = FiberSpec(segments=BLOCK_FIBERS[fiber_name])
    # C and E share the output pair (e, e), so one group is coherent
    weights = {**CHANNEL_WEIGHTS, "A": 0.2 + 0.3j, "D": -0.4}
    grid = SpectralGrid((674.0, 684.0), (566.0, 576.0), rows, _BLOCK_COLS)
    got = jsa_grid(model_amplitudes(processes_eo, f, pump, weights),
                   processes_eo, grid)
    want, raw = whole_grid_jsa(processes_eo, f, pump, weights, grid)
    assert got.combined.tobytes() == want.tobytes()
    assert got.normalization == raw
    # and the fused reference, which forms c_j * alpha * phi_j itself
    fused = fused_jsa_grid(processes_eo, f, pump, weights, grid)
    assert got.combined.tobytes() == fused.combined.tobytes()
    assert got.normalization == fused.normalization


@pytest.mark.parametrize("points", [301, 451])
def test_jsa_grid_memory_stays_within_three_grids(fiber, pump, processes_eo,
                                                  weights, points):
    # numpy reports its buffers to tracemalloc; the whole-grid version
    # peaked at 15 grids
    import tracemalloc
    procs = [p for p in processes_eo if p.label in "ABCD"]
    grid = SpectralGrid(points_s=points, points_i=points)
    amplitudes = model_amplitudes(procs, fiber, pump, weights)
    jsa_grid(amplitudes, procs, grid)  # builds the index table
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        combined = jsa_grid(amplitudes, procs, grid).combined
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 3 * combined.nbytes


# ---------------------------------------------------------------------------
# property: separated lobes are recovered

# lobe slots on the synthetic grid, 6 nm apart in signal and 5 nm in idler
_SLOTS = [(s, i) for s in (674.0, 680.0, 686.0) for i in (568.5, 573.5)]


@st.composite
def separated_lobes(draw):
    slots = draw(st.lists(st.sampled_from(_SLOTS), min_size=1, max_size=4,
                          unique=True))
    jitter = st.floats(-0.3, 0.3)
    return [dict(center_s_nm=s + draw(jitter), center_i_nm=i + draw(jitter),
                 sigma_major_nm=draw(st.floats(0.6, 1.4)),
                 sigma_minor_nm=draw(st.floats(0.25, 0.5)),
                 orientation_rad=draw(st.floats(0.0, np.pi)),
                 amplitude=draw(st.floats(0.5, 2.0)))
            for s, i in slots]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(truths=separated_lobes(), seed=st.integers(0, 2**32 - 1))
def test_fit_recovers_separated_lobes(truths, seed):
    ls, li, grid = synthetic_lobe_grid(truths, noise=0.01, seed=seed)
    fit = fit_lobes(ls, li, grid, len(truths))
    assert len(fit.lobes) == len(truths)
    assert all(lobe.amplitude > 0 for lobe in fit.lobes)
    # the truths lie at least 4 nm apart, so no fitted lobe is within
    # 0.05 nm of two of them
    got = np.array([(lb.center_s_nm, lb.center_i_nm) for lb in fit.lobes])
    for t in truths:
        error = np.abs(got - (t["center_s_nm"], t["center_i_nm"]))
        assert np.min(np.max(error, axis=1)) <= 0.05
