import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_LIGHT

from fwmpairs.dispersion import FiberSpec
from fwmpairs.errors import ConfigError, DomainError, NumericError
from fwmpairs.processes import BaseIndexCache, FwmProcess
from fwmpairs.spectrum import (GaussianLobe, PumpSpec, SpectralGrid,
                               fit_lobes, jsa_grid, pump_envelope)


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
    from fwmpairs.estimation import process_weights
    procs = [p for p in processes_eo if p.label in "ABCD"]
    return process_weights(pump, overlaps_abcd, procs)


@pytest.fixture(scope="module")
def grid_default(fiber, pump, processes_eo, weights):
    procs = [p for p in processes_eo if p.label in "ABCD"]
    return jsa_grid(procs, fiber, pump, weights,
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
    with pytest.raises(ConfigError):
        PumpSpec(intensity_fwhm_nm=0.0)


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
        jsa_grid([], fiber, pump, {})


def test_single_process_combined_equals_squared_amplitude(fiber, pump):
    proc = FwmProcess("e", "e", "e", "e")
    grid = jsa_grid([proc], fiber, pump, {"C": 1.0 + 0j},
                    SpectralGrid(points_s=101, points_i=101))
    recon = np.abs(grid.per_process["C"]) ** 2
    assert np.max(np.abs(recon - grid.combined)) < 1e-12 * grid.combined.max()


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
        grid = jsa_grid(procs, f, pump, w,
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
        grid = jsa_grid(procs, f, pump, w,
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
    # short cross-spliced fiber: lobes wide enough to resolve at both
    # resolutions, centers unchanged by segment layout
    short = FiberSpec(segments=((0.025, False), (0.025, True)))
    procs = [p for p in processes_eo if p.label in "ABCD"]
    results = {}
    for n in (161, 322):
        grid = jsa_grid(procs, short, pump, weights,
                        SpectralGrid((672.0, 684.0), (566.0, 576.0), n, n))
        fit = fit_lobes(grid.lambda_s_axis, grid.lambda_i_axis,
                        grid.combined, 4)
        results[n] = sorted(lb.center_i_nm for lb in fit.lobes)
    for a, b in zip(results[161], results[322]):
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

def minpack_least_squares(p0, data, xs, yi, grid):
    """``spectrum._least_squares`` through ``scipy.optimize.leastsq`` with
    the same residual, Jacobian, tolerances and budget."""
    from scipy.optimize import leastsq
    from fwmpairs import spectrum

    def resid(p):
        return (spectrum._lobe_model(spectrum._from_log(p), xs, yi)
                - data).ravel()

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        p, _, info, _, ier = leastsq(
            resid, p0, Dfun=lambda p: spectrum._lobe_jacobian(p, xs, yi),
            col_deriv=True, full_output=True,
            maxfev=spectrum.MAX_EVALS_PER_PARAM * len(p0),
            xtol=1e-12, ftol=1e-12, gtol=1e-12)
    assert ier in (1, 2, 3, 4)
    return p, info["fvec"], info["nfev"]


def benchmark_style_lobes(seed, centers):
    """Four lobes near the model's A-D centers with 1 % noise on the
    default 301^2 grid, drawn as the benchmark's lobes are."""
    rng = np.random.default_rng([seed, 1])
    ls = np.linspace(670.0, 700.0, 301)
    li = np.linspace(567.0, 576.0, 301)
    total = np.zeros((301, 301))
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
        from fwmpairs.config import PipelineConfig
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


# ---------------------------------------------------------------------------
# the joint fit on the peeled lobes' support against the whole grid, the
# test-side reference

def full_grid_fit(ls, li, grid, n):
    """The joint stage of ``fit_lobes`` run on every node of the grid:
    the canonical natural parameters of each lobe, in idler order, and
    the residual norm."""
    from fwmpairs import spectrum
    p0 = np.asarray(spectrum._peel(grid, ls, li, n))
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
    joint stage's node counts, from the list ``nodes``."""
    fit = fit_lobes(ls, li, grid, n)
    joint = nodes[n:]
    want, residual_norm = full_grid_fit(ls, li, grid, n)
    got = np.array([[lb.amplitude, lb.center_s_nm, lb.center_i_nm,
                     lb.sigma_major_nm, lb.sigma_minor_nm,
                     lb.orientation_rad] for lb in fit.lobes])
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)
    assert fit.residual_norm == pytest.approx(residual_norm, rel=1e-12)
    return joint


@pytest.mark.parametrize("case", ["simulate-jsi", *range(1, 9)])
def test_supported_fit_matches_the_full_grid(joint_fit_nodes, centers,
                                             case):
    if case == "simulate-jsi":
        from fwmpairs.config import PipelineConfig
        from fwmpairs.pipeline import Simulation
        jsi = Simulation(PipelineConfig.parse({})).jsi()
        ls, li, grid = jsi.lambda_s_axis, jsi.lambda_i_axis, jsi.combined
    else:
        ls, li, grid = benchmark_style_lobes(case, centers)
    (support,) = assert_matches_full_grid(ls, li, grid, 4, joint_fit_nodes)
    assert support < grid.size


def test_leaking_supported_fit_reruns_on_the_full_grid(joint_fit_nodes,
                                                       monkeypatch,
                                                       centers):
    # at radius 3 every lobe still holds 1 % of its amplitude at the
    # support's edge, so the fit on the support reruns on the whole grid
    from fwmpairs import spectrum
    monkeypatch.setattr(spectrum, "SUPPORT_RADIUS", 3.0)
    ls, li, grid = benchmark_style_lobes(1, centers)
    support, rerun = assert_matches_full_grid(ls, li, grid, 4,
                                              joint_fit_nodes)
    assert support < rerun == grid.size


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
