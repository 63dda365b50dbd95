from collections import OrderedDict

import numpy as np
import pytest

import scipy.special
from scipy.optimize import brentq

from fwmpairs import dispersion, processes
from fwmpairs.config import PipelineConfig
from fwmpairs.dispersion import (FiberSpec, LP11_CUTOFF_V,
                                 birefringence_offset, lp_effective_index,
                                 solve_lp_mode)
from fwmpairs.errors import ConfigError, DomainError, ModeNotGuidedError
from fwmpairs.pipeline import Simulation
from fwmpairs.processes import BaseIndexCache, FwmProcess


def overlaid_index(fiber, lam, parity, photon, axis_swapped=False):
    """Base LP index of an {e, o} wave plus its birefringence overlay."""
    return (lp_effective_index(fiber, lam, "LP11")
            + birefringence_offset(fiber, parity, photon, axis_swapped))


def n_eff(fiber, lam_um, label):
    return float(lp_effective_index(fiber, lam_um, label)[0])


def test_material_index_sodium_d_line(fiber):
    # fused silica at the helium d line, standard catalog value
    assert float(fiber.cladding_index(0.5876)) == pytest.approx(1.4585,
                                                                abs=1e-3)


def test_material_index_normal_dispersion(fiber):
    assert fiber.cladding_index(0.620) > fiber.cladding_index(0.680)


def test_material_index_out_of_range(fiber):
    with pytest.raises(DomainError, match=r"\[0.21, 3.7\]"):
        fiber.cladding_index(0.1)
    with pytest.raises(DomainError):
        fiber.cladding_index(5.0)


def test_v_number_at_620(fiber):
    # direct formula 2 pi r NA / lambda with the nominal NA
    expected = 2 * np.pi * 1.74 * 0.17 / 0.620
    assert expected == pytest.approx(2.998, abs=2e-3)
    assert float(fiber.v_number(np.asarray(0.620))) == pytest.approx(
        expected, abs=1e-6)


def test_lp11_guided_at_680(fiber):
    v = float(fiber.v_number(np.asarray(0.680)))
    assert v > LP11_CUTOFF_V
    # close to the constant-NA direct evaluation 2.733
    assert v == pytest.approx(2 * np.pi * 1.74 * 0.17 / 0.680, abs=0.02)
    # an LP11 root u lies above the first zero of J_0 (the cutoff), below V
    u, w = solve_lp_mode(fiber, 0.680, "LP11")
    assert LP11_CUTOFF_V < u < v and w > 0


@pytest.mark.parametrize("lam_um", [0.56, 0.62, 0.70])
@pytest.mark.parametrize("label", ["LP01", "LP11"])
def test_guided_mode_bounds(fiber, lam_um, label):
    n_cl = float(fiber.cladding_index(np.asarray(lam_um)))
    n_co = float(fiber.core_index(np.asarray(lam_um)))
    assert n_cl < n_eff(fiber, lam_um, label) < n_co


@pytest.mark.parametrize("lam_um", [0.56, 0.59, 0.62, 0.65, 0.68, 0.70])
def test_u_w_consistency(fiber, lam_um):
    v = float(fiber.v_number(np.asarray(lam_um)))
    for label in ("LP01", "LP11"):
        u, w = solve_lp_mode(fiber, lam_um, label)
        assert u**2 + w**2 == pytest.approx(v**2, rel=1e-9)


def test_lp01_faster_than_lp11(fiber):
    assert n_eff(fiber, 0.620, "LP01") > n_eff(fiber, 0.620, "LP11")


def test_lp11_below_cutoff_error(fiber):
    with pytest.raises(ModeNotGuidedError) as err:
        solve_lp_mode(fiber, 1.0, "LP11")
    assert err.value.v_number < LP11_CUTOFF_V
    assert "not guided" in str(err.value)


def test_lp11_guided_across_operating_band(fiber):
    lam = np.linspace(0.560, 0.700, 141)
    v = fiber.v_number(lam)
    assert np.all(v > LP11_CUTOFF_V)
    # solving must succeed over the whole band
    n = lp_effective_index(fiber, lam, "LP11")
    assert np.all(np.isfinite(n))


def test_n_eff_monotone_and_continuous(fiber):
    lam = np.arange(0.560, 0.700, 0.0001)  # 0.1 nm steps
    n = lp_effective_index(fiber, lam, "LP11")
    steps = np.diff(n)
    assert np.all(steps < 0)
    assert np.max(np.abs(steps)) < 1e-4


def test_birefringence_additivity_pump_parity(fiber):
    for lam in (0.60, 0.62, 0.64):
        n_e = overlaid_index(fiber, lam, "e", "pump")
        n_o = overlaid_index(fiber, lam, "o", "pump")
        assert float(n_o[0] - n_e[0]) == pytest.approx(fiber.delta_parity,
                                                       abs=1e-15)


def test_birefringence_additivity_pol(fiber):
    lam = 0.62
    n_pump_e = overlaid_index(fiber, lam, "e", "pump")
    base = n_eff(fiber, lam, "LP11")
    assert float(n_pump_e[0]) - base == pytest.approx(fiber.delta_pol,
                                                      abs=1e-15)


def test_signal_idler_parity_equal_at_zero_dispersion():
    fiber0 = FiberSpec(delta_parity_dispersion=0.0)
    lam = 0.62
    ds = (overlaid_index(fiber0, lam, "o", "signal")
          - overlaid_index(fiber0, lam, "e", "signal"))
    di = (overlaid_index(fiber0, lam, "o", "idler")
          - overlaid_index(fiber0, lam, "e", "idler"))
    assert float(ds[0]) == pytest.approx(float(di[0]), abs=1e-18)


def test_parity_dispersion_is_signal_idler_difference(fiber):
    # delta is defined as the observable difference between the two sides
    assert (birefringence_offset(fiber, "o", "idler")
            - birefringence_offset(fiber, "o", "signal")) == pytest.approx(
        fiber.delta_parity_dispersion)


def test_axis_swap_exchanges_roles(fiber):
    lam = 0.62
    # swapped segment: pump leaves the slow axis, signal/idler join it
    n_pump = overlaid_index(fiber, lam, "e", "pump", axis_swapped=True)
    base = n_eff(fiber, lam, "LP11")
    # lab-frame 'e' acts as fiber-frame 'o': parity term, no slow-axis term
    assert float(n_pump[0]) - base == pytest.approx(fiber.delta_parity,
                                                    abs=1e-15)
    n_sig = overlaid_index(fiber, lam, "o", "signal", axis_swapped=True)
    # lab 'o' -> fiber 'e' (no parity term), fast -> slow (delta_pol)
    assert float(n_sig[0]) - base == pytest.approx(fiber.delta_pol,
                                                   abs=1e-15)


def test_fiber_spec_validation():
    with pytest.raises(ConfigError):
        FiberSpec(core_radius_um=-1.0)
    with pytest.raises(ConfigError):
        FiberSpec(numerical_aperture=1.5)
    with pytest.raises(ConfigError):
        FiberSpec(delta_parity=-1e-4)
    with pytest.raises(ConfigError):
        FiberSpec(segments=())
    with pytest.raises(ConfigError):
        FiberSpec(segments=((0.0, False),))
    with pytest.raises(ConfigError):
        FiberSpec(core_model="granite")


def test_na_offset_core_model_option():
    alt = FiberSpec(core_model="na_offset")
    lam = np.asarray(0.62)
    n_co = float(alt.core_index(lam))
    n_cl = float(alt.cladding_index(lam))
    assert np.sqrt(n_co**2 - n_cl**2) == pytest.approx(0.17, abs=1e-12)


def test_ge_doped_core_anchors_na_at_reference(fiber):
    lam = np.asarray(0.62)
    n_co = float(fiber.core_index(lam))
    n_cl = float(fiber.cladding_index(lam))
    assert np.sqrt(n_co**2 - n_cl**2) == pytest.approx(0.17, abs=1e-9)


# ---------------------------------------------------------------------------
# Chebyshev index table against the bisection it is built from

TABLE_FIBERS = {
    "default": FiberSpec(),
    "na_offset": FiberSpec(core_model="na_offset"),
    "r2.2_na0.14": FiberSpec(core_radius_um=2.2, numerical_aperture=0.14),
}
LABEL_AZIMUTHAL = {"LP01": 0, "LP11": 1}


def lp11_cutoff_um(fiber):
    """Wavelength at which V falls to the LP11 cutoff."""
    return brentq(lambda lam: float(fiber.v_number(lam)) - LP11_CUTOFF_V,
                  0.3, 3.0, xtol=1e-15)


def assert_matches_bisection(fiber, lam, label):
    table = lp_effective_index(fiber, lam, label)
    reference = dispersion._bisect_n_eff(fiber, lam, LABEL_AZIMUTHAL[label])
    assert np.max(np.abs(table - reference)) <= 1e-12


@pytest.mark.parametrize("label", ["LP01", "LP11"])
@pytest.mark.parametrize("name", sorted(TABLE_FIBERS))
def test_index_table_matches_bisection(name, label):
    fiber = TABLE_FIBERS[name]
    lo, hi = dispersion.SELLMEIER_RANGE_UM
    lam = np.random.default_rng(2024).uniform(lo, hi, 3000)
    if label == "LP11":
        lam = lam[fiber.v_number(lam) > LP11_CUTOFF_V]
    assert len(lam) > 300
    assert_matches_bisection(fiber, lam, label)


@pytest.mark.parametrize("name", sorted(TABLE_FIBERS))
def test_index_table_matches_bisection_below_lp11_cutoff(name):
    fiber = TABLE_FIBERS[name]
    cutoff = lp11_cutoff_um(fiber)
    lam = cutoff - np.random.default_rng(7).uniform(0.0, 0.002, 400)
    lam = lam[fiber.v_number(lam) > LP11_CUTOFF_V]
    assert_matches_bisection(fiber, lam, "LP11")


def test_only_the_cutoff_panel_is_bisected(fiber, monkeypatch):
    """Every LP11 panel of the default fiber carries coefficients except
    the one holding the cutoff, and every LP01 panel does."""
    monkeypatch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
    cutoff = lp11_cutoff_um(fiber)
    indices = range(int(np.ptp(dispersion.SELLMEIER_RANGE_UM)
                        // dispersion.PANEL_WIDTH_UM) + 1)
    lp01 = dispersion._panels(fiber, 0, indices)
    lp11 = dispersion._panels(fiber, 1, indices)
    assert len(dispersion._PANEL_CACHE) == 2 * len(indices)
    for index, coef01, coef11 in zip(indices, lp01, lp11):
        a, b = dispersion._panel_bounds(index)
        assert coef01 is not None
        if b < cutoff:
            assert coef11 is not None
        elif a <= cutoff:
            assert coef11 is None


@pytest.mark.parametrize("label", ["LP01", "LP11"])
def test_multi_panel_build_matches_one_panel_builds(fiber, monkeypatch,
                                                    label):
    # panels from 0.50 to 0.86 um, the LP11 cutoff panel among them
    l = LABEL_AZIMUTHAL[label]
    cutoff_panel = int((lp11_cutoff_um(fiber) - 0.21)
                       // dispersion.PANEL_WIDTH_UM)
    indices = range(cutoff_panel - 13, cutoff_panel + 5)
    monkeypatch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
    together = dispersion._panels(fiber, l, indices)
    assert (together[13] is None) == (label == "LP11")
    for index, coef in zip(indices, together):
        monkeypatch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
        (alone,) = dispersion._panels(fiber, l, [index])
        if coef is None:
            assert alone is None, index
        else:
            assert np.array_equal(alone, coef), index


def test_panel_cache_is_bounded_least_recently_used(fiber, monkeypatch):
    monkeypatch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
    monkeypatch.setattr(dispersion, "_PANEL_CACHE_SIZE", 4)
    key = (fiber.core_radius_um, fiber.numerical_aperture,
           fiber.core_model, 0)
    dispersion._panels(fiber, 0, [10, 11, 12])
    dispersion._panels(fiber, 0, [10, 13, 14])
    assert list(dispersion._PANEL_CACHE) == [key + (i,)
                                             for i in (12, 10, 13, 14)]


def test_cold_simulation_solves_each_wave_once(monkeypatch):
    # index queries of the center search, and bisections of any caller
    calls = {"centers": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dispersion, "_PANEL_CACHE", OrderedDict())
    monkeypatch.setattr(processes, "lp_effective_index",
                        counted("centers", lp_effective_index))
    monkeypatch.setattr(dispersion, "_solve_u_array",
                        counted("solve", dispersion._solve_u_array))
    sim = Simulation(PipelineConfig.parse({}))
    assert sorted(sim.centers) == list("ABCDE")
    # the 4001-point scan, the brackets' lower ends and 10 bisection
    # steps, three waves each; the scan builds the signal, idler and pump
    # panels in one bisection per wave, and every later query, the
    # overlaps' included, falls in a built panel
    assert calls == {"centers": 36, "solve": 3}


def test_index_is_independent_of_the_batch(fiber):
    lam_s = np.linspace(0.670, 0.690, 301)
    lam_i = np.linspace(0.565, 0.578, 301)
    lam_p = 1.0 / (0.5 * (1.0 / lam_s[:, None] + 1.0 / lam_i[None, :]))
    # a few points in the bisected cutoff panel ride along
    cutoff = lp11_cutoff_um(fiber)
    batch = np.concatenate([lam_p.ravel(), cutoff - np.array([3e-3, 1e-3, 1e-5])])
    assert len(batch) == 90_604
    full = lp_effective_index(fiber, batch, "LP11")
    rng = np.random.default_rng(11)
    for j in list(rng.integers(0, 90_601, 20)) + [90_601, 90_602, 90_603]:
        alone = lp_effective_index(fiber, batch[j], "LP11")
        assert alone.shape == (1,)
        assert alone[0] == full[j]
    reversed_ = lp_effective_index(fiber, batch[::-1], "LP11")
    assert np.array_equal(reversed_[::-1], full)


def test_thin_axis_cache_matches_full_mesh(fiber):
    lam_s = np.linspace(0.670, 0.690, 61)
    lam_i = np.linspace(0.565, 0.578, 47)
    thin = BaseIndexCache(fiber, lam_s[:, None], lam_i[None, :])
    mesh_s, mesh_i = np.meshgrid(lam_s, lam_i, indexing="ij")
    full = BaseIndexCache(fiber, mesh_s, mesh_i)
    for name in ("base_s", "base_i", "base_p"):
        wide = np.broadcast_to(getattr(thin, name), mesh_s.shape)
        assert np.array_equal(wide, getattr(full, name))
    process = FwmProcess("e", "o", "o", "e")
    assert np.array_equal(
        np.broadcast_to(thin.delta_k(process), mesh_s.shape),
        full.delta_k(process))


def test_index_table_keeps_the_error_contract(fiber):
    with pytest.raises(ConfigError, match="LP21"):
        lp_effective_index(fiber, 0.62, "LP21")
    with pytest.raises(DomainError, match=r"\[0.21, 3.7\]"):
        lp_effective_index(fiber, [0.62, 0.1], "LP11")
    with pytest.raises(DomainError):
        lp_effective_index(fiber, 5.0, "LP01")
    lam = np.array([0.62, 0.70, 0.80, 0.90])
    with pytest.raises(ModeNotGuidedError, match="got V = ") as err:
        lp_effective_index(fiber, lam, "LP11")
    assert err.value.v_number == float(np.min(fiber.v_number(lam)))
    assert err.value.v_number < LP11_CUTOFF_V
    # LP01 has no cutoff
    assert np.all(np.isfinite(lp_effective_index(fiber, lam, "LP01")))


# ---------------------------------------------------------------------------
# numpy Bessel kernels against scipy.special, the test-side reference

@pytest.mark.parametrize("n", [0, 1, 2])
def test_bessel_j_matches_scipy(n):
    # every core argument of an LP solve lies below the first J_1 zero
    x = np.linspace(0.0, 3.84, 4001)
    got, = dispersion._bessel_j_orders((n,), x)
    assert np.max(np.abs(got - scipy.special.jv(n, x))) <= 1e-15


@pytest.mark.parametrize("n", [0, 1, 2])
def test_bessel_k_matches_scipy(n):
    # both quadrature bands and the asymptotic series
    x = np.concatenate([np.geomspace(1e-8, 50.0, 4001),
                        np.linspace(50.0, 400.0, 351)])
    got, = dispersion._bessel_k_orders((n,), x)
    assert np.max(np.abs(got / scipy.special.kv(n, x) - 1.0)) <= 1e-14


@pytest.mark.parametrize("orders_kernel", [dispersion._bessel_j_orders,
                                           dispersion._bessel_k_orders],
                         ids=["_bessel_j", "_bessel_k"])
def test_bessel_kernel_values_are_pointwise(orders_kernel):
    # more arguments than one chunk, over every K band and J's range
    def kernel(n, x):
        return orders_kernel((n,), x)[0]

    x = 4.5 * np.random.default_rng(3).random(5000) ** 8
    full = kernel(1, x)
    for j in (0, 2047, 2048, 4999):
        assert kernel(1, x[j])[()] == full[j]
    assert np.array_equal(kernel(1, x[::-1])[::-1], full)
    assert np.array_equal(kernel(1, x.reshape(50, 100)), full.reshape(50, 100))


@pytest.mark.parametrize("label", ["LP01", "LP11"])
@pytest.mark.parametrize("name", sorted(TABLE_FIBERS))
def test_bisection_matches_scipy_bessel_bisection(monkeypatch, name, label):
    fiber = TABLE_FIBERS[name]
    lo, hi = dispersion.SELLMEIER_RANGE_UM
    lam = np.random.default_rng(2025).uniform(lo, hi, 600)
    if label == "LP11":
        lam = lam[fiber.v_number(lam) > LP11_CUTOFF_V]
    ours = dispersion._bisect_n_eff(fiber, lam, LABEL_AZIMUTHAL[label])
    monkeypatch.setattr(dispersion, "_bessel_j_orders", lambda orders, x: tuple(
        scipy.special.jv(n, x) for n in orders))
    monkeypatch.setattr(dispersion, "_bessel_k_orders", lambda orders, x: tuple(
        scipy.special.kv(n, x) for n in orders))
    reference = dispersion._bisect_n_eff(fiber, lam, LABEL_AZIMUTHAL[label])
    assert np.max(np.abs(ours - reference)) <= 1e-13


# the single-order kernels before the orders shared their tables, as the
# bit-for-bit reference of the shared-table kernels

def reference_bessel_j(n, x):
    flat = np.asarray(x, dtype=float).ravel()
    out = np.empty_like(flat)
    for s in range(0, flat.size, dispersion._BESSEL_CHUNK):
        arg = (n * dispersion._J_TAU
               - flat[s:s + dispersion._BESSEL_CHUNK, None]
               * dispersion._J_SIN_TAU)
        out[s:s + dispersion._BESSEL_CHUNK] = np.cos(arg).sum(axis=1)
    return out / dispersion._J_NODES


def reference_bessel_k(n, x):
    d = dispersion
    flat = np.asarray(x, dtype=float).ravel()
    scaled = np.full_like(flat, np.nan)
    far = np.flatnonzero(flat > d._K_ASYMPTOTIC_X)
    z = flat[far]
    term = total = np.ones_like(z)
    for k in range(1, d._K_ASYMPTOTIC_TERMS + 1):
        term = term * (4 * n * n - (2 * k - 1) ** 2) / (8 * k * z)
        total = total + term
    scaled[far] = np.sqrt(0.5 * np.pi / z) * total
    weights = d._K_WEIGHTS * np.cosh(n * d._K_T)
    band = np.searchsorted(d._K_BAND_LOW, flat, side="right") - 1
    band[~(flat <= d._K_ASYMPTOTIC_X)] = -1
    for b in np.unique(band[band >= 0]):
        at = np.flatnonzero(band == b)
        nodes = d._K_BAND_NODES[b]
        for s in range(0, at.size, d._BESSEL_CHUNK):
            rows = at[s:s + d._BESSEL_CHUNK]
            damp = np.exp(-flat[rows, None] * d._K_COSH_M1[:nodes])
            scaled[rows] = (damp * weights[:nodes]).sum(axis=1)
    return np.exp(-flat) * scaled


@pytest.mark.parametrize("orders", [(0, 1), (1, 2), (0,), (1,), (2,)])
def test_shared_table_kernels_match_single_order_kernels(orders):
    # more arguments than one chunk; K over every band, the band edges
    # and both sides of the asymptotic switch at x = 25
    x_j = np.linspace(0.0, 4.5, 5001)
    x_k = np.concatenate([np.geomspace(1e-8, 400.0, 5001),
                          dispersion._K_BAND_LOW[1:],
                          np.linspace(24.0, 26.0, 201)])
    got_j = dispersion._bessel_j_orders(orders, x_j)
    got_k = dispersion._bessel_k_orders(orders, x_k)
    assert len(got_j) == len(got_k) == len(orders)
    for n, j, k in zip(orders, got_j, got_k):
        assert np.array_equal(j, reference_bessel_j(n, x_j)), n
        assert np.array_equal(k, reference_bessel_k(n, x_k)), n
