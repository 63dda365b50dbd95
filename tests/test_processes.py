import numpy as np
import pytest

from fwmpairs.dispersion import (FiberSpec, birefringence_offset,
                                 lp_effective_index)
from fwmpairs.errors import DomainError, PhaseMatchError
from fwmpairs.processes import (BaseIndexCache, FwmProcess, all_candidates,
                                delta_k_vec, enumerate_processes,
                                phasematched_center, phasematched_centers)
from conftest import MEASURED_CENTERS

CANONICAL = {
    "A": ("e", "o", "o", "e"),
    "B": ("o", "o", "o", "o"),
    "C": ("e", "e", "e", "e"),
    "D": ("e", "o", "e", "o"),
    "E": ("o", "o", "e", "e"),
}


def test_two_mode_set_gives_exactly_the_five_channels(processes_eo):
    got = {p.label: p.modes for p in processes_eo}
    assert got == CANONICAL


def test_single_mode_set():
    procs = enumerate_processes({"e"})
    assert len(procs) == 1
    assert procs[0].modes == ("e", "e", "e", "e")


def test_three_mode_set_gives_ten():
    procs = enumerate_processes({"g", "e", "o"})
    assert len(procs) == 10
    labels = {p.label for p in procs}
    assert {"A", "B", "C", "D", "E"} <= labels
    # the five fundamental-mode channels
    assert {"gg-gg", "ge-ge", "ge-eg", "go-go", "go-og"} <= labels


def test_every_emitted_process_conserves_parity(processes_eo):
    for p in processes_eo:
        assert p.conserves_parity()
        assert p.conserves_azimuthal_sum()
        assert p.pump_odd_excess() >= 0


def test_every_rejected_combination_fails_a_rule():
    emitted = {p.modes for p in enumerate_processes({"e", "o"})}
    rejected = [p for p in all_candidates({"e", "o"})
                if p.modes not in emitted]
    assert len(rejected) == 7
    for p in rejected:
        assert not p.is_viable()
    # six of the seven fail parity conservation outright; the seventh,
    # pumps (e,e) -> outputs (o,o), conserves parity but cannot phase
    # match when odd modes are slower than even ones
    parity_fails = [p for p in rejected if not p.conserves_parity()]
    assert len(parity_fails) == 6
    survivor = [p for p in rejected if p.conserves_parity()]
    assert [p.modes for p in survivor] == [("e", "e", "o", "o")]
    assert survivor[0].pump_odd_excess() < 0


def test_pump_pair_never_emitted_in_both_orders(processes_eo):
    pairs = [(p.t_p1, p.t_p2) for p in enumerate_processes({"g", "e", "o"})]
    for a, b in pairs:
        if a != b:
            assert (b, a) not in pairs or (a, b) == (b, a)
    seen = set()
    for p in enumerate_processes({"g", "e", "o"}):
        key = (frozenset((p.t_p1, p.t_p2)), p.t_s, p.t_i)
        assert key not in seen
        seen.add(key)


def test_constant_index_cancels_on_energy_surface(monkeypatch):
    # with all four effective indices pinned to one constant and no
    # birefringence, the degenerate-pump surface cancels the four
    # n*omega/c terms identically
    import fwmpairs.processes as procmod

    monkeypatch.setattr(
        procmod, "lp_effective_index",
        lambda fiber, lam, lp_label: np.full_like(
            np.asarray(lam, dtype=float), 1.45))
    flat = FiberSpec(delta_pol=0.0, delta_parity=0.0,
                     delta_parity_dispersion=0.0)
    proc = FwmProcess("e", "o", "o", "e")
    for li in (0.560, 0.5712, 0.580):
        ls = 1.0 / (2.0 / 0.620 - 1.0 / li)
        dk = delta_k_vec(proc, ls, li, flat)
        assert dk[0] == pytest.approx(0.0, abs=1e-6)


def test_b_equals_c_without_parity_dispersion():
    fiber0 = FiberSpec(delta_parity_dispersion=0.0)
    b = FwmProcess("o", "o", "o", "o")
    c = FwmProcess("e", "e", "e", "e")
    for li in (0.560, 0.570, 0.5795):
        ls = 1.0 / (2.0 / 0.620 - 1.0 / li)
        dkb = delta_k_vec(b, ls, li, fiber0)[0]
        dkc = delta_k_vec(c, ls, li, fiber0)[0]
        # exact cancellation up to roundoff of the 1e7-scale wavenumbers
        assert dkb == pytest.approx(dkc, abs=1e-7)


def test_delta_k_changes_sign_across_contour(fiber, centers):
    proc = FwmProcess("e", "e", "e", "e")
    li_c = centers["C"][1] / 1000.0
    for offset, sign in ((-0.002, -1.0), (0.002, 1.0)):
        li = li_c + offset
        ls = 1.0 / (2.0 / 0.620 - 1.0 / li)
        dk = delta_k_vec(proc, ls, li, fiber)
        assert np.sign(dk[0]) == sign


def test_center_energy_identity(centers):
    for label, (ls, li) in centers.items():
        assert abs(2.0 / 620.0 - 1.0 / ls - 1.0 / li) < 1e-9


def test_centers_match_measured_values(centers):
    for label, (ms, mi) in MEASURED_CENTERS.items():
        ls, li = centers[label]
        assert ls == pytest.approx(ms, abs=2.0), label
        assert li == pytest.approx(mi, abs=2.0), label


def test_center_idler_ordering(centers):
    order = sorted("ABCD", key=lambda k: centers[k][1])
    assert order == ["A", "B", "C", "D"]


def test_e_process_soft_location(centers):
    ls, li = centers["E"]
    assert ls == pytest.approx(730.0, abs=10.0)
    assert li == pytest.approx(540.0, abs=5.0)


def test_centers_coincide_at_zero_dispersion():
    fiber0 = FiberSpec(delta_parity_dispersion=0.0)
    b = phasematched_center(FwmProcess("o", "o", "o", "o"), fiber0, 620.0)
    c = phasematched_center(FwmProcess("e", "e", "e", "e"), fiber0, 620.0)
    assert b[1] == pytest.approx(c[1], abs=2e-4)
    assert b[0] == pytest.approx(c[0], abs=2e-3)


def test_separation_monotone_in_dispersion():
    seps = []
    for delta in (0.0, 1.5e-5, 3.0e-5):
        f = FiberSpec(delta_parity_dispersion=delta)
        b = phasematched_center(FwmProcess("o", "o", "o", "o"), f, 620.0)
        c = phasematched_center(FwmProcess("e", "e", "e", "e"), f, 620.0)
        seps.append(abs(c[1] - b[1]))
    assert seps[0] < seps[1] < seps[2]


def test_no_root_in_band_reports_extrema(fiber):
    proc = FwmProcess("o", "o", "e", "e")  # matches near 542 nm
    with pytest.raises(PhaseMatchError) as err:
        phasematched_center(proc, fiber, 620.0, band_i_nm=(560.0, 580.0))
    assert "not phase matched in band" in str(err.value)
    assert err.value.dk_min < err.value.dk_max
    assert err.value.dk_min > 0  # entire band on one side of the root


# ---------------------------------------------------------------------------
# one phase-mismatch path against a wave-by-wave reference

# default-fiber centers (lambda_s, lambda_i) in nm before the phase-mismatch
# paths were folded into BaseIndexCache
FOLD_CENTERS = {
    "A": (682.333676, 568.101821),
    "B": (679.773543, 569.888794),
    "C": (677.980832, 571.154907),
    "D": (675.536809, 572.901021),
    "E": (723.769548, 542.254888),
}
LAYOUTS = {
    "10cm": FiberSpec(),
    "15+15mm_cross": FiberSpec(segments=((0.015, False), (0.015, True))),
}


def reference_delta_k(process, lam_s, lam_i, fiber, axis_swapped):
    """k_p1 + k_p2 - k_s - k_i with each wave's index solved on its own."""
    lam_p = 1.0 / (0.5 * (1.0 / lam_s + 1.0 / lam_i))
    waves = ((process.t_p1, "pump", lam_p, 1.0),
             (process.t_p2, "pump", lam_p, 1.0),
             (process.t_s, "signal", lam_s, -1.0),
             (process.t_i, "idler", lam_i, -1.0))
    total = 0.0
    for parity, photon, lam, sign in waves:
        n = (lp_effective_index(fiber, lam, "LP11")
             + birefringence_offset(fiber, parity, photon, axis_swapped))
        total = total + sign * 2.0 * np.pi * 1e6 * n / lam
    return total


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_delta_k_matches_wave_by_wave_reference(processes_eo, layout):
    fiber = LAYOUTS[layout]
    rng = np.random.default_rng(7)
    lam_s = rng.uniform(0.660, 0.740, 200)
    lam_i = rng.uniform(0.535, 0.580, 200)
    axis_s = np.linspace(0.670, 0.700, 7)[:, None]
    axis_i = np.linspace(0.567, 0.576, 9)[None, :]
    mesh_s, mesh_i = np.broadcast_arrays(axis_s, axis_i)
    points = BaseIndexCache(fiber, lam_s, lam_i)
    mesh = BaseIndexCache(fiber, axis_s, axis_i)
    assert mesh.base_s.shape == (7, 1) and mesh.base_i.shape == (1, 9)
    for proc in processes_eo:
        for swapped in (False, True):
            want = reference_delta_k(proc, lam_s, lam_i, fiber, swapped)
            got = points.delta_k(proc, swapped)
            assert np.max(np.abs(got - want)) <= 1e-6, (proc.label, swapped)
            want = reference_delta_k(proc, mesh_s.ravel(), mesh_i.ravel(),
                                     fiber, swapped).reshape(7, 9)
            got = mesh.delta_k(proc, swapped)
            assert np.max(np.abs(got - want)) <= 1e-6, (proc.label, swapped)
        # segments add coherently, each sinc-shaped and delayed by the
        # mismatch phase accumulated before it
        phi, phase = 0j, 0.0
        for length_m, swapped in fiber.segments:
            dk = reference_delta_k(proc, mesh_s, mesh_i, fiber, swapped)
            x = 0.5 * dk * length_m
            phi = phi + (length_m / fiber.total_length_m) * np.sinc(
                x / np.pi) * np.exp(1j * (x + phase))
            phase = phase + dk * length_m
        assert np.max(np.abs(mesh.phase_matching(proc) - phi)) <= 1e-9


def test_centers_unchanged_by_the_fold(centers):
    for label, (ms, mi) in FOLD_CENTERS.items():
        ls, li = centers[label]
        assert ls == pytest.approx(ms, abs=1e-6), label
        assert li == pytest.approx(mi, abs=1e-6), label


def test_fundamental_mode_channels_have_no_delta_k(fiber):
    cache = BaseIndexCache(fiber, 0.68, 0.57)
    with pytest.raises(DomainError):
        cache.delta_k(FwmProcess("g", "g", "g", "g"))
    with pytest.raises(DomainError):
        delta_k_vec(FwmProcess("g", "e", "g", "e"), 0.68, 0.57, fiber)


# ---------------------------------------------------------------------------
# shared scan against the per-channel search it replaced

def reference_center(process, fiber, lam_p_nm, band_i_nm,
                     scan_step_nm=0.01):
    """One channel's own scan and scalar bisection."""
    lo_nm, hi_nm = band_i_nm
    grid_i = np.arange(lo_nm, hi_nm + 0.5 * scan_step_nm, scan_step_nm)
    grid_s = 1.0 / (2.0 / lam_p_nm - 1.0 / grid_i)
    dk = delta_k_vec(process, grid_s / 1000.0, grid_i / 1000.0, fiber)
    sign = np.sign(dk)
    crossings = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    exact = np.nonzero(dk == 0.0)[0]
    if len(exact):
        li = float(grid_i[exact[0]])
        return float(1.0 / (2.0 / lam_p_nm - 1.0 / li)), li
    if len(crossings) == 0:
        return PhaseMatchError(
            f"process {process.label} not phase matched in band "
            f"[{lo_nm}, {hi_nm}] nm: delta_k in "
            f"[{dk.min():.6g}, {dk.max():.6g}] 1/m",
            dk_min=float(dk.min()), dk_max=float(dk.max()))

    def dk_at(li_nm):
        ls_nm = float(1.0 / (2.0 / lam_p_nm - 1.0 / np.asarray(li_nm)))
        return float(delta_k_vec(process, ls_nm / 1000.0, li_nm / 1000.0,
                                 fiber)[0])

    lo = float(grid_i[crossings[0]])
    hi = float(grid_i[crossings[0] + 1])
    f_lo = dk_at(lo)
    while hi - lo > 1e-5:
        mid = 0.5 * (lo + hi)
        f_mid = dk_at(mid)
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    lam_i = 0.5 * (lo + hi)
    return float(1.0 / (2.0 / lam_p_nm - 1.0 / np.asarray(lam_i))), lam_i


@pytest.mark.parametrize("delta", [0.0, 1.9e-5, 4.2e-5])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_shared_scan_matches_per_channel_search(processes_eo, layout, delta):
    fiber = FiberSpec(segments=LAYOUTS[layout].segments,
                      delta_parity_dispersion=delta)
    got = phasematched_centers(processes_eo, fiber, 620.0)
    assert list(got) == [p.label for p in processes_eo]
    for proc in processes_eo:
        assert got[proc.label] == reference_center(
            proc, fiber, 620.0, (540.0, 580.0)), proc.label


def test_shared_scan_reports_unmatched_channels_like_the_search(
        fiber, processes_eo):
    # E matches near 542 nm, outside this band; A-D match inside it
    got = phasematched_centers(processes_eo, fiber, 620.0,
                               band_i_nm=(560.0, 580.0))
    for proc in processes_eo:
        want = reference_center(proc, fiber, 620.0, (560.0, 580.0))
        assert isinstance(want, PhaseMatchError) == (proc.label == "E")
        if proc.label == "E":
            err = got[proc.label]
            assert isinstance(err, PhaseMatchError)
            assert str(err) == str(want)
            assert (err.dk_min, err.dk_max) == (want.dk_min, want.dk_max)
            with pytest.raises(PhaseMatchError) as raised:
                phasematched_center(proc, fiber, 620.0,
                                    band_i_nm=(560.0, 580.0))
            assert str(raised.value) == str(want)
        else:
            assert got[proc.label] == want, proc.label


def test_shared_scan_takes_the_first_of_several_crossings(
        fiber, processes_eo, monkeypatch):
    # a 3 nm ripple on the base index gives every channel several zeros
    import fwmpairs.processes as procmod

    def rippled(fiber, lam, lp_label):
        lam = np.asarray(lam, dtype=float)
        return (lp_effective_index(fiber, lam, lp_label)
                + 1e-4 * np.sin(2.0 * np.pi * lam / 0.003))

    monkeypatch.setattr(procmod, "lp_effective_index", rippled)
    grid_i = np.arange(540.0, 580.005, 0.01)
    grid_s = 1.0 / (2.0 / 620.0 - 1.0 / grid_i)
    got = phasematched_centers(processes_eo, fiber, 620.0)
    for proc in processes_eo:
        dk = delta_k_vec(proc, grid_s / 1000.0, grid_i / 1000.0, fiber)
        assert np.count_nonzero(np.diff(np.sign(dk))) >= 4, proc.label
        assert got[proc.label] == reference_center(
            proc, fiber, 620.0, (540.0, 580.0)), proc.label
