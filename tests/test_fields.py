import numpy as np
import pytest

from fwmpairs import fields
from fwmpairs.errors import ConfigError, DomainError
from fwmpairs.config import ModeSuperposition
from fwmpairs.fields import (FieldGrid, GridSpec, default_grid,
                             intensity_image, mode_field, normalize_overlaps,
                             process_overlap)
from fwmpairs.processes import FwmProcess, all_candidates


def basis(name):
    return ModeSuperposition.named(name)


def overlap_integral(p1: FieldGrid, p2: FieldGrid, s: FieldGrid,
                     i: FieldGrid) -> complex:
    """Slow 2-D reference: four-field overlap T_p1 T_p2 T_s* T_i* d2r
    summed over a shared square grid.  Symmetric under p1 <-> p2."""
    specs = {f.grid for f in (p1, p2, s, i)}
    if len(specs) != 1:
        raise DomainError("overlap_integral requires identical grid specs")
    integrand = p1.values * p2.values * np.conj(s.values) * np.conj(i.values)
    return complex(np.sum(integrand) * p1.grid.cell_area_um2)


def grid_process_overlap(fiber, process, lam_p_nm, center_nm, grid):
    """process_overlap evaluated by ``overlap_integral`` on ``grid``."""
    f_p1, f_p2, f_s, f_i = (
        mode_field(fiber, lam_nm / 1000.0, ModeSuperposition({mode: 1.0}),
                   grid)
        for mode, lam_nm in ((process.t_p1, lam_p_nm),
                             (process.t_p2, lam_p_nm),
                             (process.t_s, center_nm[0]),
                             (process.t_i, center_nm[1])))
    exchange = 1.0 if process.pump_mode_degenerate else 2.0
    return exchange * overlap_integral(f_p1, f_p2, f_s, f_i)


def test_superposition_normalization_and_names():
    d = basis("d")
    assert abs(sum(abs(v) ** 2 for v in d.amplitudes.values()) - 1) < 1e-12
    r = basis("r")
    assert r.amplitude("o") == pytest.approx(1j / np.sqrt(2))
    with pytest.raises(ConfigError):
        ModeSuperposition.named("q")
    with pytest.raises(ConfigError):
        ModeSuperposition({})


def test_lp01_peaks_on_axis(fiber):
    f = mode_field(fiber, 0.62, basis("g"))
    inten = np.abs(f.values) ** 2
    mid = f.grid.resolution // 2
    peak = np.unravel_index(np.argmax(inten), inten.shape)
    assert abs(peak[0] - mid) <= 1 and abs(peak[1] - mid) <= 1


@pytest.mark.parametrize("name", ["e", "o"])
def test_lp11_vanishes_on_axis(fiber, name):
    f = mode_field(fiber, 0.62, basis(name))
    inten = np.abs(f.values) ** 2
    mid = f.grid.resolution // 2
    assert inten[mid, mid] < 1e-6 * inten.max()


@pytest.mark.parametrize("name", ["g", "e", "o", "d", "r"])
def test_field_normalization(fiber, name):
    f = mode_field(fiber, 0.62, basis(name))
    assert f.power() == pytest.approx(1.0, abs=1e-6)


def test_lp11e_lobes_along_x(fiber):
    f = mode_field(fiber, 0.62, basis("e"))
    inten = np.abs(f.values) ** 2
    mid = f.grid.resolution // 2
    # cos(phi) profile: maxima on the x axis (row index = y)
    assert inten[mid, :].max() > 100 * inten[:, mid].max()


def test_overlap_odd_integrand_vanishes(fiber):
    fe = mode_field(fiber, 0.62, basis("e"))
    fo = mode_field(fiber, 0.62, basis("o"))
    val = overlap_integral(fe, fe, fe, fo)
    assert abs(val) < 1e-9


def test_overlap_pump_exchange_symmetry(fiber):
    fe = mode_field(fiber, 0.62, basis("e"))
    fo = mode_field(fiber, 0.62, basis("o"))
    ab = overlap_integral(fe, fo, fo, fe)
    ba = overlap_integral(fo, fe, fo, fe)
    assert ab == pytest.approx(ba, rel=1e-12)


def test_overlap_requires_matching_grids(fiber):
    f1 = mode_field(fiber, 0.62, basis("e"), GridSpec(5.0, 64))
    f2 = mode_field(fiber, 0.62, basis("e"), GridSpec(5.0, 65))
    with pytest.raises(DomainError):
        overlap_integral(f1, f1, f1, f2)


def test_overlap_ratio_identical_vs_mixed(fiber, centers):
    raw = process_overlap(fiber, [FwmProcess("e", "e", "e", "e"),
                                  FwmProcess("e", "o", "o", "e")],
                          620.0, centers)
    ratio = abs(raw["C"]) ** 2 / abs(raw["A"]) ** 2
    assert ratio == pytest.approx(2.2, rel=0.10)


def test_normalized_overlap_values(overlaps_abcd):
    sq = {k: abs(v) ** 2 for k, v in overlaps_abcd.items()}
    assert sum(sq.values()) == pytest.approx(1.0, abs=1e-12)
    for label in ("B", "C"):
        assert sq[label] == pytest.approx(0.35, abs=0.03)
    for label in ("A", "D"):
        assert sq[label] == pytest.approx(0.15, abs=0.03)


def test_normalize_overlaps_rejects_all_zero():
    with pytest.raises(DomainError):
        normalize_overlaps({"A": 0.0, "B": 0.0})


def test_parity_violating_combinations_have_zero_overlap(fiber, centers):
    # every candidate rejected by parity conservation has a vanishing
    # four-field integral; (e,e)->(o,o) conserves parity and does not
    procs = all_candidates({"e", "o"})
    raw = process_overlap(fiber, procs, 620.0,
                          dict.fromkeys((p.label for p in procs),
                                        (677.0, 571.0)))
    for proc in procs:
        if proc.conserves_parity():
            assert abs(raw[proc.label]) > 1e-3
        else:
            assert abs(raw[proc.label]) < 1e-9


def test_quadrature_doubling_changes_overlaps_little(fiber, centers,
                                                     monkeypatch):
    procs = (FwmProcess("e", "e", "e", "e"), FwmProcess("e", "o", "o", "e"))
    coarse = process_overlap(fiber, procs, 620.0, centers)
    monkeypatch.setattr(fields, "RADIAL_NODES", 2 * fields.RADIAL_NODES)
    fine = process_overlap(fiber, procs, 620.0, centers)
    for label, c in coarse.items():
        rel = abs(abs(fine[label]) ** 2 - abs(c) ** 2) / abs(c) ** 2
        assert rel < 0.005


@pytest.mark.parametrize("modes", [
    ("e", "o", "o", "e"), ("o", "o", "o", "o"), ("e", "e", "e", "e"),
    ("e", "o", "e", "o"), ("o", "o", "e", "e"), ("g", "g", "g", "g"),
    ("g", "g", "e", "e"),
], ids=["A", "B", "C", "D", "E", "gggg", "ggee"])
def test_radial_overlap_matches_grid_reference(fiber, centers, modes):
    # 641 x 641 grid at half-width 5a.  Channel E gets a looser bound: the
    # grid still truncates its LP11 tail.  The channels with g modes are
    # not phase matched in band, so they are taken at a fixed point near
    # the lobes.
    proc = FwmProcess(*modes)
    center = centers.get(proc.label, (677.0, 571.0))
    ref = grid_process_overlap(fiber, proc, 620.0, center,
                               GridSpec(5 * fiber.core_radius_um, 641))
    got = process_overlap(fiber, [proc], 620.0,
                          {proc.label: center})[proc.label]
    bound = 5e-3 if proc.label == "E" else 5e-4
    assert abs(got - ref) <= bound * abs(ref)


def test_donut_equivalence(fiber):
    grid = default_grid(fiber)
    mix = intensity_image(fiber, 0.5708,
                          [(0.5, basis("e")), (0.5, basis("o"))], grid)
    donut = intensity_image(fiber, 0.5708, basis("r"), grid)
    assert np.max(np.abs(mix - donut)) < 1e-9


def test_cached_basis_profile_is_shared_read_only_and_exact(fiber):
    grid = GridSpec(5.0, 64)
    for mode in ("g", "e", "o"):
        cached = fields._basis_profile(fiber, 0.62, mode, grid)
        assert fields._basis_profile(fiber, 0.62, mode, grid) is cached
        assert not cached.flags.writeable
        fresh = fields._basis_profile.__wrapped__(fiber, 0.62, mode, grid)
        assert np.array_equal(cached, fresh)


def test_diagonal_state_is_rotated_even_lobe(fiber):
    # |d> intensity at (x, y) equals |e> intensity at the coordinates
    # rotated by -45 degrees; compare the diagonal cut against the
    # x-axis cut through the shared radial profile
    grid = default_grid(fiber)
    f_d = mode_field(fiber, 0.62, basis("d"), grid)
    inten_d = np.abs(f_d.values) ** 2
    x, y, _ = grid.axes()
    mid = grid.resolution // 2
    # sample along the +45 degree diagonal where |d> should peak
    diag = np.array([inten_d[k, k] for k in range(grid.resolution)])
    row = inten_d[mid, :]  # along x, where |e> peaks
    f_e = mode_field(fiber, 0.62, basis("e"), grid)
    inten_e = np.abs(f_e.values) ** 2
    # the d-state diagonal profile matches the e-state x profile at the
    # rescaled radius sqrt(2)*|x|
    r_diag = np.sqrt(x**2 + y**2)
    interp = np.interp(r_diag[mid:], np.abs(x[mid:]), inten_e[mid, mid:])
    assert np.max(np.abs(diag[mid:] - interp)) < 0.05 * inten_e.max()


def test_pure_even_mode_has_two_lobes_with_nodal_line(fiber):
    img = intensity_image(fiber, 0.62, basis("e"))
    mid = img.shape[0] // 2
    # nodal line: the column x = 0 is dark
    assert img[:, mid].max() < 1e-12
    # two lobes: maxima on both sides of the node
    left = img[:, :mid].max()
    right = img[:, mid + 1:].max()
    assert left == pytest.approx(1.0, abs=1e-9)
    assert right == pytest.approx(1.0, abs=1e-9)


def test_mixture_weights_must_sum_to_one(fiber):
    with pytest.raises(ConfigError):
        intensity_image(fiber, 0.62, [(0.7, basis("e")), (0.5, basis("o"))])


def test_wavelength_consistency_changes_overlap(fiber, centers):
    # pump fields at the pump wavelength, outputs at process centers:
    # moving the output wavelengths must change the integral
    proc = FwmProcess("e", "e", "e", "e")
    at_center = process_overlap(fiber, [proc], 620.0, centers)["C"]
    elsewhere = process_overlap(fiber, [proc], 620.0,
                                {"C": (720.0, 545.0)})["C"]
    assert abs(at_center - elsewhere) > 1e-4 * abs(at_center)
