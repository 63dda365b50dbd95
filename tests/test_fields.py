import numpy as np
import pytest

from fwmpairs import fields
from fwmpairs.errors import ConfigError, DomainError
from fwmpairs.config import ModeSuperposition
from fwmpairs.fields import (GridSpec, basis_fields, default_grid,
                             intensity_image, mode_field, normalize_overlaps,
                             process_overlap)
from fwmpairs.processes import FwmProcess, all_candidates


def basis(name):
    return ModeSuperposition.named(name)


def field(fiber, name, grid=None):
    """The unit-norm field of the named state at 620 nm on ``grid`` (the
    default grid if None)."""
    grid = grid or default_grid(fiber)
    return mode_field(basis_fields(fiber, 0.62, grid), basis(name))


def cell_area(grid: GridSpec) -> float:
    return grid.axes()[2] ** 2


def overlap_integral(p1, p2, s, i) -> complex:
    """Slow 2-D reference: four-field overlap T_p1 T_p2 T_s* T_i* d2r
    summed over a shared square grid, each field a (values, GridSpec)
    pair.  Symmetric under p1 <-> p2."""
    specs = {grid for _, grid in (p1, p2, s, i)}
    if len(specs) != 1:
        raise DomainError("overlap_integral requires identical grid specs")
    (f_p1, grid), (f_p2, _), (f_s, _), (f_i, _) = p1, p2, s, i
    integrand = f_p1 * f_p2 * np.conj(f_s) * np.conj(f_i)
    return complex(np.sum(integrand) * cell_area(grid))


def grid_process_overlap(fiber, process, lam_p_nm, center_nm, grid):
    """process_overlap evaluated by ``overlap_integral`` on ``grid``."""
    roles = ((process.t_p1, lam_p_nm), (process.t_p2, lam_p_nm),
             (process.t_s, center_nm[0]), (process.t_i, center_nm[1]))
    bases = {lam_nm: basis_fields(fiber, lam_nm / 1000.0, grid)
             for _, lam_nm in roles}
    exchange = 1.0 if process.pump_mode_degenerate else 2.0
    return exchange * overlap_integral(*((bases[lam_nm][mode], grid)
                                         for mode, lam_nm in roles))


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
    inten = np.abs(field(fiber, "g")) ** 2
    mid = default_grid(fiber).resolution // 2
    peak = np.unravel_index(np.argmax(inten), inten.shape)
    assert abs(peak[0] - mid) <= 1 and abs(peak[1] - mid) <= 1


@pytest.mark.parametrize("name", ["e", "o"])
def test_lp11_vanishes_on_axis(fiber, name):
    inten = np.abs(field(fiber, name)) ** 2
    mid = default_grid(fiber).resolution // 2
    assert inten[mid, mid] < 1e-6 * inten.max()


@pytest.mark.parametrize("name", ["g", "e", "o", "d", "r"])
def test_field_normalization(fiber, name):
    power = np.sum(np.abs(field(fiber, name)) ** 2) * cell_area(
        default_grid(fiber))
    assert power == pytest.approx(1.0, abs=1e-6)


def test_lp11e_lobes_along_x(fiber):
    inten = np.abs(field(fiber, "e")) ** 2
    mid = default_grid(fiber).resolution // 2
    # cos(phi) profile: maxima on the x axis (row index = y)
    assert inten[mid, :].max() > 100 * inten[:, mid].max()


def test_overlap_odd_integrand_vanishes(fiber):
    grid = default_grid(fiber)
    fe, fo = ((field(fiber, name, grid), grid) for name in "eo")
    val = overlap_integral(fe, fe, fe, fo)
    assert abs(val) < 1e-9


def test_overlap_pump_exchange_symmetry(fiber):
    grid = default_grid(fiber)
    fe, fo = ((field(fiber, name, grid), grid) for name in "eo")
    ab = overlap_integral(fe, fo, fo, fe)
    ba = overlap_integral(fo, fe, fo, fe)
    assert ab == pytest.approx(ba, rel=1e-12)


def test_overlap_requires_matching_grids(fiber):
    f1, f2 = ((field(fiber, "e", grid), grid)
              for grid in (GridSpec(5.0, 64), GridSpec(5.0, 65)))
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
    grid_fields = basis_fields(fiber, 0.5708, default_grid(fiber))
    mix = intensity_image(grid_fields, [(0.5, basis("e")), (0.5, basis("o"))])
    donut = intensity_image(grid_fields, basis("r"))
    assert np.max(np.abs(mix - donut)) < 1e-9


def test_diagonal_state_is_rotated_even_lobe(fiber):
    # |d> intensity at (x, y) equals |e> intensity at the coordinates
    # rotated by -45 degrees; compare the diagonal cut against the
    # x-axis cut through the shared radial profile
    grid = default_grid(fiber)
    inten_d = np.abs(field(fiber, "d", grid)) ** 2
    x, y, _ = grid.axes()
    mid = grid.resolution // 2
    # sample along the +45 degree diagonal where |d> should peak
    diag = np.array([inten_d[k, k] for k in range(grid.resolution)])
    row = inten_d[mid, :]  # along x, where |e> peaks
    inten_e = np.abs(field(fiber, "e", grid)) ** 2
    # the d-state diagonal profile matches the e-state x profile at the
    # rescaled radius sqrt(2)*|x|
    r_diag = np.sqrt(x**2 + y**2)
    interp = np.interp(r_diag[mid:], np.abs(x[mid:]), inten_e[mid, mid:])
    assert np.max(np.abs(diag[mid:] - interp)) < 0.05 * inten_e.max()


def test_pure_even_mode_has_two_lobes_with_nodal_line(fiber):
    img = intensity_image(basis_fields(fiber, 0.62, default_grid(fiber)),
                          basis("e"))
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
        intensity_image(basis_fields(fiber, 0.62, default_grid(fiber)),
                        [(0.7, basis("e")), (0.5, basis("o"))])


def test_wavelength_consistency_changes_overlap(fiber, centers):
    # pump fields at the pump wavelength, outputs at process centers:
    # moving the output wavelengths must change the integral
    proc = FwmProcess("e", "e", "e", "e")
    at_center = process_overlap(fiber, [proc], 620.0, centers)["C"]
    elsewhere = process_overlap(fiber, [proc], 620.0,
                                {"C": (720.0, 545.0)})["C"]
    assert abs(at_center - elsewhere) > 1e-4 * abs(at_center)
