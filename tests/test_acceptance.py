"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they are produced.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from fwmpairs.cli import main as cli_main
from fwmpairs.config import (FiberSpec, GaussianLobe, ModeSuperposition,
                             PipelineConfig, SpectralWindow)
from fwmpairs.estimation import lobe_amplitudes, trace_spectral
from fwmpairs import fields
from fwmpairs.fields import (basis_fields, default_grid, intensity_image,
                             normalize_overlaps, process_overlap)
from fwmpairs.pipeline import Simulation
from fwmpairs.processes import enumerate_processes
from fwmpairs.tomography import (CountRecord, concurrence, expected_counts,
                                 fidelity, metrics_block, mle_reconstruct,
                                 validate_density)

MEASURED = {"A": (680.7, 568.1), "B": (678.7, 570.0),
            "C": (677.2, 571.6), "D": (675.3, 573.3)}


class Criterion:
    def __init__(self, number: int, title: str, limit_s: float):
        self.number = number
        self.title = title
        self.limit_s = limit_s
        self.failures = []
        self.start = time.perf_counter()

    def check(self, ok: bool, detail: str):
        if not ok:
            self.failures.append(detail)

    def conclude(self):
        elapsed = time.perf_counter() - self.start
        self.check(elapsed < self.limit_s,
                   f"took {elapsed:.1f} s (limit {self.limit_s:.0f} s)")
        verdict = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {verdict} "
              f"[{elapsed:6.1f} s] {self.title}"
              + ("" if not self.failures else
                 " :: " + "; ".join(self.failures)))
        assert not self.failures, "; ".join(self.failures)


@pytest.fixture(scope="module")
def base_config():
    return PipelineConfig.parse({})


@pytest.fixture(scope="module")
def sim_10cm(base_config):
    return Simulation(base_config)


@pytest.fixture(scope="module")
def sim_15mm_cross(base_config):
    fiber = FiberSpec(segments=((0.015, False), (0.015, True)))
    return Simulation(base_config, fiber=fiber)


def test_criterion_01_process_enumeration():
    c = Criterion(1, "process enumeration 5-of-{e,o} and 10-of-{g,e,o}", 1.0)
    eo = enumerate_processes({"e", "o"})
    c.check({p.label for p in eo} == set("ABCDE"),
            f"two-mode labels {sorted(p.label for p in eo)}")
    c.check(len(eo) == 5, f"two-mode count {len(eo)}")
    geo = enumerate_processes({"g", "e", "o"})
    c.check(len(geo) == 10, f"three-mode count {len(geo)}")
    canonical = {
        "A": ("e", "o", "o", "e"), "B": ("o", "o", "o", "o"),
        "C": ("e", "e", "e", "e"), "D": ("e", "o", "e", "o"),
        "E": ("o", "o", "e", "e"),
    }
    got = {p.label: p.modes for p in eo}
    c.check(got == canonical, f"mode tuples {got}")
    c.conclude()


def test_criterion_02_overlap_integrals(sim_10cm, monkeypatch):
    c = Criterion(2, "overlap ratio 2.2 and normalized 0.35/0.15", 10.0)
    fiber = sim_10cm.fiber
    centers = sim_10cm.centers
    in_band = [p for p in sim_10cm.matched if p.label in "ABCD"]
    raw = process_overlap(fiber, in_band, 620.0, centers)
    ratio = abs(raw["C"]) ** 2 / abs(raw["A"]) ** 2
    c.check(abs(ratio - 2.2) <= 0.1 * 2.2, f"|O_C|^2/|O_A|^2 = {ratio:.3f}")
    norm = {k: abs(v) ** 2 for k, v in normalize_overlaps(raw).items()}
    for label in ("B", "C"):
        c.check(abs(norm[label] - 0.35) <= 0.03,
                f"|O_{label}|^2 = {norm[label]:.3f}")
    for label in ("A", "D"):
        c.check(abs(norm[label] - 0.15) <= 0.03,
                f"|O_{label}|^2 = {norm[label]:.3f}")
    monkeypatch.setattr(fields, "RADIAL_NODES", 2 * fields.RADIAL_NODES)
    key = in_band[0].label
    fine = process_overlap(fiber, in_band[:1], 620.0, centers)[key]
    rel = abs(abs(fine) ** 2 - abs(raw[key]) ** 2) / abs(raw[key]) ** 2
    c.check(rel < 0.005, f"quadrature doubling moved |O|^2 by {rel:.2%}")
    c.conclude()


def test_criterion_03_delta_degeneracy_and_sweep(base_config):
    c = Criterion(3, "B-C degeneracy at zero dispersion, monotone sweep",
                  30.0)
    seps = []
    for delta in (0.0, 1.5e-5, 3.0e-5):
        fiber = FiberSpec(delta_parity_dispersion=delta)
        sim = Simulation(base_config, fiber=fiber)
        bi = sim.centers["B"][1]
        ci = sim.centers["C"][1]
        seps.append(abs(ci - bi))
    grid_node = 9.0 / 300.0  # default idler axis spacing, nm
    c.check(seps[0] <= grid_node,
            f"zero-dispersion separation {seps[0]:.4f} nm")
    c.check(seps[0] < seps[1] < seps[2],
            f"separations {['%.4f' % s for s in seps]}")
    c.conclude()


def test_criterion_04_phasematched_centers(sim_10cm):
    c = Criterion(4, "A-D centers within 2 nm of measured, ordered", 60.0)
    for label, (ms, mi) in MEASURED.items():
        ls, li = sim_10cm.centers[label]
        c.check(abs(ls - ms) <= 2.0,
                f"{label}: lambda_s {ls:.2f} vs {ms} nm")
        c.check(abs(li - mi) <= 2.0,
                f"{label}: lambda_i {li:.2f} vs {mi} nm")
    order = sorted("ABCD", key=lambda k: sim_10cm.centers[k][1])
    c.check(order == ["A", "B", "C", "D"], f"idler ordering {order}")
    for label in "ABCD":
        ls, li = sim_10cm.centers[label]
        resid = abs(2.0 / 620.0 - 1.0 / ls - 1.0 / li)
        c.check(resid <= 1e-9, f"{label}: energy residual {resid:.2e} 1/nm")
    c.conclude()


def test_criterion_05_rho_se_analytic_limits():
    c = Criterion(5, "coincident lobes -> Bell, disjoint -> mixture", 5.0)
    from fwmpairs.processes import FwmProcess
    procs = [FwmProcess("o", "o", "o", "o"), FwmProcess("e", "e", "e", "e")]

    def lobe(center_i, label, sigma=0.4):
        return GaussianLobe(center_s_nm=678.0, center_i_nm=center_i,
                            sigma_major_nm=sigma, sigma_minor_nm=sigma,
                            orientation_rad=0.0, amplitude=1.0,
                            process_label=label)

    both = lobe_amplitudes([lobe(570.8, "B"), lobe(570.8, "C")])
    win = SpectralWindow((676.0, 680.0), (569.0, 572.6))
    rho = trace_spectral(both, procs, win)
    conc = concurrence(rho)
    c.check(conc >= 0.999, f"coincident-lobe concurrence {conc:.4f}")

    apart = lobe_amplitudes([lobe(567.5, "B"), lobe(574.5, "C")])
    win2 = SpectralWindow((672.0, 684.0), (565.0, 577.0))
    rho2 = trace_spectral(apart, procs, win2, nodes=161)
    conc2 = concurrence(rho2)
    c.check(conc2 <= 1e-3, f"disjoint-lobe concurrence {conc2:.2e}")
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    dev = float(np.max(np.abs(rho2 - expect)))
    c.check(dev <= 1e-9, f"disjoint-lobe matrix deviation {dev:.2e}")
    c.conclude()


def bc_intersection(sim):
    """Midpoint of the B and C phase-matched centers."""
    (bs, bi), (cs, ci) = sim.centers["B"], sim.centers["C"]
    return 0.5 * (bs + cs), 0.5 * (bi + ci)


def test_criterion_06_window_optimization(sim_15mm_cross):
    c = Criterion(6, "1 nm window at B-C intersection reproduces "
                     "(0.82, 0.91, 0.84)", 60.0)
    sim = sim_15mm_cross
    amps = sim.amplitudes()
    mid_s, mid_i = bc_intersection(sim)
    win = SpectralWindow((mid_s - 0.5, mid_s + 0.5),
                         (mid_i - 0.5, mid_i + 0.5))
    rho = trace_spectral(amps, sim.matched, win)
    m = metrics_block(rho)
    target = {"concurrence": 0.82, "bell_fidelity": 0.91, "purity": 0.84}
    for key, want in target.items():
        c.check(abs(m[key] - want) <= 0.10,
                f"{key} {m[key]:.3f} vs {want} +/- 0.10")
    prev = -1.0
    monotone = True
    for width in (3.0, 2.0, 1.0, 0.5):
        w = SpectralWindow((mid_s - width / 2, mid_s + width / 2),
                           (mid_i - width / 2, mid_i + width / 2))
        val = concurrence(trace_spectral(amps, sim.matched, w))
        if val < prev - 1e-9:
            monotone = False
        prev = val
    c.check(monotone, "concurrence not monotone under window narrowing")
    c.conclude()


def test_criterion_07_tomography_round_trip():
    c = Criterion(7, "MLE recovers 50 random states from exact rates", 120.0)
    rng = np.random.default_rng(777)
    worst = 1.0
    for k in range(50):
        if k % 2 == 0:
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
        else:
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
        rates = expected_counts(rho, 10000.0)
        res = mle_reconstruct(CountRecord(counts=rates, n0=10000.0))
        try:
            validate_density(res.rho)
        except Exception as exc:  # physicality is part of the criterion
            c.check(False, f"state {k}: unphysical reconstruction ({exc})")
            continue
        worst = min(worst, fidelity(rho, res.rho))
    c.check(worst >= 0.999, f"worst round-trip fidelity {worst:.6f}")
    c.conclude()


def test_criterion_08_pipeline_self_consistency(sim_15mm_cross):
    c = Criterion(8, "rho_SE vs MLE(expected counts) fidelity >= 0.99", 60.0)
    sim = sim_15mm_cross
    mid_s, mid_i = bc_intersection(sim)
    win = SpectralWindow((mid_s - 1.0, mid_s + 1.0),
                         (mid_i - 1.0, mid_i + 1.0))
    rho_se = trace_spectral(sim.amplitudes(), sim.matched, win)
    rates = expected_counts(rho_se, 100000.0)
    rho_qst = mle_reconstruct(CountRecord(counts=rates, n0=100000.0)).rho
    f = fidelity(rho_se, rho_qst)
    c.check(f >= 0.99, f"fidelity {f:.5f}")
    c.conclude()


def test_criterion_09_donut_equivalence(base_config):
    c = Criterion(9, "odd/even mixture equals circular superposition", 5.0)
    fiber = base_config.fiber
    grid_fields = basis_fields(fiber, 0.5708, default_grid(fiber))
    mix = intensity_image(grid_fields,
                          [(0.5, ModeSuperposition.named("e")),
                           (0.5, ModeSuperposition.named("o"))])
    donut = intensity_image(grid_fields, ModeSuperposition.named("r"))
    dev = float(np.max(np.abs(mix - donut)))
    c.check(dev <= 1e-9, f"pointwise deviation {dev:.2e}")
    c.conclude()


def test_criterion_10_determinism(tmp_path):
    c = Criterion(10, "byte-identical CSV/JSON outputs on rerun", 300.0)
    cfg = {
        "grid": {"points_s": 121, "points_i": 121},
        "windows": [{"lambda_s_nm": [673.0, 681.0],
                     "lambda_i_nm": [567.5, 574.5]}],
        "tomography": {"counts_scale": 500, "n_samples": 8},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    def run_all(out: Path):
        assert cli_main(["simulate-jsi", "--config", str(cfg_path),
                         "--out", str(out / "jsi")]) == 0
        assert cli_main(["estimate-rho", "--config", str(cfg_path),
                         "--out", str(out / "rho")]) == 0
        assert cli_main(["qst-simulate", "--config", str(cfg_path),
                         "--out", str(out / "qst"), "--seed", "31",
                         "--rho", str(out / "rho" / "rho_se_w0.json")]) == 0
        assert cli_main(["qst-reconstruct", "--config", str(cfg_path),
                         "--out", str(out / "qst"), "--seed", "31",
                         "--counts", str(out / "qst" / "counts.json")]) == 0
        assert cli_main(["overlaps", "--config", str(cfg_path),
                         "--out", str(out / "ov")]) == 0

    run_all(tmp_path / "r1")
    run_all(tmp_path / "r2")
    compared = 0
    for p1 in sorted((tmp_path / "r1").rglob("*")):
        if p1.suffix not in (".csv", ".json"):
            continue
        p2 = tmp_path / "r2" / p1.relative_to(tmp_path / "r1")
        same = p1.read_bytes() == p2.read_bytes()
        c.check(same, f"{p1.relative_to(tmp_path / 'r1')} differs")
        compared += 1
    c.check(compared >= 10, f"only {compared} files compared")
    c.conclude()
