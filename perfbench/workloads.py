"""Benchmark workloads: seeded inputs, CLI steps and output checks.

Each workload's ``prepare(inputs, seed, threads)`` writes its configs and
input files under ``inputs`` and returns a ``Plan``: the CLI steps of one
pass (argument lists, run from the workload directory) and the checks
run on that pass's outputs.  The program sees only the generated files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# README reference lobe centers (lambda_s, lambda_i) in nm, A..D
REFERENCE_CENTERS = [(680.7, 568.1), (678.7, 570.0), (677.2, 571.6),
                     (675.3, 573.3)]
PUMP_NM = 620.0
# Phase-matched centers (lambda_s, lambda_i) in nm, A..D, that the
# default config predicts, read from `fwmpairs simulate-jsi` at the commit
# that defined this benchmark.  `fit-lobes` seeds its fit at these
# centers, so the measured-like lobes are drawn around them.  Lobes at the
# reference centers sit up to 1.6 nm from the seeds; there the
# unconstrained fit went negative or ran ~400 s without converging on
# 3 of 41 seeds (NOTES.md, "Fit defect found").
MODEL_CENTERS = [(682.3337, 568.1018), (679.7735, 569.8888),
                 (677.9808, 571.1549), (675.5368, 572.9010)]
CROSS_SPLICED = [[0.015, False], [0.015, True]]
CSV_CORNER = "lambda_s_nm\\lambda_i_nm"


@dataclass
class Plan:
    steps: list    # argument lists: [command, --flag, value, ...]
    checks: list   # callables(pass_dir) -> (name, ok, detail)


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv_rows(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:] if ln]


def _density(path: Path) -> np.ndarray:
    mat = np.array(_read_json(path)["matrix"], dtype=float)
    return mat[..., 0] + 1j * mat[..., 1]


def check_physical(path: Path, tol: float = 1e-9):
    """Hermitian, unit trace, no eigenvalue below -tol."""
    rho = _density(path)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = complex(np.trace(rho))
    low = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    ok = herm <= tol and abs(trace - 1) <= 1e-9 and low >= -tol
    return ok, f"hermiticity {herm:.1e}, trace {trace.real:.12f}, " \
               f"min eigenvalue {low:.2e}"


# ---------------------------------------------------------------------------
# lobes_10cm


def measured_like_lobes(rng: np.random.Generator) -> list:
    """Four Gaussian lobes near the model's centers (seeded)."""
    lobes = []
    for cs, ci in MODEL_CENTERS:
        lobes.append(dict(
            center_s_nm=cs + rng.uniform(-0.3, 0.3),
            center_i_nm=ci + rng.uniform(-0.2, 0.2),
            sigma_major_nm=rng.uniform(1.0, 1.2),
            sigma_minor_nm=rng.uniform(0.3, 0.4),
            orientation_rad=rng.uniform(0.4, 0.5),
            amplitude=rng.uniform(0.8, 2.0)))
    return lobes


def lobe_grid(lobes: list, ls: np.ndarray, li: np.ndarray,
              rng: np.random.Generator, noise: float = 0.01) -> np.ndarray:
    """Sum of elliptical Gaussians plus Gaussian noise of ``noise`` times
    the peak, folded to non-negative values as a camera image is."""
    xs, yi = ls[:, None], li[None, :]
    total = np.zeros((len(ls), len(li)))
    for lb in lobes:
        ct, st = np.cos(lb["orientation_rad"]), np.sin(lb["orientation_rad"])
        dx, dy = xs - lb["center_s_nm"], yi - lb["center_i_nm"]
        u, v = ct * dx + st * dy, -st * dx + ct * dy
        total += lb["amplitude"] * np.exp(
            -0.5 * (u**2 / lb["sigma_major_nm"]**2
                    + v**2 / lb["sigma_minor_nm"]**2))
    return np.abs(total + noise * total.max()
                  * rng.standard_normal(total.shape))


def write_grid_csv(path: Path, ls, li, values) -> None:
    """The README grid CSV format, written here rather than by
    ``fwmpairs.gridio`` so that the inputs do not depend on the program
    under test."""
    rows = [CSV_CORNER + "," + ",".join(repr(float(v)) for v in li)]
    for s, row in zip(ls, values):
        rows.append(repr(float(s)) + ","
                    + ",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def prepare_lobes_10cm(inputs: Path, seed: int, threads: int) -> Plan:
    rng = np.random.default_rng([seed, 1])
    cfg = _write_config(inputs / "config.json", {})
    # the default config grid
    ls = np.linspace(670.0, 700.0, 301)
    li = np.linspace(567.0, 576.0, 301)
    truth = measured_like_lobes(rng)
    measured = inputs / "measured.csv"
    write_grid_csv(measured, ls, li, lobe_grid(truth, ls, li, rng))

    steps = [
        ["simulate-jsi", "--config", cfg, "--out", "jsi"],
        ["render", "--config", cfg, "--out", "img", "--input", "jsi/jsi.csv",
         "--lobes-json", "jsi/lobes.json"],
        ["modes", "--config", cfg, "--out", "modes"],
        ["overlaps", "--config", cfg, "--out", "ov"],
        ["fit-lobes", "--config", cfg, "--out", "fit",
         "--input", str(measured)],
        ["estimate-rho", "--config", cfg, "--out", "rho",
         "--lobes-json", "fit/lobes.json"],
    ]

    def simulated_centers(d: Path):
        rows = _read_csv_rows(d / "jsi" / "lobe_centers.csv")
        worst_nm, worst_energy = 0.0, 0.0
        for row, (ms, mi) in zip(rows, REFERENCE_CENTERS):
            worst_nm = max(worst_nm,
                           abs(float(row["fitted_lambda_s_nm"]) - ms),
                           abs(float(row["fitted_lambda_i_nm"]) - mi))
            worst_energy = max(worst_energy, abs(
                2.0 / PUMP_NM - 1.0 / float(row["predicted_lambda_s_nm"])
                - 1.0 / float(row["predicted_lambda_i_nm"])))
        labels = [row["process"] for row in rows]
        ok = labels == list("ABCD") and worst_nm <= 2.0 \
            and worst_energy <= 1e-9
        return ("simulate-jsi centers", ok,
                f"lobes {labels}, worst offset {worst_nm:.3f} nm, "
                f"energy residual {worst_energy:.1e} 1/nm")

    def fit_recovers(d: Path):
        got = sorted(_read_json(d / "fit" / "lobes.json")["lobes"],
                     key=lambda lb: lb["center_i_nm"])
        want = sorted(truth, key=lambda lb: lb["center_i_nm"])
        err = max((max(abs(g["center_s_nm"] - w["center_s_nm"]),
                       abs(g["center_i_nm"] - w["center_i_nm"]))
                   for g, w in zip(got, want)), default=float("inf"))
        amps = [g["amplitude"] for g in got]
        ok = len(got) == len(want) and err <= 0.05 and min(amps) > 0
        return ("fit-lobes recovers centers", ok,
                f"{len(got)} lobes, worst center error {err:.4f} nm, "
                f"min amplitude {min(amps, default=0.0):.3f}")

    def rho_physical(d: Path):
        ok, detail = check_physical(d / "rho" / "rho_se_w0.json")
        return ("estimate-rho physical", ok, detail)

    return Plan(steps, [simulated_centers, fit_recovers, rho_physical])


# ---------------------------------------------------------------------------
# entangled_qst


# Midpoint of the model's B and C phase-matched centers (lambda_s,
# lambda_i) for the 15 + 15 mm cross-spliced fiber, read from
# `fwmpairs overlaps` at the commit that defined this benchmark.  The
# windows are fixed inputs from then on, as a lab's filter windows are.
BC_CENTER_NM = (678.8772, 570.5219)


# The 1 nm window gives a near-pure state (two zero eigenvalues), so its
# MLE optimum sits on the rank boundary; the 8 nm window gives an interior
# state (smallest eigenvalue about 0.07).  Near the boundary the MLE cost
# of one count record varies by about 20 % from record to record, so the
# 1 nm window gets three seeded records, which share the config-default
# 100 bootstrap samples between them; the interior state converges in a
# steady ~90 iterations and gets one record.
RECORDS = {"w1nm": 3, "w8nm": 1}
WINDOWS_NM = {"w1nm": 1.0, "w8nm": 8.0}


def prepare_entangled_qst(inputs: Path, seed: int, threads: int) -> Plan:
    rng = np.random.default_rng([seed, 2])
    mid_s, mid_i = BC_CENTER_NM
    windows = [{"lambda_s_nm": [mid_s - w / 2, mid_s + w / 2],
                "lambda_i_nm": [mid_i - w / 2, mid_i + w / 2]}
               for w in WINDOWS_NM.values()]
    cfg = _write_config(inputs / "config.json", {
        "fiber": {"segments": CROSS_SPLICED},
        "windows": windows,
        "tomography": {"n_samples": -(-100 // RECORDS["w1nm"])},
    })
    pool = str(min(2, threads))
    steps = [["estimate-rho", "--config", cfg, "--out", "rho"]]
    records = {}  # output directory -> QST seed
    for w, tag in enumerate(WINDOWS_NM):
        for r in range(RECORDS[tag]):
            out = f"qst_{tag}_r{r}"
            records[out] = str(int(rng.integers(1, 2**32)))
            steps += [
                ["qst-simulate", "--config", cfg, "--out", out,
                 "--rho", f"rho/rho_se_w{w}.json", "--seed", records[out]],
                ["qst-reconstruct", "--config", cfg, "--out", out,
                 "--counts", f"{out}/counts.json", "--seed", records[out],
                 "--threads", pool],
            ]
            if r == 0:
                steps.append(["compare", "--config", cfg, "--out",
                              f"cmp_{tag}", "--rho-a", f"{out}/rho_qst.json",
                              "--rho-b", f"rho/rho_se_w{w}.json"])
    # the first 1 nm record once more, on one thread: the baseline
    steps.append(["qst-reconstruct", "--config", cfg, "--out",
                  "qst_w1nm_r0_t1", "--counts", "qst_w1nm_r0/counts.json",
                  "--seed", records["qst_w1nm_r0"], "--threads", "1"])

    def physical(out):
        def check(d: Path):
            ok, detail = check_physical(d / out / "rho_qst.json")
            return (f"{out} rho_qst physical", ok, detail)
        return check

    def fidelity_reported(tag):
        def check(d: Path):
            doc = _read_json(d / f"cmp_{tag}" / "compare.json")
            f = doc.get("fidelity_squared")
            ok = isinstance(f, float) and 0.0 <= f <= 1.0 + 1e-9
            return (f"compare {tag} fidelity", ok, f"fidelity {f}")
        return check

    def threads_agree(d: Path):
        a = (d / "qst_w1nm_r0" / "rho_qst.json").read_bytes()
        b = (d / "qst_w1nm_r0_t1" / "rho_qst.json").read_bytes()
        return ("rho_qst same on 1 and 2 threads", a == b,
                "identical" if a == b else "differs")

    return Plan(steps, [physical(out) for out in [*records, "qst_w1nm_r0_t1"]]
                + [fidelity_reported(tag) for tag in WINDOWS_NM]
                + [threads_agree])


# ---------------------------------------------------------------------------
# fiber_sweep


def sweep_deltas(rng: np.random.Generator, n: int = 2,
                 top: float = 6e-5) -> list:
    """One draw per equal stratum of [0, top], so values stay distinct."""
    edges = np.linspace(0.0, top, n + 1)
    return [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def prepare_fiber_sweep(inputs: Path, seed: int, threads: int) -> Plan:
    rng = np.random.default_rng([seed, 3])
    grid = {"points_s": 61, "points_i": 61}
    layouts = {"single": [[0.10, False]], "cross": CROSS_SPLICED}
    steps, checks = [], []
    for name, segments in layouts.items():
        deltas = sweep_deltas(rng)
        cfg = _write_config(inputs / f"{name}.json", {
            "fiber": {"segments": segments}, "grid": grid})
        steps.append(["sweep-delta", "--config", cfg, "--out", name,
                      "--deltas", *(repr(d) for d in deltas)])

        def rises(d: Path, name=name):
            rows = _read_csv_rows(d / name / "separations.csv")
            pairs = sorted((float(r["delta"]), float(r["separation_i_nm"]))
                           for r in rows)
            seps = [s for _, s in pairs]
            ok = len(seps) >= 2 and all(a < b for a, b in
                                        zip(seps, seps[1:]))
            return (f"{name} B-C separation rises with delta", ok,
                    "separations " + ", ".join(f"{s:.4f}" for s in seps))
        checks.append(rises)
    return Plan(steps, checks)
