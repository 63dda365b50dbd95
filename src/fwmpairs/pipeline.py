"""Command implementations: simulation, estimation, tomography, rendering.

Every command writes its primary outputs plus ``manifest.json`` listing
each file with its SHA-256; reruns with identical config and seed are
byte-identical.  Wall-clock timings go to ``timings.txt``, which is
deliberately not listed in the manifest so the determinism contract
covers every listed file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig
from .dispersion import FiberSpec
from .errors import ConfigError, GridFormatError, NumericError, PhaseMatchError
from .estimation import (SpectralWindow, lobe_amplitudes, metrics_block,
                         model_amplitudes, process_weights, trace_spectral,
                         validate_density, fidelity)
from .fields import (ModeSuperposition, default_grid, intensity_image,
                     normalize_overlaps, process_overlap)
from .gridio import (density_to_json, document_entries, load_density,
                     load_grid_csv, read_json_document, render_svg_heatmap,
                     sha256_file, write_grid_csv, write_json, write_pgm,
                     write_ppm)
from .processes import enumerate_processes, phasematched_centers
from .spectrum import GaussianLobe, SpectralGrid, fit_lobes, jsa_grid
from .tomography import (MAX_COUNT, CountRecord, bootstrap_metrics,
                         expected_counts, mle_reconstruct, projector_basis,
                         sample_counts)

TWO_MODE_SET = frozenset(("e", "o"))


def config_hash(cfg: PipelineConfig) -> str:
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class Runner:
    """Output directory, timing capture and manifest assembly."""

    def __init__(self, cfg: PipelineConfig, command: str,
                 out_dir: str | None = None, seed: int | None = None,
                 threads: int | None = None):
        self.cfg = cfg
        self.command = command
        self.seed = cfg.tomography.seed if seed is None else seed
        self.threads = cfg.threads if threads is None else threads
        self.out = Path(out_dir if out_dir is not None else cfg.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.files: list = []
        self.timings: list = []
        self._t0 = time.perf_counter()

    def stage(self, name: str):
        runner = self

        class _Stage:
            def __enter__(self):
                self.start = time.perf_counter()
                return self

            def __exit__(self, *exc):
                runner.timings.append((name, time.perf_counter() - self.start))
                return False

        return _Stage()

    def path(self, name: str) -> Path:
        return self.out / name

    def record(self, name: str) -> None:
        self.files.append(name)

    def write_json(self, name: str, obj) -> None:
        write_json(self.path(name), obj)
        self.record(name)

    def finish(self) -> Path:
        manifest = {
            "command": self.command,
            "config_sha256": config_hash(self.cfg),
            "seed": self.seed,
            "threads": self.threads,
            "versions": {
                "fwmpairs": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "outputs": [
                {"path": name,
                 "bytes": self.path(name).stat().st_size,
                 "sha256": sha256_file(self.path(name))}
                for name in sorted(self.files)
            ],
            "timings_file": "timings.txt",
        }
        write_json(self.path("manifest.json"), manifest)
        lines = [f"{name}\t{dt:.6f} s" for name, dt in self.timings]
        lines.append(f"total\t{time.perf_counter() - self._t0:.6f} s")
        self.path("timings.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")
        return self.path("manifest.json")


# ---------------------------------------------------------------------------
# shared simulation context


class Simulation:
    """Processes, phase-matched centers, overlaps and weights for a config."""

    def __init__(self, cfg: PipelineConfig, fiber: FiberSpec | None = None):
        self.cfg = cfg
        self.fiber = fiber if fiber is not None else cfg.fiber
        self.pump = cfg.pump
        self.processes = enumerate_processes(TWO_MODE_SET)
        self.centers = {}
        self.unmatched = {}
        found = phasematched_centers(
            self.processes, self.fiber, self.pump.center_wavelength_nm,
            band_i_nm=cfg.center_band_nm, k_nl=cfg.k_nl)
        for label, center in found.items():
            if isinstance(center, PhaseMatchError):
                self.unmatched[label] = str(center)
            else:
                self.centers[label] = center
        if not self.centers:
            raise NumericError("no process is phase matched in the band")
        self.matched = [p for p in self.processes if p.label in self.centers]
        raw = {p.label: process_overlap(self.fiber, p,
                                        self.pump.center_wavelength_nm,
                                        self.centers[p.label])
               for p in self.matched}
        self.overlaps = normalize_overlaps(raw)
        self.weights = process_weights(self.pump, self.overlaps, self.matched)

    def jsi(self, grid: SpectralGrid | None = None):
        return jsa_grid(self.matched, self.fiber, self.pump,
                        self.weights.amplitudes,
                        grid if grid is not None else self.cfg.grid,
                        k_nl=self.cfg.k_nl)

    def amplitudes(self):
        return model_amplitudes(self.matched, self.fiber, self.pump,
                                self.weights, k_nl=self.cfg.k_nl)

    def in_band(self) -> list:
        """Processes whose centers fall inside the configured grid."""
        (s0, s1), (i0, i1) = (self.cfg.grid.lambda_s_nm,
                              self.cfg.grid.lambda_i_nm)
        out = []
        for proc in self.matched:
            ls, li = self.centers[proc.label]
            if s0 <= ls <= s1 and i0 <= li <= i1:
                out.append(proc)
        return out


def _fit_in_band_lobes(sim: Simulation, lam_s, lam_i, intensity,
                       n_lobes: int | None = None):
    """Fit ``n_lobes`` lobes (default: ``expected_lobes``, at most one per
    in-band process) and label them with the in-band processes, both
    taken in idler order."""
    in_band = sorted(sim.in_band(), key=lambda p: sim.centers[p.label][1])
    if not in_band:
        raise NumericError("no phase-matched lobe inside the grid band")
    if n_lobes is None:
        n_lobes = min(sim.cfg.expected_lobes, len(in_band))
    fit = fit_lobes(lam_s, lam_i, intensity, n_lobes)
    for lobe, proc in zip(fit.lobes, in_band):
        lobe.process_label = proc.label
    return fit


def lobes_to_json(fit) -> dict:
    return {
        "r_squared": fit.r_squared,
        "residual_norm": fit.residual_norm,
        "lobes": [dataclasses.asdict(lb) for lb in fit.lobes],
    }


def load_lobes(path: Path) -> list:
    fields = dataclasses.fields(GaussianLobe)
    entries = document_entries(
        path, read_json_document(path, ("lobes",)), "lobes",
        [f.name for f in fields if f.default is dataclasses.MISSING],
        [f.name for f in fields if f.default is not dataclasses.MISSING])
    return [GaussianLobe(**entry) for entry in entries]


# ---------------------------------------------------------------------------
# commands


def cmd_simulate_jsi(runner: Runner) -> dict:
    cfg = runner.cfg
    with runner.stage("simulate"):
        sim = Simulation(cfg)
        grid = sim.jsi()
    with runner.stage("fit"):
        fit = _fit_in_band_lobes(sim, grid.lambda_s_axis, grid.lambda_i_axis,
                                 grid.combined)
    with runner.stage("write"):
        write_grid_csv(runner.path("jsi.csv"), grid.lambda_s_axis,
                       grid.lambda_i_axis, grid.combined)
        runner.record("jsi.csv")
        meta = {
            "pump": {
                "center_wavelength_nm": cfg.pump.center_wavelength_nm,
                "intensity_fwhm_nm": cfg.pump.intensity_fwhm_nm,
                "transverse_state": {
                    k: v for k, v in
                    ((m, [a.real, a.imag]) for m, a in
                     cfg.pump.transverse_state.amplitudes.items())},
            },
            "fiber": dataclasses.asdict(cfg.fiber),
            "normalization_raw_integral": grid.normalization,
            "weights": {k: [v.real, v.imag]
                        for k, v in sim.weights.amplitudes.items()},
            "overlaps_normalized": {k: [v.real, v.imag]
                                    for k, v in sim.overlaps.items()},
            "units": {"wavelengths": "nm",
                      "intensity": "1/nm^2 (integrates to 1)"},
            "unmatched_processes": sim.unmatched,
        }
        runner.write_json("jsi_meta.json", meta)
        report_rows = []
        for lobe in sorted(fit.lobes, key=lambda lb: lb.center_i_nm):
            pred = sim.centers[lobe.process_label]
            report_rows.append({
                "process": lobe.process_label,
                "predicted_lambda_s_nm": pred[0],
                "predicted_lambda_i_nm": pred[1],
                "fitted_lambda_s_nm": lobe.center_s_nm,
                "fitted_lambda_i_nm": lobe.center_i_nm,
                "sigma_major_nm": lobe.sigma_major_nm,
                "sigma_minor_nm": lobe.sigma_minor_nm,
                "orientation_rad": lobe.orientation_rad,
                "amplitude": lobe.amplitude,
                "r_squared": lobe.r_squared,
            })
        runner.write_json("lobes.json", lobes_to_json(fit))
        _write_csv(runner, "lobe_centers.csv", report_rows)
        write_pgm(runner.path("jsi.pgm"), grid.combined)
        runner.record("jsi.pgm")
        write_ppm(runner.path("jsi.ppm"), grid.combined)
        runner.record("jsi.ppm")
        render_svg_heatmap(runner.path("jsi.svg"), grid.lambda_s_axis,
                           grid.lambda_i_axis, grid.combined,
                           lobes=fit.lobes,
                           contour_level=cfg.contour_level,
                           title="combined joint spectral intensity")
        runner.record("jsi.svg")
    return {"lobes": report_rows, "unmatched": sim.unmatched}


def _write_csv(runner: Runner, name: str, rows: list) -> None:
    if not rows:
        runner.path(name).write_text("", encoding="utf-8")
        runner.record(name)
        return
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for col in cols:
            v = row[col]
            cells.append(repr(float(v)) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    runner.path(name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    runner.record(name)


def cmd_sweep_delta(runner: Runner, deltas=None) -> list:
    cfg = runner.cfg
    deltas = list(cfg.delta_sweep if deltas is None else deltas)
    if not deltas:
        raise ConfigError("delta sweep needs at least one value")
    rows = []
    for k, delta in enumerate(deltas):
        with runner.stage(f"delta_{k}"):
            fiber = dataclasses.replace(cfg.fiber,
                                        delta_parity_dispersion=delta)
            sim = Simulation(cfg, fiber=fiber)
            for label in ("B", "C"):
                if label not in sim.centers:
                    raise NumericError(f"delta = {delta:g}: "
                                       f"{sim.unmatched[label]}")
            grid = sim.jsi()
            name = f"jsi_delta{k}.csv"
            write_grid_csv(runner.path(name), grid.lambda_s_axis,
                           grid.lambda_i_axis, grid.combined)
            runner.record(name)
            svg = f"jsi_delta{k}.svg"
            render_svg_heatmap(runner.path(svg), grid.lambda_s_axis,
                               grid.lambda_i_axis, grid.combined,
                               title=f"parity dispersion {delta:g}")
            runner.record(svg)
            (bs, bi) = sim.centers["B"]
            (cs, ci) = sim.centers["C"]
            rows.append({
                "delta": float(delta),
                "lambda_i_B_nm": bi, "lambda_i_C_nm": ci,
                "lambda_s_B_nm": bs, "lambda_s_C_nm": cs,
                "separation_i_nm": abs(ci - bi),
            })
    _write_csv(runner, "separations.csv", rows)
    return rows


def cmd_fit_lobes(runner: Runner, input_csv: Path,
                  expected: int | None = None) -> dict:
    cfg = runner.cfg
    with runner.stage("load"):
        lam_s, lam_i, intensity = load_grid_csv(input_csv)
    with runner.stage("fit"):
        fit = _fit_in_band_lobes(Simulation(cfg), lam_s, lam_i, intensity,
                                 expected)
    doc = lobes_to_json(fit)
    runner.write_json("lobes.json", doc)
    render_svg_heatmap(runner.path("lobes.svg"), lam_s, lam_i, intensity,
                       lobes=fit.lobes, contour_level=cfg.contour_level,
                       title="fitted lobes")
    runner.record("lobes.svg")
    return doc


def _windows_or_default(runner: Runner, sim: Simulation) -> list:
    if runner.cfg.windows:
        return list(runner.cfg.windows)
    (s0, s1) = runner.cfg.grid.lambda_s_nm
    (i0, i1) = runner.cfg.grid.lambda_i_nm
    return [SpectralWindow((s0, s1), (i0, i1))]


def cmd_estimate_rho(runner: Runner, jsi_csv: Path | None = None,
                     lobes_json: Path | None = None) -> list:
    cfg = runner.cfg
    with runner.stage("prepare"):
        sim = Simulation(cfg)
        if jsi_csv is not None:
            fit = _fit_in_band_lobes(sim, *load_grid_csv(jsi_csv))
            amps = lobe_amplitudes(fit.lobes)
            source = "jsi_csv"
        elif lobes_json is not None:
            amps = lobe_amplitudes(load_lobes(lobes_json))
            source = "lobes_json"
        else:
            amps = sim.amplitudes()
            source = "simulation"
    rows = []
    for k, window in enumerate(_windows_or_default(runner, sim)):
        with runner.stage(f"window_{k}"):
            rho = trace_spectral(amps, sim.matched, window)
            metrics = metrics_block(rho)
            doc = density_to_json(rho, metrics, extra={
                "window": {"lambda_s_nm": list(window.lambda_s_nm),
                           "lambda_i_nm": list(window.lambda_i_nm)},
                "source": source,
                "kind": "rho_se",
            })
            runner.write_json(f"rho_se_w{k}.json", doc)
            rows.append({
                "window": k,
                "lambda_s_lo_nm": window.lambda_s_nm[0],
                "lambda_s_hi_nm": window.lambda_s_nm[1],
                "lambda_i_lo_nm": window.lambda_i_nm[0],
                "lambda_i_hi_nm": window.lambda_i_nm[1],
                "concurrence": metrics["concurrence"],
                "bell_fidelity": metrics["bell_fidelity"],
                "bell_fidelity_unsquared": metrics["bell_fidelity_unsquared"],
                "purity": metrics["purity"],
            })
    _write_csv(runner, "windows.csv", rows)
    return rows


def cmd_qst_simulate(runner: Runner, rho_json: Path | None = None) -> dict:
    cfg = runner.cfg
    with runner.stage("state"):
        if rho_json is not None:
            rho = validate_density(load_density(rho_json))
        else:
            sim = Simulation(cfg)
            window = _windows_or_default(runner, sim)[0]
            rho = trace_spectral(sim.amplitudes(), sim.matched, window)
    with runner.stage("counts"):
        basis = projector_basis()
        rates = expected_counts(rho, cfg.tomography.counts_scale, basis)
        record = sample_counts(rates, runner.seed,
                               cfg.tomography.counts_scale)
        doc = {
            "n0": cfg.tomography.counts_scale,
            "seed": runner.seed,
            "records": [
                {"signal_basis": name[0], "idler_basis": name[1],
                 "counts": int(c)}
                for name, c in zip(basis.names, record.counts)
            ],
        }
        runner.write_json("counts.json", doc)
        runner.write_json("expected_rates.json", {
            "n0": cfg.tomography.counts_scale,
            "rates": {name: float(r) for name, r in zip(basis.names, rates)},
        })
    return doc


def load_counts(path: Path) -> CountRecord:
    doc = read_json_document(path, ("records", "n0"))
    basis = projector_basis()
    records = document_entries(path, doc, "records",
                               ("signal_basis", "idler_basis", "counts"))
    by_name = {}
    for j, rec in enumerate(records):
        try:
            count = float(rec["counts"])
        except (TypeError, ValueError):
            raise GridFormatError(
                f"{path}: records[{j}]: counts must be a number") from None
        if not 0.0 <= count <= MAX_COUNT:
            raise GridFormatError(
                f"{path}: records[{j}]: counts must be finite, nonnegative "
                f"and at most 2^53, got {count!r}")
        by_name[str(rec["signal_basis"]) + str(rec["idler_basis"])] = count
    missing = [name for name in basis.names if name not in by_name]
    if missing:
        raise GridFormatError(f"{path}: no counts for projector {missing[0]}")
    try:
        n0 = float(doc["n0"])
    except (TypeError, ValueError):
        raise GridFormatError(f"{path}: n0 must be a number") from None
    if not 0.0 < n0 < np.inf:
        raise GridFormatError(f"{path}: n0 must be finite and > 0, got {n0!r}")
    counts = np.array([by_name[name] for name in basis.names])
    return CountRecord(counts=counts, n0=n0, seed=doc.get("seed"))


def cmd_qst_reconstruct(runner: Runner, counts_json: Path) -> dict:
    cfg = runner.cfg
    with runner.stage("mle"):
        record = load_counts(counts_json)
        result = mle_reconstruct(record)
        metrics = metrics_block(result.rho)
    with runner.stage("bootstrap"):
        boot = bootstrap_metrics(record, n_samples=cfg.tomography.n_samples,
                                 seed=runner.seed)
    doc = density_to_json(result.rho, metrics, extra={
        "kind": "rho_qst",
        "log_likelihood": result.log_likelihood,
        "iterations": result.iterations,
        "converged": result.converged,
        "kkt_residual": result.kkt_residual,
        "dual_gap": result.dual_gap,
        "bootstrap": {
            "n_samples": boot.n_samples,
            "failures": boot.failures,
            "unconverged": boot.unconverged,
            "seed": boot.seed,
            "means": boot.means,
            "stds": boot.stds,
        },
    })
    runner.write_json("rho_qst.json", doc)
    return doc


def cmd_compare(runner: Runner, rho_a_path: Path, rho_b_path: Path) -> dict:
    with runner.stage("compare"):
        rho_a = validate_density(load_density(rho_a_path))
        rho_b = validate_density(load_density(rho_b_path))
        f_sq = fidelity(rho_a, rho_b)
        abs_a = _nearest_density(np.abs(rho_a))
        f_abs = fidelity(abs_a, rho_b)
        doc = {
            "fidelity_squared": f_sq,
            "fidelity_unsquared": float(np.sqrt(f_sq)),
            "phase_blind_fidelity_squared": f_abs,
            "phase_blind_fidelity_unsquared": float(np.sqrt(f_abs)),
        }
    runner.write_json("compare.json", doc)
    return doc


def _nearest_density(mat: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the unit-trace PSD cone (used for
    the entrywise-magnitude comparison, which can leave the cone)."""
    herm = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    rho = (vecs * vals) @ vecs.conj().T
    return rho / np.trace(rho).real


def cmd_render(runner: Runner, input_csv: Path,
               lobes_json: Path | None = None) -> None:
    with runner.stage("render"):
        lam_s, lam_i, intensity = load_grid_csv(input_csv)
        lobes = []
        if lobes_json is not None:
            lobes = load_lobes(lobes_json)
        stem = Path(input_csv).stem
        write_pgm(runner.path(f"{stem}.pgm"), intensity)
        runner.record(f"{stem}.pgm")
        write_ppm(runner.path(f"{stem}.ppm"), intensity)
        runner.record(f"{stem}.ppm")
        render_svg_heatmap(runner.path(f"{stem}.svg"), lam_s, lam_i,
                           intensity, lobes=lobes,
                           contour_level=runner.cfg.contour_level,
                           title=stem)
        runner.record(f"{stem}.svg")


MODE_IMAGE_STATES = ("g", "e", "o", "d", "a", "r", "l")


def cmd_modes(runner: Runner, wavelength_nm: float | None = None) -> None:
    cfg = runner.cfg
    lam_nm = wavelength_nm if wavelength_nm is not None else \
        0.5 * (cfg.seed_scan.lambda_i_nm[0] + cfg.seed_scan.lambda_i_nm[1])
    with runner.stage("modes"):
        grid = default_grid(cfg.fiber)
        for name in MODE_IMAGE_STATES:
            img = intensity_image(cfg.fiber, lam_nm / 1000.0,
                                  ModeSuperposition.named(name), grid)
            write_pgm(runner.path(f"mode_{name}.pgm"), img)
            runner.record(f"mode_{name}.pgm")
        mix = intensity_image(
            cfg.fiber, lam_nm / 1000.0,
            [(0.5, ModeSuperposition.named("e")),
             (0.5, ModeSuperposition.named("o"))], grid)
        write_pgm(runner.path("mode_mix_eo.pgm"), mix)
        runner.record("mode_mix_eo.pgm")
        runner.write_json("modes_meta.json", {
            "wavelength_nm": lam_nm,
            "grid_extent_um": grid.extent_um,
            "grid_resolution": grid.resolution,
            "states": list(MODE_IMAGE_STATES) + ["mix_eo"],
        })


def cmd_overlaps(runner: Runner) -> list:
    cfg = runner.cfg
    with runner.stage("overlaps"):
        sim = Simulation(cfg)
        rows = []
        for proc in sim.matched:
            o_j = sim.overlaps[proc.label]
            rows.append({
                "process": proc.label,
                "modes": "".join(proc.modes),
                "lambda_s_nm": sim.centers[proc.label][0],
                "lambda_i_nm": sim.centers[proc.label][1],
                "overlap_re": float(o_j.real),
                "overlap_im": float(o_j.imag),
                "overlap_sq": float(abs(o_j) ** 2),
                "weight_m": sim.weights.m()[proc.label],
            })
    _write_csv(runner, "overlaps.csv", rows)
    runner.write_json("overlaps.json", {"processes": rows})
    return rows
