"""Command implementations: simulation, estimation, tomography, rendering.

Every command writes its primary outputs plus ``manifest.json`` listing
each file with its SHA-256; reruns with identical config and seed are
byte-identical.  Wall-clock timings go to ``timings.txt``, which is
deliberately not listed in the manifest so the determinism contract
covers every listed file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import PipelineConfig
from .dispersion import FiberSpec, check_few_mode
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

    @contextlib.contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        yield
        self.timings.append((name, time.perf_counter() - start))

    def path(self, name: str) -> Path:
        return self.out / name

    def write(self, name: str, writer, *args, **kw) -> None:
        """Write output ``name`` through ``writer(path, *args, **kw)`` and
        list it in the manifest."""
        writer(self.path(name), *args, **kw)
        self.files.append(name)

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
        check_few_mode(self.fiber, np.array([
            cfg.pump.center_wavelength_nm, *cfg.center_band_nm,
            *cfg.grid.lambda_s_nm, *cfg.grid.lambda_i_nm,
            *(lam for w in cfg.windows
              for lam in (*w.lambda_s_nm, *w.lambda_i_nm))]) / 1000.0)
        self.processes = enumerate_processes(TWO_MODE_SET)
        self.centers = {}
        self.unmatched = {}
        found = phasematched_centers(
            self.processes, self.fiber, self.pump.center_wavelength_nm,
            band_i_nm=cfg.center_band_nm)
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
        return jsa_grid(self.matched, self.fiber, self.pump, self.weights,
                        grid if grid is not None else self.cfg.grid)

    def amplitudes(self):
        return model_amplitudes(self.matched, self.fiber, self.pump,
                                self.weights)

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


def cmd_simulate_jsi(runner: Runner) -> list:
    cfg = runner.cfg
    with runner.stage("simulate"):
        sim = Simulation(cfg)
        grid = sim.jsi()
        axes = (grid.lambda_s_axis, grid.lambda_i_axis, grid.combined)
    with runner.stage("fit"):
        fit = _fit_in_band_lobes(sim, *axes)
    with runner.stage("write"):
        runner.write("jsi.csv", write_grid_csv, *axes)
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
                        for k, v in sim.weights.items()},
            "overlaps_normalized": {k: [v.real, v.imag]
                                    for k, v in sim.overlaps.items()},
            "units": {"wavelengths": "nm",
                      "intensity": "1/nm^2 (integrates to 1)"},
            "unmatched_processes": sim.unmatched,
        }
        runner.write("jsi_meta.json", write_json, meta)
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
        runner.write("lobes.json", write_json, lobes_to_json(fit))
        runner.write("lobe_centers.csv", _write_csv, report_rows)
        runner.write("jsi.pgm", write_pgm, grid.combined)
        runner.write("jsi.ppm", write_ppm, grid.combined)
        runner.write("jsi.svg", render_svg_heatmap, *axes, lobes=fit.lobes,
                     contour_level=cfg.contour_level,
                     title="combined joint spectral intensity")
    return [f"{row['process']}: fitted center "
            f"({row['fitted_lambda_s_nm']:.3f}, "
            f"{row['fitted_lambda_i_nm']:.3f}) nm, "
            f"R^2 = {row['r_squared']:.4f}" for row in report_rows]


def _write_csv(path: Path, rows: list) -> None:
    if not rows:
        path.write_text("", encoding="utf-8")
        return
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for col in cols:
            v = row[col]
            cells.append(repr(float(v)) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
            axes = (grid.lambda_s_axis, grid.lambda_i_axis, grid.combined)
            runner.write(f"jsi_delta{k}.csv", write_grid_csv, *axes)
            runner.write(f"jsi_delta{k}.svg", render_svg_heatmap, *axes,
                         title=f"parity dispersion {delta:g}")
            (bs, bi) = sim.centers["B"]
            (cs, ci) = sim.centers["C"]
            rows.append({
                "delta": float(delta),
                "lambda_i_B_nm": bi, "lambda_i_C_nm": ci,
                "lambda_s_B_nm": bs, "lambda_s_C_nm": cs,
                "separation_i_nm": abs(ci - bi),
            })
    runner.write("separations.csv", _write_csv, rows)
    return [f"delta = {row['delta']:g}: B-C separation "
            f"{row['separation_i_nm']:.4f} nm" for row in rows]


def cmd_fit_lobes(runner: Runner, input_csv: Path,
                  n_lobes: int | None = None) -> list:
    cfg = runner.cfg
    with runner.stage("load"):
        grid = load_grid_csv(input_csv)
    with runner.stage("fit"):
        fit = _fit_in_band_lobes(Simulation(cfg), *grid, n_lobes)
    runner.write("lobes.json", write_json, lobes_to_json(fit))
    runner.write("lobes.svg", render_svg_heatmap, *grid, lobes=fit.lobes,
                 contour_level=cfg.contour_level, title="fitted lobes")
    return [f"global R^2 = {fit.r_squared:.4f}"]


def _windows(cfg: PipelineConfig) -> list:
    """The configured windows, or one window over the whole grid."""
    return list(cfg.windows) or [
        SpectralWindow(cfg.grid.lambda_s_nm, cfg.grid.lambda_i_nm)]


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
    for k, window in enumerate(_windows(cfg)):
        with runner.stage(f"window_{k}"):
            rho = trace_spectral(amps, sim.matched, window)
            metrics = metrics_block(rho)
            doc = density_to_json(rho, metrics, extra={
                "window": {"lambda_s_nm": list(window.lambda_s_nm),
                           "lambda_i_nm": list(window.lambda_i_nm)},
                "source": source,
                "kind": "rho_se",
            })
            runner.write(f"rho_se_w{k}.json", write_json, doc)
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
    runner.write("windows.csv", _write_csv, rows)
    return [f"window {row['window']}: concurrence {row['concurrence']:.4f}, "
            f"bell fidelity {row['bell_fidelity']:.4f} (unsquared "
            f"{row['bell_fidelity_unsquared']:.4f}), purity "
            f"{row['purity']:.4f}" for row in rows]


def cmd_qst_simulate(runner: Runner, rho_json: Path | None = None) -> list:
    cfg = runner.cfg
    with runner.stage("state"):
        if rho_json is not None:
            rho = validate_density(load_density(rho_json))
        else:
            sim = Simulation(cfg)
            rho = trace_spectral(sim.amplitudes(), sim.matched,
                                 _windows(cfg)[0])
    with runner.stage("counts"):
        basis = projector_basis()
        rates = expected_counts(rho, cfg.tomography.counts_scale, basis)
        record = sample_counts(rates, runner.seed,
                               cfg.tomography.counts_scale)
        counts = [int(c) for c in record.counts]
        runner.write("counts.json", write_json, {
            "n0": cfg.tomography.counts_scale,
            "seed": runner.seed,
            "records": [
                {"signal_basis": name[0], "idler_basis": name[1],
                 "counts": c}
                for name, c in zip(basis.names, counts)
            ],
        })
        runner.write("expected_rates.json", write_json, {
            "n0": cfg.tomography.counts_scale,
            "rates": {name: float(r) for name, r in zip(basis.names, rates)},
        })
    return [f"sampled {len(counts)} projectors, total counts {sum(counts)}"]


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


def cmd_qst_reconstruct(runner: Runner, counts: Path) -> list:
    cfg = runner.cfg
    with runner.stage("mle"):
        record = load_counts(counts)
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
    runner.write("rho_qst.json", write_json, doc)
    return [f"{key}: {metrics[key]:.4f} (bootstrap {boot.means[key]:.4f} "
            f"+/- {boot.stds[key]:.4f})"
            for key in ("concurrence", "bell_fidelity", "purity")]


def cmd_compare(runner: Runner, rho_a: Path, rho_b: Path) -> list:
    with runner.stage("compare"):
        a = validate_density(load_density(rho_a))
        b = validate_density(load_density(rho_b))
        f_sq = fidelity(a, b)
        f_abs = fidelity(_nearest_density(np.abs(a)), b)
        doc = {
            "fidelity_squared": f_sq,
            "fidelity_unsquared": float(np.sqrt(f_sq)),
            "phase_blind_fidelity_squared": f_abs,
            "phase_blind_fidelity_unsquared": float(np.sqrt(f_abs)),
        }
    runner.write("compare.json", write_json, doc)
    return [f"fidelity (squared convention):   {doc['fidelity_squared']:.4f}",
            "fidelity (unsquared convention): "
            f"{doc['fidelity_unsquared']:.4f}",
            "phase-blind |rho_a| vs rho_b (squared):   "
            f"{doc['phase_blind_fidelity_squared']:.4f}",
            "phase-blind |rho_a| vs rho_b (unsquared): "
            f"{doc['phase_blind_fidelity_unsquared']:.4f}"]


def _nearest_density(mat: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix onto the unit-trace PSD cone (used for
    the entrywise-magnitude comparison, which can leave the cone)."""
    herm = 0.5 * (mat + mat.conj().T)
    vals, vecs = np.linalg.eigh(herm)
    vals = np.clip(vals, 0.0, None)
    rho = (vecs * vals) @ vecs.conj().T
    return rho / np.trace(rho).real


def cmd_render(runner: Runner, input_csv: Path,
               lobes_json: Path | None = None) -> list:
    with runner.stage("render"):
        lam_s, lam_i, intensity = load_grid_csv(input_csv)
        lobes = load_lobes(lobes_json) if lobes_json is not None else []
        stem = Path(input_csv).stem
        runner.write(f"{stem}.pgm", write_pgm, intensity)
        runner.write(f"{stem}.ppm", write_ppm, intensity)
        runner.write(f"{stem}.svg", render_svg_heatmap, lam_s, lam_i,
                     intensity, lobes=lobes,
                     contour_level=runner.cfg.contour_level, title=stem)
    return []


MODE_IMAGE_STATES = ("g", "e", "o", "d", "a", "r", "l")


def cmd_modes(runner: Runner, wavelength_nm: float | None = None) -> list:
    cfg = runner.cfg
    lam_nm = wavelength_nm if wavelength_nm is not None else \
        0.5 * (cfg.seed_scan.lambda_i_nm[0] + cfg.seed_scan.lambda_i_nm[1])
    check_few_mode(cfg.fiber, lam_nm / 1000.0)
    with runner.stage("modes"):
        grid = default_grid(cfg.fiber)
        for name in MODE_IMAGE_STATES:
            runner.write(f"mode_{name}.pgm", write_pgm, intensity_image(
                cfg.fiber, lam_nm / 1000.0, ModeSuperposition.named(name),
                grid))
        runner.write("mode_mix_eo.pgm", write_pgm, intensity_image(
            cfg.fiber, lam_nm / 1000.0,
            [(0.5, ModeSuperposition.named("e")),
             (0.5, ModeSuperposition.named("o"))], grid))
        runner.write("modes_meta.json", write_json, {
            "wavelength_nm": lam_nm,
            "grid_extent_um": grid.extent_um,
            "grid_resolution": grid.resolution,
            "states": list(MODE_IMAGE_STATES) + ["mix_eo"],
        })
    return []


def cmd_overlaps(runner: Runner) -> list:
    with runner.stage("overlaps"):
        sim = Simulation(runner.cfg)
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
                "weight_m": float(abs(sim.weights[proc.label]) ** 2),
            })
    runner.write("overlaps.csv", _write_csv, rows)
    runner.write("overlaps.json", write_json, {"processes": rows})
    return [f"{row['process']} ({row['modes']}): |O|^2 = "
            f"{row['overlap_sq']:.4f}, weight {row['weight_m']:.4f}"
            for row in rows]
