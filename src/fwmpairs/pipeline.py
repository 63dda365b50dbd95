"""Command implementations: simulation, estimation, tomography, rendering.

Every command writes its primary outputs plus ``manifest.json`` listing
each file with its SHA-256; reruns with identical config and flags are
byte-identical.  Wall-clock timings and the peak resident set go to
``timings.txt``, which is deliberately not listed in the manifest so the
determinism contract covers every listed file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (CountEntry, FiberSpec, GaussianLobe, ModeSuperposition,
                     PipelineConfig, SpectralGrid, SpectralWindow)
from .dispersion import check_few_mode
from .errors import DomainError, GridFormatError, NumericError
from .estimation import (lobe_amplitudes, model_amplitudes, process_weights,
                         trace_spectral)
from .fields import (basis_fields, default_grid, intensity_image,
                     normalize_overlaps, process_overlap)
from .gridio import (density_to_json, load_density, load_grid_csv,
                     read_document, render_svg_heatmap, sha256_file,
                     write_grid_csv, write_json, write_pgm)
from .processes import (_energy_partner_nm, enumerate_processes,
                        phasematched_centers)
from .spectrum import fit_lobes, jsa_grid
from .tomography import (PROJECTOR_NAMES, CountRecord, bootstrap_metrics,
                         expected_counts, fidelity, metrics_block,
                         mle_reconstruct, sample_counts)

TWO_MODE_SET = frozenset(("e", "o"))


def config_hash(cfg: PipelineConfig) -> str:
    canon = json.dumps(cfg.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _peak_rss_mb() -> float:
    """Peak resident set of this process in MB (2^20 bytes): ``VmHWM``
    from /proc/self/status, or ``ru_maxrss`` where /proc has none."""
    try:
        with open("/proc/self/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and kB elsewhere
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024


class Runner:
    """Output directory, timing capture and manifest assembly.  The
    output directory is a run value that ``--out`` sets;
    ``config_sha256`` covers the config alone."""

    def __init__(self, cfg: PipelineConfig, command: str,
                 out_dir: str | Path):
        self.cfg = cfg
        self.command = command
        self.out = Path(out_dir)
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

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "config_sha256": config_hash(self.cfg),
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
        lines.append(f"peak_rss_mb\t{_peak_rss_mb():.1f} MB")
        self.path("timings.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")


# ---------------------------------------------------------------------------
# shared simulation context


class Simulation:
    """Processes, phase-matched centers, overlaps and weights for a config."""

    def __init__(self, cfg: PipelineConfig, fiber: FiberSpec | None = None):
        self.cfg = cfg
        self.fiber = fiber if fiber is not None else cfg.fiber
        self.pump = cfg.pump
        lam_p = cfg.pump.center_wavelength_nm
        check_few_mode(self.fiber, np.array([
            lam_p, *cfg.center_band_nm,
            *cfg.grid.lambda_s_nm, *cfg.grid.lambda_i_nm,
            *(lam for w in cfg.windows
              for lam in (*w.lambda_s_nm, *w.lambda_i_nm))]) / 1000.0)
        # the scan's signal wavelengths: past the check above no band end
        # lies at lam_p / 2, where its energy partner diverges
        check_few_mode(self.fiber,
                       _energy_partner_nm(lam_p, cfg.center_band_nm) / 1000.0)
        self.processes = enumerate_processes(TWO_MODE_SET)
        self.centers, self.unmatched = phasematched_centers(
            self.processes, self.fiber, lam_p, band_i_nm=cfg.center_band_nm)
        if not self.centers:
            raise NumericError("no process is phase matched in the band")
        self.matched = [p for p in self.processes if p.label in self.centers]
        self.overlaps = normalize_overlaps(process_overlap(
            self.fiber, self.matched, lam_p, self.centers))
        self.weights = process_weights(self.pump.transverse_state,
                                       self.overlaps, self.matched)

    def jsi(self):
        return jsa_grid(self.amplitudes(), self.matched, self.cfg.grid)

    def amplitudes(self):
        return model_amplitudes(self.matched, self.fiber, self.pump,
                                self.weights)


def _on_grid(lam_s, lam_i, center_s, center_i) -> bool:
    """Whether the point (``center_s``, ``center_i``) lies within the axes
    ``lam_s``, ``lam_i``, bounds included."""
    return (lam_s[0] <= center_s <= lam_s[-1]
            and lam_i[0] <= center_i <= lam_i[-1])


def _fit_in_band_lobes(sim: Simulation, lam_s, lam_i, intensity):
    """Fit one lobe per process on the grid and label the lobes with them:
    the matched processes of nonzero weight whose predicted center lies
    ``_on_grid``.  Each lobe takes the process of the assignment with the
    least total distance between fitted and predicted centers, the one
    in idler order on a tie.  Raises when a lobe lies further than
    criterion 4's 2 nm from its process's center in either coordinate."""
    on_grid = sorted((p.label for p in sim.matched
                      if sim.weights[p.label] != 0
                      and _on_grid(lam_s, lam_i, *sim.centers[p.label])),
                     key=lambda label: sim.centers[label][1])
    if not on_grid:
        raise NumericError("no phase-matched lobe inside the grid band")
    fit = fit_lobes(lam_s, lam_i, intensity, len(on_grid))

    def offsets(lobe, label):
        cs, ci = sim.centers[label]
        return lobe.center_s_nm - cs, lobe.center_i_nm - ci

    labels = min(itertools.permutations(on_grid), key=lambda order: sum(
        np.hypot(*offsets(lobe, label))
        for lobe, label in zip(fit.lobes, order)))
    for lobe, label in zip(fit.lobes, labels):
        if max(map(abs, offsets(lobe, label))) > 2.0:
            raise NumericError(
                f"fitted lobe at ({lobe.center_s_nm:.3f}, "
                f"{lobe.center_i_nm:.3f}) nm misses the predicted center "
                f"({sim.centers[label][0]:.3f}, {sim.centers[label][1]:.3f})"
                f" nm of process {label} by more than 2 nm")
        lobe.process_label = label
    return fit


def lobes_to_json(fit) -> dict:
    return {
        "r_squared": fit.r_squared,
        "residual_norm": fit.residual_norm,
        "lobes": [dataclasses.asdict(lb) for lb in fit.lobes],
    }


def load_lobes(path: Path) -> list:
    """The lobes of a lobes JSON, each checked against
    ``config.SCHEMA``; a null ``r_squared`` reads as not
    measured."""
    return read_document(path, {"lobes": [GaussianLobe]})["lobes"]


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
                "transverse_state": cfg.pump.transverse_state.amplitudes,
            },
            "fiber": dataclasses.asdict(cfg.fiber),
            "normalization_raw_integral": grid.normalization,
            "weights": sim.weights,
            "overlaps_normalized": sim.overlaps,
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
    return [f"{row['process']}: fitted center "
            f"({row['fitted_lambda_s_nm']:.3f}, "
            f"{row['fitted_lambda_i_nm']:.3f}) nm, "
            f"R^2 = {row['r_squared']:.4f}" for row in report_rows]


def _write_csv(path: Path, rows: list) -> None:
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for col in cols:
            v = row[col]
            cells.append(repr(float(v)) if isinstance(v, float) else str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_sweep_delta(runner: Runner, deltas: list) -> list:
    cfg = runner.cfg
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
            runner.write(f"jsi_delta{k}.csv", write_grid_csv,
                         grid.lambda_s_axis, grid.lambda_i_axis, grid.combined)
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


def cmd_fit_lobes(runner: Runner, input_csv: Path) -> list:
    with runner.stage("load"):
        grid = load_grid_csv(input_csv)
    with runner.stage("fit"):
        fit = _fit_in_band_lobes(Simulation(runner.cfg), *grid)
    runner.write("lobes.json", write_json, lobes_to_json(fit))
    return [f"global R^2 = {fit.r_squared:.4f}"]


def cmd_estimate_rho(runner: Runner, lobes_json: Path | None = None) -> list:
    cfg = runner.cfg
    with runner.stage("prepare"):
        sim = Simulation(cfg)
        if lobes_json is not None:
            lobes = load_lobes(lobes_json)
            for j, lobe in enumerate(lobes):
                if lobe.process_label not in sim.centers:
                    raise GridFormatError(
                        f"{lobes_json}: lobes[{j}]: process_label "
                        f"{lobe.process_label!r} names no phase-matched "
                        "process")
            amps = lobe_amplitudes(lobes)
            source = "lobes_json"
        else:
            amps = sim.amplitudes()
            source = "simulation"
    rows = []
    # the configured windows, or one window over the whole grid
    for k, window in enumerate(list(cfg.windows) or [
            SpectralWindow(cfg.grid.lambda_s_nm, cfg.grid.lambda_i_nm)]):
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


def cmd_qst_simulate(runner: Runner, rho_json: Path, seed: int) -> list:
    cfg = runner.cfg
    with runner.stage("state"):
        rho = load_density(rho_json)
    with runner.stage("counts"):
        rates = expected_counts(rho, cfg.tomography.counts_scale)
        record = sample_counts(rates, seed, cfg.tomography.counts_scale)
        counts = [int(c) for c in record.counts]
        runner.write("counts.json", write_json, {
            "n0": cfg.tomography.counts_scale,
            "seed": seed,
            "records": [
                {"signal_basis": name[0], "idler_basis": name[1],
                 "counts": c}
                for name, c in zip(PROJECTOR_NAMES, counts)
            ],
        })
        runner.write("expected_rates.json", write_json, {
            "n0": cfg.tomography.counts_scale,
            "rates": dict(zip(PROJECTOR_NAMES, rates.tolist())),
        })
    return [f"sampled {len(counts)} projectors, total counts {sum(counts)}"]


def load_counts(path: Path) -> CountRecord:
    doc = read_document(path, {"records": [CountEntry], "n0": "counts_scale"})
    by_name = {rec.signal_basis + rec.idler_basis: rec.counts
               for rec in doc["records"]}
    missing = [name for name in PROJECTOR_NAMES if name not in by_name]
    if missing:
        raise GridFormatError(f"{path}: no counts for projector {missing[0]}")
    counts = [by_name[name] for name in PROJECTOR_NAMES]
    return CountRecord(counts=np.array(counts), n0=doc["n0"])


def cmd_qst_reconstruct(runner: Runner, counts: Path, seed: int,
                        threads: int) -> list:
    # ``threads`` is checked by the CLI; no stage reads it
    cfg = runner.cfg
    with runner.stage("mle"):
        record = load_counts(counts)
        result = mle_reconstruct(record)
        metrics = metrics_block(result.rho)
    with runner.stage("bootstrap"):
        boot = bootstrap_metrics(record, n_samples=cfg.tomography.n_samples,
                                 seed=seed)
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
        a = load_density(rho_a)
        b = load_density(rho_b)
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
        # the lobe fit's rules: centered on the grid, no sigma past its span
        span = float(max(lam_s[-1] - lam_s[0], lam_i[-1] - lam_i[0]))
        for j, lobe in enumerate(lobes):
            if not _on_grid(lam_s, lam_i, lobe.center_s_nm,
                            lobe.center_i_nm):
                raise GridFormatError(
                    f"{lobes_json}: lobes[{j}]: center ({lobe.center_s_nm!r}, "
                    f"{lobe.center_i_nm!r}) nm lies outside the grid")
            sigma = max(lobe.sigma_major_nm, lobe.sigma_minor_nm)
            if sigma > span:
                raise GridFormatError(
                    f"{lobes_json}: lobes[{j}]: sigma {sigma!r} nm is wider "
                    f"than the grid span {span!r} nm")
        stem = Path(input_csv).stem
        # the SVG first: a lobe it cannot draw stops before any output
        try:
            runner.write(f"{stem}.svg", render_svg_heatmap, lam_s, lam_i,
                         intensity, lobes=lobes, title=stem)
        except DomainError as exc:
            raise GridFormatError(
                f"{lobes_json}: {exc} on the grid of {input_csv}") from None
        peak = intensity.max()
        runner.write(f"{stem}.pgm", write_pgm,
                     intensity / peak if peak > 0 else intensity)
    return []


MODE_IMAGE_STATES = ("g", "e", "o", "d", "a", "r", "l")
# default wavelength of the mode images, mid-band of the default idler axis
MODES_WAVELENGTH_NM = sum(SpectralGrid().lambda_i_nm) / 2


def cmd_modes(runner: Runner, wavelength_nm: float | None = None) -> list:
    cfg = runner.cfg
    lam_nm = MODES_WAVELENGTH_NM if wavelength_nm is None else wavelength_nm
    check_few_mode(cfg.fiber, lam_nm / 1000.0)
    with runner.stage("modes"):
        grid = default_grid(cfg.fiber)
        basis = basis_fields(cfg.fiber, lam_nm / 1000.0, grid)
        for name in MODE_IMAGE_STATES:
            runner.write(f"mode_{name}.pgm", write_pgm, intensity_image(
                basis, ModeSuperposition.named(name)))
        runner.write("mode_mix_eo.pgm", write_pgm, intensity_image(
            basis, [(0.5, ModeSuperposition.named("e")),
                    (0.5, ModeSuperposition.named("o"))]))
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
    return [f"{row['process']} ({row['modes']}): |O|^2 = "
            f"{row['overlap_sq']:.4f}, weight {row['weight_m']:.4f}"
            for row in rows]
