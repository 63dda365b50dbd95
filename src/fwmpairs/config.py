"""Pipeline configuration: strict JSON with location-aware errors.

Unknown keys are rejected with their path so a typo never silently
falls back to a default.  ``PipelineConfig.parse`` accepts the raw
dict; ``load_config`` reads a file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .dispersion import FiberSpec
from .errors import ConfigError
from .estimation import SpectralWindow
from .fields import ModeSuperposition
from .spectrum import PumpSpec, SpectralGrid


def _require(dct: dict, allowed: dict, where: str) -> dict:
    if not isinstance(dct, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in dct:
        if key not in allowed:
            raise ConfigError(f"{where}.{key}: unknown key")
    out = {}
    for key, (typ, default) in allowed.items():
        if key in dct:
            out[key] = _convert(dct[key], typ, f"{where}.{key}")
        elif default is _REQUIRED:
            raise ConfigError(f"{where}.{key}: missing required key")
        else:
            out[key] = default
    return out


_REQUIRED = object()


def _convert(value, typ, where: str):
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number")
        return float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer")
        return value
    if typ is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true/false")
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string")
        return value
    if typ == "interval":
        if (not isinstance(value, (list, tuple)) or len(value) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in value)):
            raise ConfigError(f"{where}: expected [low, high]")
        return (float(value[0]), float(value[1]))
    if typ == "raw":
        return value
    raise AssertionError(typ)


def check_seed(seed: int, where: str) -> None:
    """Seeds are unsigned 64-bit integers."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{where}: must be in [0, 2^64), got {seed}")


def parse_state(value, where: str) -> ModeSuperposition:
    """A named state ('d', 'e', ...) or {mode: [re, im]} amplitudes."""
    if isinstance(value, str):
        try:
            return ModeSuperposition.named(value)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if isinstance(value, dict):
        amps = {}
        for mode, pair in value.items():
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or any(isinstance(v, bool) or not isinstance(v, (int, float))
                           for v in pair)):
                raise ConfigError(
                    f"{where}.{mode}: expected [re, im] amplitude")
            amps[mode] = complex(pair[0], pair[1])
        try:
            return ModeSuperposition(amps)
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    raise ConfigError(f"{where}: expected a state name or amplitude map")


@dataclass
class TomographyConfig:
    counts_scale: float = 1000.0
    n_samples: int = 100
    seed: int = 20240620


@dataclass
class SeedScanConfig:
    lambda_i_nm: tuple = (567.0, 576.0)


@dataclass
class PipelineConfig:
    fiber: FiberSpec
    pump: PumpSpec
    grid: SpectralGrid
    seed_scan: SeedScanConfig
    windows: list
    tomography: TomographyConfig
    output_dir: str
    k_nl: float
    threads: int
    delta_sweep: list
    center_band_nm: tuple
    expected_lobes: int
    contour_level: str
    raw: dict

    @classmethod
    def parse(cls, data: dict) -> "PipelineConfig":
        top = _require(data, {
            "fiber": ("raw", {}),
            "pump": ("raw", {}),
            "grid": ("raw", {}),
            "seed_scan": ("raw", {}),
            "windows": ("raw", []),
            "tomography": ("raw", {}),
            "output_dir": (str, "out"),
            "k_nl": (float, 0.0),
            "threads": (int, 1),
            "delta_sweep": ("raw", [0.0, 1.5e-5, 3.0e-5]),
            "center_band_nm": ("interval", (540.0, 580.0)),
            "expected_lobes": (int, 4),
            "contour_level": (str, "1/e2"),
        }, "config")

        f = _require(top["fiber"], {
            "core_radius_um": (float, 1.74),
            "numerical_aperture": (float, 0.17),
            "delta_pol": (float, 2.37e-4),
            "delta_parity": (float, 4.41e-4),
            "delta_parity_dispersion": (float, 3.0e-5),
            "segments": ("raw", [[0.10, False]]),
            "core_model": (str, "ge_doped"),
        }, "config.fiber")
        segments = []
        for k, seg in enumerate(f["segments"]):
            if (not isinstance(seg, (list, tuple)) or len(seg) != 2
                    or isinstance(seg[0], bool)
                    or not isinstance(seg[0], (int, float))
                    or not isinstance(seg[1], bool)):
                raise ConfigError(
                    f"config.fiber.segments[{k}]: expected "
                    "[length_m, axis_swapped]")
            segments.append((float(seg[0]), seg[1]))
        try:
            fiber = FiberSpec(
                core_radius_um=f["core_radius_um"],
                numerical_aperture=f["numerical_aperture"],
                delta_pol=f["delta_pol"],
                delta_parity=f["delta_parity"],
                delta_parity_dispersion=f["delta_parity_dispersion"],
                segments=tuple(segments),
                core_model=f["core_model"],
            )
        except ConfigError as exc:
            raise ConfigError(f"config.fiber: {exc}") from None

        p = _require(top["pump"], {
            "center_wavelength_nm": (float, 620.0),
            "intensity_fwhm_nm": (float, 2.0),
            "transverse_state": ("raw", "d"),
        }, "config.pump")
        pump = PumpSpec(
            center_wavelength_nm=p["center_wavelength_nm"],
            intensity_fwhm_nm=p["intensity_fwhm_nm"],
            transverse_state=parse_state(p["transverse_state"],
                                         "config.pump.transverse_state"),
        )

        g = _require(top["grid"], {
            "lambda_s_nm": ("interval", (670.0, 700.0)),
            "lambda_i_nm": ("interval", (567.0, 576.0)),
            "points_s": (int, 301),
            "points_i": (int, 301),
        }, "config.grid")
        try:
            grid = SpectralGrid(lambda_s_nm=g["lambda_s_nm"],
                                lambda_i_nm=g["lambda_i_nm"],
                                points_s=g["points_s"],
                                points_i=g["points_i"])
        except ConfigError as exc:
            raise ConfigError(f"config.grid: {exc}") from None

        s = _require(top["seed_scan"], {
            "lambda_i_nm": ("interval", (567.0, 576.0)),
        }, "config.seed_scan")
        seed_scan = SeedScanConfig(lambda_i_nm=s["lambda_i_nm"])

        windows = []
        if not isinstance(top["windows"], list):
            raise ConfigError("config.windows: expected a list")
        for k, w in enumerate(top["windows"]):
            wd = _require(w, {
                "lambda_s_nm": ("interval", _REQUIRED),
                "lambda_i_nm": ("interval", _REQUIRED),
            }, f"config.windows[{k}]")
            try:
                windows.append(SpectralWindow(lambda_s_nm=wd["lambda_s_nm"],
                                              lambda_i_nm=wd["lambda_i_nm"]))
            except ConfigError as exc:
                raise ConfigError(f"config.windows[{k}]: {exc}") from None

        t = _require(top["tomography"], {
            "counts_scale": (float, 1000.0),
            "n_samples": (int, 100),
            "seed": (int, 20240620),
        }, "config.tomography")
        check_seed(t["seed"], "config.tomography.seed")
        tomo = TomographyConfig(counts_scale=t["counts_scale"],
                                n_samples=t["n_samples"], seed=t["seed"])

        if not isinstance(top["delta_sweep"], list) or any(
                isinstance(v, bool) or not isinstance(v, (int, float))
                for v in top["delta_sweep"]):
            raise ConfigError("config.delta_sweep: expected a list of numbers")
        if top["threads"] < 1:
            raise ConfigError("config.threads: must be >= 1")

        return cls(
            fiber=fiber, pump=pump, grid=grid, seed_scan=seed_scan,
            windows=windows, tomography=tomo,
            output_dir=top["output_dir"], k_nl=top["k_nl"],
            threads=top["threads"],
            delta_sweep=[float(v) for v in top["delta_sweep"]],
            center_band_nm=top["center_band_nm"],
            expected_lobes=top["expected_lobes"],
            contour_level=top["contour_level"],
            raw=data,
        )


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return PipelineConfig.parse(data)
