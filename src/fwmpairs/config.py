"""Pipeline configuration: strict JSON with location-aware errors.

``SCHEMA`` gives the JSON type of every key of every config section.
The defaults live on the dataclasses alone, and a key whose field has
no default is required.  Unknown keys are rejected with their path so a
typo never silently falls back to a default.  ``convert`` is the one
place for type and range checks (numbers finite, intervals ascending,
birefringences at most 1e-2 in magnitude, seeds unsigned 64-bit, counts
at least 1, bootstrap samples at most ``MAX_BOOTSTRAP_SAMPLES``, and
the lobe values that ``pipeline.load_lobes`` reads); a dataclass checks
only its own constraints, such as a positive core radius or a grid of
at most ``MAX_GRID_POINTS``.
``PipelineConfig.parse`` accepts the raw dict; ``load_config`` reads a
file.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .dispersion import FiberSpec
from .errors import ConfigError
from .estimation import SpectralWindow
from .fields import ModeSuperposition
from .gridio import CONTOUR_LEVELS
from .spectrum import PumpSpec, SpectralGrid
from .tomography import MAX_BOOTSTRAP_SAMPLES, MAX_COUNT


@dataclass
class TomographyConfig:
    counts_scale: float = 1000.0
    n_samples: int = 100
    seed: int = 20240620


@dataclass
class PipelineConfig:
    fiber: FiberSpec = field(default_factory=FiberSpec)
    pump: PumpSpec = field(default_factory=PumpSpec)
    grid: SpectralGrid = field(default_factory=SpectralGrid)
    windows: list = field(default_factory=list)
    tomography: TomographyConfig = field(default_factory=TomographyConfig)
    output_dir: str = "out"
    delta_sweep: list = field(default_factory=lambda: [0.0, 1.5e-5, 3.0e-5])
    center_band_nm: tuple = (540.0, 580.0)
    expected_lobes: int = 4
    contour_level: str = "1/e2"
    raw: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, data: dict) -> "PipelineConfig":
        cfg = convert(data, cls, "config")
        cfg.raw = data
        return cfg


# The JSON type of each key: a scalar type, a section (dataclass), a
# fixed-length array (tuple of types), an array of one type (one-element
# list) or a named kind from ``KINDS``.
SCHEMA = {
    PipelineConfig: {
        "fiber": FiberSpec, "pump": PumpSpec, "grid": SpectralGrid,
        "windows": [SpectralWindow], "tomography": TomographyConfig,
        "output_dir": str, "delta_sweep": ["birefringence"],
        "center_band_nm": "interval", "expected_lobes": "count",
        "contour_level": "contour",
    },
    FiberSpec: {
        "core_radius_um": float, "numerical_aperture": float,
        "delta_pol": "birefringence", "delta_parity": "birefringence",
        "delta_parity_dispersion": "birefringence",
        "segments": [(float, bool)],
    },
    PumpSpec: {"center_wavelength_nm": float, "intensity_fwhm_nm": float,
               "transverse_state": "state"},
    SpectralGrid: {"lambda_s_nm": "interval", "lambda_i_nm": "interval",
                   "points_s": int, "points_i": int},
    SpectralWindow: {"lambda_s_nm": "interval", "lambda_i_nm": "interval"},
    TomographyConfig: {"counts_scale": "counts_scale",
                       "n_samples": "samples", "seed": "seed"},
}

# named kind -> (JSON type or kind, test, rule stated when the test fails)
KINDS = {
    "interval": ((float, float), lambda v: v[0] < v[1],
                 "must be an ascending [low, high]"),
    "count": (int, lambda v: v >= 1, "must be >= 1"),
    "two_or_more": (int, lambda v: v >= 2, "must be >= 2"),
    "samples": ("two_or_more", lambda v: v <= MAX_BOOTSTRAP_SAMPLES,
                f"must be <= {MAX_BOOTSTRAP_SAMPLES}"),
    "seed": (int, lambda v: 0 <= v < 2**64, "must be in [0, 2^64)"),
    # about NA^2 / 2n of the default fiber: the core-cladding index step,
    # which the additive birefringence overlays assume is large next to them
    "birefringence": (float, lambda v: abs(v) <= 1e-2,
                      "must be within [-0.01, 0.01]"),
    "positive": (float, lambda v: v > 0, "must be > 0"),
    # a lobe width: its square divides the Gaussian's exponent
    "sigma": ("positive", lambda v: 0 < v * v < math.inf,
              "must have a finite, nonzero square"),
    "counts_scale": (float, lambda v: 0 < v <= MAX_COUNT,
                     "must be in (0, 2^53]"),
    "contour": (str, lambda v: v in CONTOUR_LEVELS,
                f"must be one of {sorted(CONTOUR_LEVELS)}"),
}

_EXPECTED = {float: "a number", int: "an integer", bool: "true/false",
             str: "a string"}


def convert(value, typ, where: str):
    """Check ``value`` against the schema type ``typ`` and return it
    converted; a ConfigError names ``where`` and the rule broken."""
    if dataclasses.is_dataclass(typ):
        return _section(typ, value, where)
    if isinstance(typ, (list, tuple)):
        fixed = isinstance(typ, tuple)
        if not isinstance(value, (list, tuple)) or (
                fixed and len(value) != len(typ)):
            raise ConfigError(f"{where}: expected a list"
                              + (f" of {len(typ)} items" if fixed else ""))
        types = typ if fixed else typ * len(value)
        out = [convert(v, t, f"{where}[{k}]")
               for k, (v, t) in enumerate(zip(value, types))]
        return tuple(out) if fixed else out
    if typ in KINDS:
        base, test, rule = KINDS[typ]
        value = convert(value, base, where)
        if not test(value):
            raise ConfigError(f"{where}: {rule}, got {value!r}")
        return value
    if typ == "state":
        return _state(value, where)
    if isinstance(value, bool) != (typ is bool) or not isinstance(
            value, (int, float) if typ is float else typ):
        raise ConfigError(f"{where}: expected {_EXPECTED[typ]}")
    if typ is float:
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite, got {value!r}")
    return value


def _section(cls, value, where: str):
    """Build ``cls`` from the keys present; the others keep the field
    defaults, and a field without a default is a required key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    types = SCHEMA[cls]
    for key in value:
        if key not in types:
            raise ConfigError(f"{where}.{key}: unknown key")
    for f in dataclasses.fields(cls):
        if (f.name not in value and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ConfigError(f"{where}.{f.name}: missing required key")
    kwargs = {key: convert(v, types[key], f"{where}.{key}")
              for key, v in value.items()}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _state(value, where: str) -> ModeSuperposition:
    """A named state ('d', 'e', ...) or {mode: [re, im]} amplitudes."""
    if isinstance(value, dict):
        value = {mode: complex(*convert(pair, (float, float),
                                        f"{where}.{mode}"))
                 for mode, pair in value.items()}
    elif not isinstance(value, str):
        raise ConfigError(f"{where}: expected a state name or amplitude map")
    try:
        if isinstance(value, str):
            return ModeSuperposition.named(value)
        return ModeSuperposition(value)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


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
