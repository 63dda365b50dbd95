"""The input contract: strict JSON, one reader and one checker.

``read_json_document`` reads every JSON input, the config and the
documents that commands pass on (lobes, density matrices, counts), and
``convert`` checks every value of them.  ``SCHEMA`` gives the JSON type
of every key of every config section and ``DOCUMENT_SCHEMA`` that of
every document entry, in the same notation.  The defaults live on the
dataclasses alone, and a key whose field has no default is required.
Unknown keys are rejected with their path so a typo never silently falls
back to a default.  ``convert`` is the one place for type and range
checks (numbers finite, intervals ascending, birefringences at most 1e-2
in magnitude, seeds unsigned 64-bit, counts at least 1, bootstrap
samples at most ``MAX_BOOTSTRAP_SAMPLES``, coincidence counts and count
scales at most 2^53, and the lobe values); a dataclass checks only its
own constraints, such as a positive core radius or a grid of at most
``MAX_GRID_POINTS``.  ``PipelineConfig.parse`` accepts the raw dict;
``load_config`` reads a file, and a config error exits with code 2.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .dispersion import FiberSpec
from .errors import ConfigError
from .estimation import BASIS_LABELS, SpectralWindow
from .fields import ModeSuperposition
from .spectrum import GaussianLobe, PumpSpec, SpectralGrid
from .tomography import MAX_BOOTSTRAP_SAMPLES, MAX_COUNT, CountEntry

# contour level name -> the lobe's contour radius in sigmas
CONTOUR_LEVELS = {"1/e2": 2.0, "1/e3": math.sqrt(6.0)}


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

# The entries of the input documents, in SCHEMA's notation
DOCUMENT_SCHEMA = {
    GaussianLobe: {"center_s_nm": float, "center_i_nm": float,
                   "sigma_major_nm": "sigma", "sigma_minor_nm": "sigma",
                   "orientation_rad": float, "amplitude": "positive",
                   "r_squared": "measured", "process_label": str},
    CountEntry: {"signal_basis": str, "idler_basis": str,
                 "counts": "coincidences"},
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
    "coincidences": (float, lambda v: 0 <= v <= MAX_COUNT,
                     "must be in [0, 2^53]"),
    "basis": ((str,) * 4, lambda v: v == BASIS_LABELS,
              f"must be {list(BASIS_LABELS)}"),
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
    if typ == "measured":  # a number, or null where none was measured
        return math.nan if value is None else convert(value, float, where)
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
    types = SCHEMA[cls] if cls in SCHEMA else DOCUMENT_SCHEMA[cls]
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


def read_json_document(path: str | Path):
    """The JSON value in file ``path``; a ConfigError names the file when
    its text is not UTF-8 JSON, and an OSError passes through."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # syntax, encoding, depth
        raise ConfigError(f"{path}: not a JSON document ({exc})") from None


def load_config(path: str | Path) -> PipelineConfig:
    try:
        data = read_json_document(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return PipelineConfig.parse(data)
