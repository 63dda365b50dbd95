"""The input contract and its records: strict JSON, one reader and one
checker.

The records a config or an input document describes live here: the fiber
(``FiberSpec``), the pump (``PumpSpec``) and its transverse state
(``ModeSuperposition``), the spectral grid and windows, the fitted lobes
(``GaussianLobe``) and the count entries (``CountEntry``), with the
limits on them.  They are plain data: the physics that reads them lives
in the model modules, and this module imports none of them.

``read_json_document`` reads every JSON input, the config and the
documents that commands pass on (lobes, density matrices, counts), and
``convert`` checks every value of them.  ``SCHEMA`` gives the JSON type
of every key of every record, in one notation.  The defaults live on the
dataclasses alone, and a key whose field has no default is required.
Unknown keys are rejected with their path so a typo never silently falls
back to a default.  ``convert`` is the one place for type and range
checks (numbers finite, intervals ascending, birefringences at most 1e-2
in magnitude, fiber segments in (0, 1000] m, seeds unsigned 64-bit,
counts at least 1, bootstrap samples at most ``MAX_BOOTSTRAP_SAMPLES``,
coincidence counts and count scales at most 2^53, and the lobe values),
and each rule of one value is a kind in ``KINDS`` whose message names
the key and the value.  A dataclass keeps only the rules that span
fields, such as a grid of at most ``MAX_GRID_POINTS``.
``PipelineConfig.parse`` accepts the raw dict; ``load_config`` reads a
file, and a config error exits with code 2.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError

_TWO_PI = 2.0 * np.pi
# speed of light in vacuum, m/s (exact SI value)
C_LIGHT = 299_792_458.0

# ---------------------------------------------------------------------------
# transverse states

# the LP mode basis {g, e, o}: LP01, even and odd LP11, in canonical order
MODE_ORDER = ("g", "e", "o")

NAMED_STATES = {
    "g": {"g": 1.0},
    "e": {"e": 1.0},
    "o": {"o": 1.0},
    "d": {"e": 1.0 / np.sqrt(2.0), "o": 1.0 / np.sqrt(2.0)},
    "a": {"e": 1.0 / np.sqrt(2.0), "o": -1.0 / np.sqrt(2.0)},
    "r": {"e": 1.0 / np.sqrt(2.0), "o": 1j / np.sqrt(2.0)},
    "l": {"e": 1.0 / np.sqrt(2.0), "o": -1j / np.sqrt(2.0)},
}


@dataclass(frozen=True)
class ModeSuperposition:
    """Unit-norm complex superposition over the LP basis {g, e, o}."""

    amplitudes: dict

    def __post_init__(self):
        amps = {k: complex(v) for k, v in self.amplitudes.items() if v != 0}
        if not amps:
            raise ConfigError("empty mode superposition")
        for k in amps:
            if k not in MODE_ORDER:
                raise ConfigError(f"unknown basis mode {k!r}")
        # hypot of the parts: no overflow or underflow at extreme scales
        norm = math.hypot(*(x for v in amps.values()
                            for x in (v.real, v.imag)))
        if abs(norm - 1.0) > 1e-9:
            amps = {k: v / norm for k, v in amps.items()}
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def named(cls, name: str) -> "ModeSuperposition":
        if name not in NAMED_STATES:
            raise ConfigError(
                f"unknown state name {name!r}; expected one of "
                f"{sorted(NAMED_STATES)}"
            )
        return cls(dict(NAMED_STATES[name]))

    def amplitude(self, mode: str) -> complex:
        return self.amplitudes.get(mode, 0j)


# ---------------------------------------------------------------------------
# fiber and pump


@dataclass(frozen=True)
class FiberSpec:
    """Geometry, birefringence and segment layout of the fiber.

    Parameters
    ----------
    core_radius_um : float
        Step-index core radius, > 0.
    numerical_aperture : float
        Nominal NA in (0, 1); anchors the core index model at
        ``dispersion.NA_REFERENCE_UM``.
    delta_pol : float
        Polarization birefringence, slow (x) minus fast (y) index.
    delta_parity : float
        Parity birefringence, odd minus even LP11 index (>= 0).
    delta_parity_dispersion : float
        Difference between the short-wavelength (idler) and
        long-wavelength (signal) parity birefringences; the signal-side
        parity term is ``delta_parity - delta_parity_dispersion``.
    segments : tuple of (length_m, axis_swapped)
        Ordered fiber segments, each in (0, 1000] m (the config's
        ``segment_length`` kind); ``axis_swapped`` marks a cross-spliced
        segment whose slow axis is rotated 90 degrees.

    The material indices and the V number are ``dispersion.cladding_index``,
    ``dispersion.core_index`` and ``dispersion.v_number``.
    """

    core_radius_um: float = 1.74
    numerical_aperture: float = 0.17
    delta_pol: float = 2.37e-4
    delta_parity: float = 4.41e-4
    delta_parity_dispersion: float = 3.0e-5
    segments: tuple = ((0.10, False),)

    def __post_init__(self):
        # tuples, so a record read from JSON lists compares equal to one
        # built from tuple literals
        object.__setattr__(
            self, "segments",
            tuple((float(L), bool(sw)) for L, sw in self.segments),
        )

    @property
    def total_length_m(self) -> float:
        return sum(L for L, _ in self.segments)


@dataclass(frozen=True)
class PumpSpec:
    """Frequency-degenerate pump pair from one laser.

    ``intensity_fwhm_nm`` is the single-pump intensity FWHM; the
    two-photon envelope in the summed detuning has twice the variance.
    """

    center_wavelength_nm: float = 620.0
    intensity_fwhm_nm: float = 2.0
    transverse_state: ModeSuperposition = field(
        default_factory=lambda: ModeSuperposition.named("d"))

    @property
    def omega_p(self) -> float:
        return _TWO_PI * C_LIGHT / (self.center_wavelength_nm * 1e-9)

    @property
    def sigma_omega(self) -> float:
        """Std of the single-pump intensity spectrum, rad/s."""
        lam_m = self.center_wavelength_nm * 1e-9
        fwhm_omega = _TWO_PI * C_LIGHT * self.intensity_fwhm_nm * 1e-9 / lam_m**2
        return fwhm_omega / (2.0 * np.sqrt(2.0 * np.log(2.0)))


# ---------------------------------------------------------------------------
# spectral grids, windows and lobes

# Largest grid a config or a grid CSV may hold.  simulate-jsi and
# fit-lobes, the largest consumers, peak in their lobe fit near 37 MB +
# 56 bytes per node (VmHWM with one BLAS thread, README "Configuration":
# fit-lobes 41.7 MB at 301 x 301, 90.3 MB at 1001 x 1001 and 92.8 MB at
# 1024 x 1024 = 2^20 nodes; simulate-jsi 81.3 MB and 83.1 MB at the last
# two)
MAX_GRID_POINTS = 2**20


@dataclass(frozen=True)
class SpectralGrid:
    """Rectangular uniform (lambda_s, lambda_i) grid specification."""

    lambda_s_nm: tuple = (670.0, 700.0)
    lambda_i_nm: tuple = (567.0, 576.0)
    points_s: int = 301
    points_i: int = 301

    def __post_init__(self):
        if self.points_s * self.points_i > MAX_GRID_POINTS:
            raise ConfigError(
                f"points_s * points_i must be at most {MAX_GRID_POINTS}, "
                f"got {self.points_s * self.points_i}")

    def axes(self):
        ls = np.linspace(*self.lambda_s_nm, self.points_s)
        li = np.linspace(*self.lambda_i_nm, self.points_i)
        return ls, li


@dataclass(frozen=True)
class SpectralWindow:
    """Rectangular integration window in the (lambda_s, lambda_i) plane."""

    lambda_s_nm: tuple
    lambda_i_nm: tuple

    def quadrature(self, nodes: int):
        """Midpoint nodes and the cell area."""
        s0, s1 = self.lambda_s_nm
        i0, i1 = self.lambda_i_nm
        hs = (s1 - s0) / nodes
        hi = (i1 - i0) / nodes
        ls = s0 + hs * (np.arange(nodes) + 0.5)
        li = i0 + hi * (np.arange(nodes) + 0.5)
        return ls, li, hs * hi


@dataclass
class GaussianLobe:
    """Elliptical 2-D Gaussian fitted to one JSI lobe."""

    center_s_nm: float
    center_i_nm: float
    sigma_major_nm: float
    sigma_minor_nm: float
    orientation_rad: float
    amplitude: float
    r_squared: float = float("nan")
    process_label: str = ""

    def evaluate(self, lam_s_nm, lam_i_nm) -> np.ndarray:
        dx = np.asarray(lam_s_nm, dtype=float) - self.center_s_nm
        dy = np.asarray(lam_i_nm, dtype=float) - self.center_i_nm
        ct, st = np.cos(self.orientation_rad), np.sin(self.orientation_rad)
        u = ct * dx + st * dy
        v = -st * dx + ct * dy
        # a sigma whose square is subnormal overflows the quotient to inf,
        # where the Gaussian's limit, 0, is the value
        with np.errstate(over="ignore"):
            exponent = -0.5 * (u**2 / self.sigma_major_nm**2
                               + v**2 / self.sigma_minor_nm**2)
        return self.amplitude * np.exp(exponent)


# ---------------------------------------------------------------------------
# two-qubit states and counts

# basis order of every density matrix: (signal, idler) modes
BASIS_LABELS = ("ee", "eo", "oe", "oo")

MAX_COUNT = 2.0**53  # float64 holds every integer count up to here exactly
# Largest bootstrap a config may ask for: each resample adds about 28 kB
# to the batched solve, so 10 000 of them peak near 330 MB
MAX_BOOTSTRAP_SAMPLES = 10_000


@dataclass(frozen=True)
class CountEntry:
    """One projector's coincidences, as a counts document lists them."""

    signal_basis: str
    idler_basis: str
    counts: float


# ---------------------------------------------------------------------------
# the config


@dataclass
class TomographyConfig:
    counts_scale: float = 1000.0
    n_samples: int = 100


@dataclass
class PipelineConfig:
    fiber: FiberSpec = field(default_factory=FiberSpec)
    pump: PumpSpec = field(default_factory=PumpSpec)
    grid: SpectralGrid = field(default_factory=SpectralGrid)
    windows: list = field(default_factory=list)
    tomography: TomographyConfig = field(default_factory=TomographyConfig)
    center_band_nm: tuple = (540.0, 580.0)
    raw: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, data: dict) -> "PipelineConfig":
        cfg = convert(data, cls, "config")
        cfg.raw = data
        return cfg


# The JSON type of each key of each record: a scalar type, a record
# (dataclass), a fixed-length array (tuple of types), an array of one type
# (one-element list) or a named kind from ``KINDS``.
SCHEMA = {
    PipelineConfig: {
        "fiber": FiberSpec, "pump": PumpSpec, "grid": SpectralGrid,
        "windows": [SpectralWindow], "tomography": TomographyConfig,
        "center_band_nm": "interval",
    },
    FiberSpec: {
        "core_radius_um": "positive", "numerical_aperture": "aperture",
        "delta_pol": "birefringence", "delta_parity": "parity_birefringence",
        "delta_parity_dispersion": "birefringence", "segments": "segments",
    },
    PumpSpec: {"center_wavelength_nm": "positive",
               "intensity_fwhm_nm": "positive", "transverse_state": "lp11"},
    SpectralGrid: {"lambda_s_nm": "interval", "lambda_i_nm": "interval",
                   "points_s": "two_or_more", "points_i": "two_or_more"},
    SpectralWindow: {"lambda_s_nm": "interval", "lambda_i_nm": "interval"},
    TomographyConfig: {"counts_scale": "counts_scale",
                       "n_samples": "samples"},
    # the entries of the input documents
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
    # odd minus even LP11 index: the odd parity is the slower one
    "parity_birefringence": ("birefringence", lambda v: v >= 0,
                             "must be >= 0 (odd LP11 is slower)"),
    "positive": (float, lambda v: v > 0, "must be > 0"),
    "aperture": (float, lambda v: 0 < v < 1, "must be in (0, 1)"),
    # a fiber segment, in m: 1 km is four orders of magnitude above the
    # paper's 10 cm and covers every length a sweep would probe, while
    # 0.5 dk L, the phase of a segment, stays far below where it overflows
    "segment_length": (float, lambda v: 0 < v <= 1000.0,
                       "must be in (0, 1000] m"),
    "segments": ([("segment_length", bool)], lambda v: len(v) >= 1,
                 "must list at least one segment"),
    # a lobe width: its square divides the Gaussian's exponent
    "sigma": ("positive", lambda v: 0 < v * v < math.inf,
              "must have a finite, nonzero square"),
    "counts_scale": (float, lambda v: 0 < v <= MAX_COUNT,
                     "must be in (0, 2^53]"),
    "coincidences": (float, lambda v: 0 <= v <= MAX_COUNT,
                     "must be in [0, 2^53]"),
    "basis": ((str,) * 4, lambda v: v == BASIS_LABELS,
              f"must be {list(BASIS_LABELS)}"),
    # every modelled channel is pumped in LP11: an LP01 part goes unused
    "lp11": ("state", lambda v: v.amplitude("g") == 0,
             "must have no g (LP01) amplitude, as every channel is LP11"),
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
