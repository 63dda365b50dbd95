"""The config schema: defaults stated once, every value checked in one
converter, and every malformed number ending in exit code 2."""

import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwmpairs.cli import main
from fwmpairs.config import SCHEMA, PipelineConfig
from fwmpairs.errors import ConfigError
from fwmpairs.gridio import density_to_json, write_grid_csv, write_json
from fwmpairs.spectrum import MAX_GRID_POINTS
from fwmpairs.tomography import MAX_BOOTSTRAP_SAMPLES

NAN, INF = float("nan"), float("inf")
README = Path(__file__).resolve().parents[1] / "README.md"
WINDOW = {"lambda_s_nm": [673.0, 681.0], "lambda_i_nm": [567.5, 574.5]}


# ---------------------------------------------------------------------------
# probe table: (config, command, key path named in the message)

PROBES = {
    "delta_parity_nan": ({"fiber": {"delta_parity": NAN}}, "overlaps",
                         "config.fiber.delta_parity"),
    "core_radius_inf": ({"fiber": {"core_radius_um": INF}}, "overlaps",
                        "config.fiber.core_radius_um"),
    "segment_length_inf": ({"fiber": {"segments": [[INF, False]]}},
                           "overlaps", "config.fiber.segments[0][0]"),
    "pump_fwhm_inf": ({"pump": {"intensity_fwhm_nm": INF}}, "overlaps",
                      "config.pump.intensity_fwhm_nm"),
    "pump_amplitude_nan": (
        {"pump": {"transverse_state": {"e": [NAN, 0.0], "o": [1.0, 0.0]}}},
        "overlaps", "config.pump.transverse_state.e[0]"),
    "grid_band_nan": ({"grid": {"lambda_s_nm": [NAN, 700.0]}},
                      "simulate-jsi", "config.grid.lambda_s_nm[0]"),
    "window_inf": ({"windows": [dict(WINDOW, lambda_s_nm=[673.0, INF])]},
                   "estimate-rho", "config.windows[0].lambda_s_nm[1]"),
    "seed_scan_minus_inf": ({"seed_scan": {"lambda_i_nm": [-INF, 576.0]}},
                            "modes", "config.seed_scan.lambda_i_nm[0]"),
    # k_nl is no longer a key: rejected as unknown, whatever its value
    "k_nl_nan": ({"k_nl": NAN}, "overlaps", "config.k_nl"),
    "delta_sweep_nan": ({"delta_sweep": [0.0, NAN]}, "sweep-delta",
                        "config.delta_sweep[1]"),
    # birefringences past 1e-2, about the core-cladding index step
    "delta_parity_1e308": ({"fiber": {"delta_parity": 1e308}}, "overlaps",
                           "config.fiber.delta_parity"),
    "delta_parity_half": ({"fiber": {"delta_parity": 0.5}}, "overlaps",
                          "config.fiber.delta_parity"),
    "delta_parity_dispersion_minus_1e308": (
        {"fiber": {"delta_parity_dispersion": -1e308}}, "overlaps",
        "config.fiber.delta_parity_dispersion"),
    "delta_pol_1e308": ({"fiber": {"delta_pol": 1e308}}, "overlaps",
                        "config.fiber.delta_pol"),
    "delta_sweep_1e308": ({"delta_sweep": [0.0, 1e308]}, "sweep-delta",
                          "config.delta_sweep[1]"),
    "center_band_descending": ({"center_band_nm": [580.0, 540.0]},
                               "overlaps", "config.center_band_nm"),
    "center_band_nan": ({"center_band_nm": [NAN, 580.0]}, "overlaps",
                        "config.center_band_nm[0]"),
    "contour_level_bogus": ({"contour_level": "bogus"}, "render",
                            "config.contour_level"),
    "counts_scale_1e308": ({"tomography": {"counts_scale": 1e308}},
                           "qst-simulate", "config.tomography.counts_scale"),
    "counts_scale_negative": ({"tomography": {"counts_scale": -1}},
                              "qst-simulate",
                              "config.tomography.counts_scale"),
    "n_samples_one": ({"tomography": {"n_samples": 1}}, "qst-reconstruct",
                      "config.tomography.n_samples"),
    # past the memory bounds; overlaps itself would allocate neither
    "grid_points_over_bound": (
        {"grid": {"points_s": 100_000, "points_i": 100_000}}, "overlaps",
        "config.grid"),
    "n_samples_over_bound": ({"tomography": {"n_samples": 10**6}},
                             "overlaps", "config.tomography.n_samples"),
}


def command_inputs(tmp_path, command):
    """The input flags ``command`` needs, with small valid inputs."""
    if command == "render":
        grid = tmp_path / "grid.csv"
        write_grid_csv(grid, [670.0, 671.0], [567.0, 568.0],
                       np.ones((2, 2)))
        return ["--input", grid]
    if command == "qst-simulate":
        rho = tmp_path / "rho.json"
        write_json(rho, density_to_json(np.diag([0.5, 0.0, 0.0, 0.5])))
        return ["--rho", rho]
    if command == "qst-reconstruct":
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"n0": 100, "records": [
            {"signal_basis": s, "idler_basis": i, "counts": 5}
            for s in "eodarl" for i in "eodarl"]}), encoding="utf-8")
        return ["--counts", counts]
    return []


@pytest.mark.parametrize("name", sorted(PROBES))
def test_malformed_config_number_exit_code(tmp_path, capsys, name):
    doc, command, where = PROBES[name]
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    grid = {"points_s": 41, "points_i": 41, **doc.get("grid", {})}
    config.write_text(json.dumps(dict(doc, grid=grid)), encoding="utf-8")
    argv = [command, "--config", config, "--out", out,
            *command_inputs(tmp_path, command)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"configuration error: {where}:" in err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (out / "manifest.json").exists()


# ---------------------------------------------------------------------------
# every schema key under boundary values


def _nest(cls, key, value):
    """A config document that sets ``key`` of section ``cls``."""
    if cls is PipelineConfig:
        return {key: value}
    for top, typ in SCHEMA[PipelineConfig].items():
        if typ is cls:
            return {top: {key: value}}
        if typ == [cls]:
            return {top: [dict(WINDOW, **{key: value})]}
    raise AssertionError(cls)


KEYS = [(cls, key) for cls, keys in SCHEMA.items() for key in keys]
BOUNDARY = st.sampled_from([0, -1, 0.5, NAN, INF, -INF, 1e308, 2**64, True,
                            False, "", "d", "1/e3", None])
VALUES = st.recursive(
    BOUNDARY,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["e", "o", "x"]),
                                     inner, max_size=2)),
    max_leaves=6)


def _walk(obj):
    yield obj
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name != "raw":
                yield from _walk(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _walk(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _walk(v)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(KEYS), VALUES)
def test_parse_gives_finite_config_or_config_error(key, value):
    try:
        cfg = PipelineConfig.parse(_nest(*key, value))
    except ConfigError:
        return
    for node in _walk(cfg):
        if isinstance(node, (float, complex)):
            assert np.isfinite(node)
        for name, typ in SCHEMA.get(type(node), {}).items():
            if typ == "interval":
                low, high = getattr(node, name)
                assert low < high


def test_nested_boundary_values_are_config_errors():
    for doc in ({"fiber": {"segments": [[1e308, False], [NAN, True]]}},
                {"grid": {"points_s": 2.0}},
                {"tomography": {"counts_scale": 2**1100}},
                {"expected_lobes": 0},
                {"threads": True}):
        with pytest.raises(ConfigError):
            PipelineConfig.parse(doc)


def test_birefringence_bound_is_inclusive():
    fiber = {"delta_pol": -1e-2, "delta_parity": 1e-2,
             "delta_parity_dispersion": -1e-2}
    PipelineConfig.parse({"fiber": fiber, "delta_sweep": [-1e-2, 1e-2]})
    for key in fiber:
        with pytest.raises(ConfigError, match=f"config.fiber.{key}: must be "
                                              r"within \[-0\.01, 0\.01\]"):
            PipelineConfig.parse({"fiber": {key: 0.0100000001}})


def test_size_bounds_are_inclusive():
    side = math.isqrt(MAX_GRID_POINTS)
    PipelineConfig.parse({"grid": {"points_s": side, "points_i": side},
                          "tomography": {"n_samples": MAX_BOOTSTRAP_SAMPLES}})
    for doc in ({"grid": {"points_s": side, "points_i": side + 1}},
                {"tomography": {"n_samples": MAX_BOOTSTRAP_SAMPLES + 1}}):
        with pytest.raises(ConfigError):
            PipelineConfig.parse(doc)


def test_extreme_amplitudes_normalize():
    for amps in ({"e": [1e308, 1e308]}, {"o": [1e-320, 0.0]}):
        cfg = PipelineConfig.parse({"pump": {"transverse_state": amps}})
        norm = math.hypot(*(x for v in
                            cfg.pump.transverse_state.amplitudes.values()
                            for x in (v.real, v.imag)))
        assert norm == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the README's config block is the default config


def readme_config_block() -> dict:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Configuration"):]
    return json.loads(re.search(r"```json\n(.*?)```", section, re.S)[1])


def test_readme_config_block_states_the_defaults():
    doc = readme_config_block()
    assert set(doc) == set(SCHEMA[PipelineConfig])
    documented = PipelineConfig.parse(doc)
    default = PipelineConfig.parse({})
    for f in dataclasses.fields(PipelineConfig):
        if f.name not in ("windows", "raw"):
            assert getattr(documented, f.name) == getattr(default, f.name), (
                f.name)
