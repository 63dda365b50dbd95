"""The input contract: defaults stated once, every value of the config
and of the input documents checked in one converter, and every malformed
number ending in exit code 2 (config) or 3 (document)."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwmpairs.cli import main
from fwmpairs.config import (MAX_BOOTSTRAP_SAMPLES, MAX_GRID_POINTS, SCHEMA,
                             FiberSpec, PipelineConfig, PumpSpec, SpectralGrid,
                             SpectralWindow, TomographyConfig, convert)
from fwmpairs.errors import ConfigError
from fwmpairs.gridio import density_to_json, write_grid_csv, write_json
from fwmpairs.pipeline import Simulation

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
    # past 1 km: the segment phase 0.5 dk L overflowed at 1e308 m
    "segment_length_1e308_simulate": (
        {"fiber": {"segments": [[1e308, False]]}}, "simulate-jsi",
        "config.fiber.segments[0][0]"),
    "segment_length_1e308_estimate": (
        {"fiber": {"segments": [[1e308, False]]}}, "estimate-rho",
        "config.fiber.segments[0][0]"),
    "pump_fwhm_inf": ({"pump": {"intensity_fwhm_nm": INF}}, "overlaps",
                      "config.pump.intensity_fwhm_nm"),
    "pump_amplitude_nan": (
        {"pump": {"transverse_state": {"e": [NAN, 0.0], "o": [1.0, 0.0]}}},
        "overlaps", "config.pump.transverse_state.e[0]"),
    "pump_state_unknown_mode": (
        {"pump": {"transverse_state": {"x": [1.0, 0.0]}}}, "overlaps",
        "config.pump.transverse_state"),
    # every modelled channel is pumped in LP11 {e, o}: an LP01 part was
    # dropped without a word, and a pure LP01 pump exited 3
    "pump_state_with_g": (
        {"pump": {"transverse_state": {"g": [0.6, 0.0], "e": [0.8, 0.0]}}},
        "simulate-jsi", "config.pump.transverse_state"),
    "pump_state_g": ({"pump": {"transverse_state": "g"}}, "simulate-jsi",
                     "config.pump.transverse_state"),
    "grid_band_nan": ({"grid": {"lambda_s_nm": [NAN, 700.0]}},
                      "simulate-jsi", "config.grid.lambda_s_nm[0]"),
    "window_inf": ({"windows": [dict(WINDOW, lambda_s_nm=[673.0, INF])]},
                   "estimate-rho", "config.windows[0].lambda_s_nm[1]"),
    # k_nl, seed_scan, fiber.core_model, threads, output_dir,
    # tomography.seed, delta_sweep and contour_level are no longer keys:
    # rejected as unknown, whatever their value
    "k_nl_nan": ({"k_nl": NAN}, "overlaps", "config.k_nl"),
    "threads_one": ({"threads": 1}, "overlaps", "config.threads"),
    "seed_scan_minus_inf": ({"seed_scan": {"lambda_i_nm": [-INF, 576.0]}},
                            "modes", "config.seed_scan"),
    "core_model_ge_doped": ({"fiber": {"core_model": "ge_doped"}},
                            "overlaps", "config.fiber.core_model"),
    "delta_sweep_nan": ({"delta_sweep": [0.0, NAN]}, "sweep-delta",
                        "config.delta_sweep"),
    "output_dir_elsewhere": ({"output_dir": "elsewhere"}, "overlaps",
                             "config.output_dir"),
    "tomography_seed_7": ({"tomography": {"seed": 7}}, "qst-simulate",
                          "config.tomography.seed"),
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
                          "config.delta_sweep"),
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
    # the rules of one field, each a kind that names its key and value
    "core_radius_zero": ({"fiber": {"core_radius_um": 0.0}}, "overlaps",
                         "config.fiber.core_radius_um"),
    "numerical_aperture_1_5": ({"fiber": {"numerical_aperture": 1.5}},
                               "overlaps", "config.fiber.numerical_aperture"),
    "delta_parity_negative": ({"fiber": {"delta_parity": -1e-4}},
                              "overlaps", "config.fiber.delta_parity"),
    "segments_empty": ({"fiber": {"segments": []}}, "overlaps",
                       "config.fiber.segments"),
    "pump_wavelength_zero": ({"pump": {"center_wavelength_nm": 0.0}},
                             "overlaps", "config.pump.center_wavelength_nm"),
    "pump_fwhm_negative": ({"pump": {"intensity_fwhm_nm": -1.0}},
                           "overlaps", "config.pump.intensity_fwhm_nm"),
    "points_s_one": ({"grid": {"points_s": 1}}, "simulate-jsi",
                     "config.grid.points_s"),
    "points_i_one": ({"grid": {"points_i": 1}}, "simulate-jsi",
                     "config.grid.points_i"),
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


# the config's records: PipelineConfig and the sections it holds, not the
# document entries that SCHEMA also lists
CONFIG_RECORDS = {PipelineConfig} | {
    typ[0] if isinstance(typ, list) else typ
    for typ in SCHEMA[PipelineConfig].values()}
KEYS = [(cls, key) for cls, keys in SCHEMA.items() for key in keys
        if cls in CONFIG_RECORDS]
BOUNDARY_VALUES = [0, -1, 0.5, NAN, INF, -INF, 1e308, 2**64, True, False,
                   "", "d", None, 5e-324, 1e-300]
BOUNDARY = st.sampled_from(BOUNDARY_VALUES)
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


# the commands that read each config record, on a 21 x 21 grid
SECTION_COMMANDS = {PipelineConfig: ("overlaps",),
                    FiberSpec: ("overlaps", "modes"), PumpSpec: ("overlaps",),
                    SpectralGrid: ("simulate-jsi",),
                    SpectralWindow: ("estimate-rho",),
                    TomographyConfig: ("qst-simulate",)}
SMALL_GRID = {"points_s": 21, "points_i": 21}


def assert_clean_run(argv, out, codes=(0, 2, 3, 4)):
    """Run ``argv`` through ``cli.main``: an exit code in ``codes``, no
    traceback, no RuntimeWarning and, on exit 0, no NaN or infinity in a
    JSON, CSV or SVG output."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([str(a) for a in argv])
    assert code in codes, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 0:
        for output in out.iterdir():
            text = output.read_text(encoding="utf-8", errors="replace")
            if output.suffix == ".json":
                assert _finite_values(json.loads(text)), output.name
            elif output.suffix in (".csv", ".svg"):
                assert not re.search(r"\b(nan|inf)\b", text,
                                     re.I), output.name
    return code


def _leaf_paths(value, path=()):
    if isinstance(value, (list, tuple)):
        for k, item in enumerate(value):
            yield from _leaf_paths(item, path + (k,))
    else:
        yield path


def _key_values(cls, key, value):
    """``value`` as the value of ``key``, and in place of each item of
    the key's default array: an interval's ends, a segment's length and
    its flag."""
    yield value
    default = WINDOW[key] if cls is SpectralWindow else getattr(cls(), key)
    if isinstance(default, (list, tuple)):
        default = json.loads(json.dumps(default))
        for path in _leaf_paths(default):
            yield _set(default, path, value)


def test_config_boundary_values_through_every_reading_command(tmp_path):
    rho = tmp_path / "rho.json"
    write_json(rho, density_to_json(np.diag([0.5, 0.0, 0.0, 0.5])))
    codes = []
    for (cls, key), boundary in itertools.product(KEYS, BOUNDARY_VALUES):
        for value in _key_values(cls, key, boundary):
            doc = _nest(cls, key, value)
            grid = doc.get("grid", {})
            if isinstance(grid, dict):
                doc["grid"] = dict(SMALL_GRID, **grid)
            config = tmp_path / "config.json"
            config.write_text(json.dumps(doc), encoding="utf-8")
            for command in SECTION_COMMANDS[cls]:
                out = tmp_path / f"out{len(codes)}"
                extra = {"qst-simulate": ["--rho", rho]}.get(command, [])
                codes.append(assert_clean_run(
                    [command, "--config", config, "--out", out, *extra], out))
    # the walk reaches every outcome: a finished run, a config error and
    # a refused model
    assert {0, 2, 3} <= set(codes)


def test_nested_boundary_values_are_config_errors():
    for doc in ({"fiber": {"segments": [[1e308, False], [NAN, True]]}},
                {"grid": {"points_s": 2.0}},
                {"tomography": {"counts_scale": 2**1100}}):
        with pytest.raises(ConfigError):
            PipelineConfig.parse(doc)


def test_birefringence_bound_is_inclusive():
    fiber = {"delta_pol": -1e-2, "delta_parity": 1e-2,
             "delta_parity_dispersion": -1e-2}
    PipelineConfig.parse({"fiber": fiber})
    convert([-1e-2, 1e-2], ["birefringence"], "--deltas")
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
# every input document field under boundary values

LOBE = {"center_s_nm": 677.0, "center_i_nm": 571.0, "sigma_major_nm": 1.0,
        "sigma_minor_nm": 0.3, "orientation_rad": 0.4, "amplitude": 1.0,
        "r_squared": None, "process_label": "B"}
# document -> (command, its flag, a valid document)
DOCUMENTS = {
    "counts": ("qst-reconstruct", "--counts", {"n0": 100, "records": [
        {"signal_basis": s, "idler_basis": i, "counts": 5}
        for s in "eodarl" for i in "eodarl"]}),
    "density": ("compare", "--rho-a",
                density_to_json(np.diag([0.5, 0.0, 0.0, 0.5]))),
    "lobes": ("render", "--lobes-json",
              {"lobes": [LOBE, dict(LOBE, center_i_nm=573.0,
                                    process_label="C")]}),
}
# (document, path of the field set to the boundary value)
FIELDS = [("counts", ()), ("counts", ("n0",)), ("counts", ("records",)),
          ("counts", ("records", 0)), ("counts", ("records", 35, "counts")),
          ("counts", ("records", 7, "counts")),
          ("counts", ("records", 7, "signal_basis")),
          ("counts", ("records", 7, "idler_basis")),
          ("density", ()), ("density", ("basis",)), ("density", ("basis", 2)),
          ("density", ("matrix",)), ("density", ("matrix", 1)),
          ("density", ("matrix", 0, 3)), ("density", ("matrix", 0, 0, 0)),
          ("density", ("matrix", 3, 0, 1)), ("density", ("matrix", 2, 2, 0)),
          ("lobes", ()), ("lobes", ("lobes",)), ("lobes", ("lobes", 1)),
          *(("lobes", ("lobes", 1, key)) for key in LOBE)]
DOCUMENT_VALUES = st.sampled_from(BOUNDARY_VALUES + [2.0**53])


def _set(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _finite_values(obj):
    if isinstance(obj, dict):
        return all(_finite_values(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_values(v) for v in obj)
    return obj is not None and (not isinstance(obj, float)
                                or math.isfinite(obj))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), DOCUMENT_VALUES, st.sampled_from([2, 3]))
def test_document_boundary_values_exit_0_or_3(field, value, n_samples):
    name, path = field
    command, flag, valid = DOCUMENTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.json"
        config.write_text(json.dumps(
            {"tomography": {"n_samples": n_samples}}), encoding="utf-8")
        doc = tmp / f"{name}.json"
        doc.write_text(json.dumps(_set(valid, path, value)),
                       encoding="utf-8")
        grid = tmp / "grid.csv"
        write_grid_csv(grid, np.linspace(670.0, 700.0, 31),
                       np.linspace(567.0, 576.0, 31), np.ones((31, 31)))
        rho_b = tmp / "rho_b.json"
        write_json(rho_b, DOCUMENTS["density"][2])
        out = tmp / "out"
        extra = {"render": ["--input", grid],
                 "compare": ["--rho-b", rho_b]}.get(command, [])
        assert_clean_run([command, "--config", config, "--out", out, flag,
                          doc, *extra], out, codes=(0, 3))


# ---------------------------------------------------------------------------
# malformed grid CSVs through render and fit-lobes


def _grid_text(ls, li, values, newline="\n"):
    rows = [["lambda_s\\lambda_i", *li]]
    rows += [[s, *row] for s, row in zip(ls, values)]
    return newline.join(",".join(map(str, row)) for row in rows) + newline


def grid_csvs():
    """Grid CSV contents by name: malformed ones, and the 41 x 41 model
    JSI with CRLF line ends and scaled by 2^-1000 and 2^1000."""
    jsi = Simulation(PipelineConfig.parse(
        {"grid": {"points_s": 41, "points_i": 41}})).jsi()
    axes = (jsi.lambda_s_axis.tolist(), jsi.lambda_i_axis.tolist())
    ones = np.ones((2, 2)).tolist()
    return {
        "ragged": "h,567.0,576.0\n670.0,1.0\n700.0,1.0,1.0\n",
        "non_numeric": "h,567.0,576.0\n670.0,1.0,x\n700.0,1.0,1.0\n",
        "subnormal_axis": _grid_text([670.0, 700.0], [5e-324, 1e-323], ones),
        "huge_axis": _grid_text([670.0, 700.0], [1e308, 1.7e308], ones),
        "span_past_float_range": _grid_text([-1.7e308, 1.7e308],
                                            [567.0, 576.0], ones),
        "one_row": "h,567.0,576.0\n670.0,1.0,1.0\n",
        "empty": "",
        "non_utf8": b"h,567.0,576.0\n670.0,1.0,\xff\n700.0,1.0,1.0\n",
        "jsi_crlf": _grid_text(*axes, jsi.combined.tolist(), "\r\n"),
        "jsi": _grid_text(*axes, jsi.combined.tolist()),
        **{f"jsi_2^{k}": _grid_text(*axes, np.ldexp(jsi.combined, k).tolist())
           for k in (-1000, 1000)},
    }


def test_grid_csvs_through_render_and_fit_lobes(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"points_s": 41, "points_i": 41}}),
                      encoding="utf-8")
    centers = {}
    for name, content in grid_csvs().items():
        path = tmp_path / f"{name}.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8", newline="")
        # the model JSI, however scaled, is a valid grid with four lobes
        codes = (0,) if name.startswith("jsi") else (0, 2, 3, 4)
        for command in ("render", "fit-lobes"):
            out = tmp_path / f"{command}_{name}"
            assert_clean_run([command, "--config", config, "--out", out,
                              "--input", path], out, codes)
        if name.startswith("jsi"):
            doc = json.loads((out / "lobes.json").read_text(encoding="utf-8"))
            centers[name] = [(lb["center_s_nm"], lb["center_i_nm"])
                             for lb in doc["lobes"]]
    # the fit does not depend on the intensity scale or the line ends
    assert len(centers["jsi"]) == 4
    for name in ("jsi_crlf", "jsi_2^-1000", "jsi_2^1000"):
        assert centers[name] == centers["jsi"], name


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
