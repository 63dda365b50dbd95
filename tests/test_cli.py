import json
import warnings

import numpy as np
import pytest

from fwmpairs.cli import main
from fwmpairs.config import PipelineConfig, load_config
from fwmpairs.errors import ConfigError, GridFormatError
from fwmpairs.gridio import load_grid_csv, write_grid_csv, load_density
from fwmpairs.spectrum import GaussianLobe

from conftest import MEASURED_CENTERS

BASE_CONFIG = {
    "fiber": {"segments": [[0.10, False]]},
    "pump": {},
    "grid": {"points_s": 161, "points_i": 161},
    "windows": [{"lambda_s_nm": [673.0, 681.0],
                 "lambda_i_nm": [567.5, 574.5]}],
    "tomography": {"counts_scale": 2000, "n_samples": 12, "seed": 42},
    "output_dir": "out",
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    cfg = dict(BASE_CONFIG)
    cfg["output_dir"] = str(tmp_path / "out")
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# config parsing


def test_unknown_keys_rejected_with_location(tmp_path):
    with pytest.raises(ConfigError, match=r"config\.pump\.fwhm"):
        PipelineConfig.parse({"pump": {"fwhm": 1.0}})
    with pytest.raises(ConfigError, match=r"config\.windows\[0\]"):
        PipelineConfig.parse({"windows": [{"lambda_s_nm": [1, 2]}]})


def test_config_type_errors_carry_paths():
    with pytest.raises(ConfigError, match=r"config\.grid\.points_s"):
        PipelineConfig.parse({"grid": {"points_s": "many"}})
    with pytest.raises(ConfigError, match=r"segments\[0\]"):
        PipelineConfig.parse({"fiber": {"segments": [[0.1]]}})


def test_config_round_trip_semantics(tmp_path, config_path):
    cfg = load_config(config_path)
    again = PipelineConfig.parse(cfg.raw)
    assert again.fiber == cfg.fiber
    assert again.pump == cfg.pump
    assert again.grid == cfg.grid
    assert again.windows == cfg.windows


def test_named_and_explicit_states_agree():
    named = PipelineConfig.parse({"pump": {"transverse_state": "d"}})
    s = 1.0 / np.sqrt(2.0)
    explicit = PipelineConfig.parse(
        {"pump": {"transverse_state": {"e": [s, 0.0], "o": [s, 0.0]}}})
    assert named.pump.transverse_state.amplitudes == \
        explicit.pump.transverse_state.amplitudes


# ---------------------------------------------------------------------------
# grid CSV round trip and validation


def test_grid_csv_round_trip(tmp_path):
    ls = np.linspace(670.0, 700.0, 31)
    li = np.linspace(567.0, 576.0, 19)
    grid = np.outer(np.linspace(0, 1, 31), np.linspace(1, 2, 19))
    path = tmp_path / "grid.csv"
    write_grid_csv(path, ls, li, grid)
    ls2, li2, grid2 = load_grid_csv(path)
    assert np.array_equal(ls, ls2)
    assert np.array_equal(li, li2)
    assert np.array_equal(grid, grid2)


def test_grid_csv_negative_cell_named(tmp_path):
    path = tmp_path / "bad.csv"
    write_grid_csv(path, [1.0, 2.0], [1.0, 2.0],
                   np.array([[0.0, 1.0], [2.0, 3.0]]))
    text = path.read_text().replace("2.0", "-2.0")
    path.write_text(text)
    with pytest.raises(GridFormatError, match=r"row 2, col 1"):
        load_grid_csv(path)


def test_grid_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("h,1.0,2.0\n3.0,1.0\n", encoding="utf-8")
    with pytest.raises(GridFormatError, match="row 1"):
        load_grid_csv(path)


def test_grid_csv_nonuniform_axis(tmp_path):
    path = tmp_path / "warp.csv"
    path.write_text("h,1.0,2.0,3.5\n5.0,1.0,1.0,1.0\n6.0,1.0,1.0,1.0\n",
                    encoding="utf-8")
    with pytest.raises(GridFormatError, match="non-uniform"):
        load_grid_csv(path)


def test_grid_csv_non_monotone_axis(tmp_path):
    path = tmp_path / "rev.csv"
    path.write_text("h,2.0,1.0\n5.0,1.0,1.0\n6.0,1.0,1.0\n",
                    encoding="utf-8")
    with pytest.raises(GridFormatError, match="increasing"):
        load_grid_csv(path)


# ---------------------------------------------------------------------------
# commands end to end


def test_simulate_jsi_outputs_and_determinism(tmp_path, config_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["simulate-jsi", "--config", config_path, "--out", out1]) == 0
    assert run(["simulate-jsi", "--config", config_path, "--out", out2]) == 0
    names = ["jsi.csv", "jsi_meta.json", "lobes.json", "lobe_centers.csv",
             "jsi.pgm", "jsi.ppm", "jsi.svg", "manifest.json"]
    for name in names:
        assert (out1 / name).exists(), name
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    manifest = json.loads((out1 / "manifest.json").read_text())
    listed = {entry["path"] for entry in manifest["outputs"]}
    produced = {p.name for p in out1.iterdir()} - {"manifest.json",
                                                   "timings.txt"}
    assert listed == produced


def test_simulate_jsi_lobe_ordering(tmp_path, config_path):
    out = tmp_path / "o"
    assert run(["simulate-jsi", "--config", config_path, "--out", out]) == 0
    rows = (out / "lobe_centers.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    proc_idx = header.index("process")
    li_idx = header.index("fitted_lambda_i_nm")
    order = [(row.split(",")[proc_idx], float(row.split(",")[li_idx]))
             for row in rows[1:]]
    assert [p for p, _ in order] == ["A", "B", "C", "D"]
    assert all(a[1] < b[1] for a, b in zip(order, order[1:]))


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"fiber": {"radius": 2}}', encoding="utf-8")
    assert run(["simulate-jsi", "--config", bad, "--out", tmp_path]) == 2


def test_missing_input_exit_code(tmp_path, config_path):
    assert run(["render", "--config", config_path, "--out", tmp_path,
                "--input", tmp_path / "nope.csv"]) == 4


def test_bad_grid_exit_code(tmp_path, config_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("h,1.0,2.0\n3.0,1.0\n", encoding="utf-8")
    assert run(["render", "--config", config_path, "--out", tmp_path,
                "--input", bad]) == 3


def test_non_json_document_exit_code(tmp_path, config_path, capsys):
    bad = tmp_path / "garbage.json"
    bad.write_text("not json {", encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", bad]) == 3
    assert run(["compare", "--config", config_path, "--out", tmp_path,
                "--rho-a", bad, "--rho-b", bad]) == 3
    assert "garbage.json: not a JSON document" in capsys.readouterr().err


def test_counts_missing_projector_exit_code(tmp_path, config_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({
        "n0": 100, "records": [{"signal_basis": "e", "idler_basis": "e",
                                "counts": 10}]}), encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", counts]) == 3
    err = capsys.readouterr().err
    assert "counts.json: no counts for projector eo" in err


def test_lobes_json_without_lobes_key_exit_code(tmp_path, config_path,
                                                capsys):
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, [670.0, 671.0], [567.0, 568.0], np.ones((2, 2)))
    lobes = tmp_path / "lobes.json"
    lobes.write_text(json.dumps({"r_squared": 1.0}), encoding="utf-8")
    assert run(["render", "--config", config_path, "--out", tmp_path,
                "--input", grid, "--lobes-json", lobes]) == 3
    assert "lobes.json: missing key 'lobes'" in capsys.readouterr().err


def test_grid_csv_non_finite_cells_named(tmp_path):
    path = tmp_path / "grid.csv"
    write_grid_csv(path, [1.0, 2.0], [1.0, 2.0],
                   np.array([[0.0, 1.0], [2.0, 3.0]]))
    good = path.read_text()
    for text, where in [(good.replace("3.0", "nan"), "row 2, col 2"),
                        (good.replace(",2.0\n", ",inf\n", 1), "row 0, col 2"),
                        (good.replace("\n2.0,", "\n-inf,"), "row 2, col 0")]:
        path.write_text(text)
        with pytest.raises(GridFormatError,
                           match=rf"non-finite value at \({where}\)"):
            load_grid_csv(path)


def test_non_finite_grid_cell_exit_code(tmp_path, config_path, capsys):
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, [670.0, 671.0], [567.0, 568.0], np.ones((2, 2)))
    grid.write_text(grid.read_text().replace("1.0\n", "nan\n", 1))
    assert run(["render", "--config", config_path, "--out", tmp_path,
                "--input", grid]) == 3
    assert "grid.csv: non-finite value at (row 1, col 2)" in (
        capsys.readouterr().err)


def test_oversized_grid_csv_exit_code(tmp_path, config_path, capsys):
    # 1025 x 1025 = 1 050 625 cells, past MAX_GRID_POINTS = 2^20; the size
    # is read from the header and the line count, before any value
    n = 1025
    grid = tmp_path / "grid.csv"
    axis = ",".join(repr(float(v)) for v in np.linspace(567.0, 576.0, n))
    rows = [f"{v!r}," + ",".join(["0"] * n)
            for v in np.linspace(670.0, 700.0, n).tolist()]
    grid.write_text("\n".join(["lambda_s_nm\\lambda_i_nm," + axis, *rows])
                    + "\n", encoding="utf-8")
    for command in ("render", "fit-lobes"):
        assert run([command, "--config", config_path, "--out",
                    tmp_path / command, "--input", grid]) == 3
        assert ("grid.csv: 1025 x 1025 grid has 1050625 cells, more than "
                "the 1048576 allowed") in capsys.readouterr().err


def test_density_matrix_entry_exit_code(tmp_path, config_path, capsys):
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"basis": ["ee", "eo", "oe", "oo"],
                               "matrix": [[1, 0]]}), encoding="utf-8")
    assert run(["compare", "--config", config_path, "--out", tmp_path,
                "--rho-a", rho, "--rho-b", rho]) == 3
    assert "rho.json: 'matrix' must be 4 rows of 4 entries" in (
        capsys.readouterr().err)
    rows = [[[0.25, 0.0]] * 4 for _ in range(4)]
    rows[2][1] = 7
    rho.write_text(json.dumps({"basis": ["ee", "eo", "oe", "oo"],
                               "matrix": rows}), encoding="utf-8")
    assert run(["compare", "--config", config_path, "--out", tmp_path,
                "--rho-a", rho, "--rho-b", rho]) == 3
    assert "rho.json: matrix[2][1]: expected a [re, im] pair" in (
        capsys.readouterr().err)
    rows[2][1] = [float("nan"), 0.0]
    rho.write_text(json.dumps({"basis": ["ee", "eo", "oe", "oo"],
                               "matrix": rows}), encoding="utf-8")
    assert run(["compare", "--config", config_path, "--out", tmp_path,
                "--rho-a", rho, "--rho-b", rho]) == 3
    assert "rho.json: matrix[2][1]: non-finite value" in (
        capsys.readouterr().err)


def test_counts_record_without_basis_exit_code(tmp_path, config_path,
                                               capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({
        "n0": 100, "records": [{"signal_basis": "e", "idler_basis": "e",
                                "counts": 10},
                               {"idler_basis": "o", "counts": 3}]}),
        encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", counts]) == 3
    err = capsys.readouterr().err
    assert "counts.json: records[1]: missing key 'signal_basis'" in err
    records = [{"signal_basis": s, "idler_basis": i, "counts": "many"}
               for s in "eodarl" for i in "eodarl"]
    counts.write_text(json.dumps({"n0": 100, "records": records}),
                      encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", counts]) == 3
    err = capsys.readouterr().err
    assert "counts.json: records[0]: counts must be a number" in err
    for rec in records:
        rec["counts"] = 5
    counts.write_text(json.dumps({"n0": "lots", "records": records}),
                      encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", counts]) == 3
    assert "counts.json: n0 must be a number" in capsys.readouterr().err


def all_projector_records(counts):
    return [{"signal_basis": s, "idler_basis": i, "counts": counts}
            for s in "eodarl" for i in "eodarl"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308])
def test_counts_bad_number_exit_code(tmp_path, config_path, capsys, bad):
    # non-finite, or above 2^53, where float64 counts stop being exact
    records = all_projector_records(5)
    records[7]["counts"] = bad
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"n0": 100, "records": records}),
                      encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", counts]) == 3
    err = capsys.readouterr().err
    assert ("counts.json: records[7]: counts must be finite, nonnegative "
            "and at most 2^53") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_counts_non_finite_n0_exit_code(tmp_path, config_path, capsys, bad):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"n0": bad,
                                  "records": all_projector_records(5)}),
                      encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", counts]) == 3
    assert "counts.json: n0 must be finite and > 0" in (
        capsys.readouterr().err)


def qst_simulate_mixture(tmp_path, config_path, *flags):
    from fwmpairs.gridio import density_to_json, write_json
    rho = tmp_path / "rho.json"
    write_json(rho, density_to_json(np.diag([0.5, 0.0, 0.0, 0.5])))
    return run(["qst-simulate", "--config", config_path, "--out",
                tmp_path / "qst", "--rho", rho, *flags])


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_flag_outside_u64_exit_code(tmp_path, config_path, capsys,
                                         seed):
    assert qst_simulate_mixture(tmp_path, config_path, "--seed", seed) == 2
    assert "--seed: must be in [0, 2^64)" in capsys.readouterr().err
    assert not (tmp_path / "qst" / "manifest.json").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_config_seed_outside_u64_exit_code(tmp_path, capsys, seed):
    cfg = dict(BASE_CONFIG, tomography={"seed": seed},
               output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert qst_simulate_mixture(tmp_path, path) == 2
    assert "config.tomography.seed: must be in [0, 2^64)" in (
        capsys.readouterr().err)


def test_seed_u64_bounds_accepted(tmp_path, config_path):
    for seed in (0, 2**64 - 1):
        assert qst_simulate_mixture(tmp_path, config_path, "--seed", seed) == 0
        doc = json.loads((tmp_path / "qst" / "counts.json").read_text())
        assert doc["seed"] == seed


def test_lobe_with_unknown_field_exit_code(tmp_path, config_path, capsys):
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, [670.0, 671.0], [567.0, 568.0], np.ones((2, 2)))
    lobe = {"center_s_nm": 670.5, "center_i_nm": 567.5,
            "sigma_major_nm": 1.0, "sigma_minor_nm": 0.3,
            "orientation_rad": 0.4, "amplitude": 1.0, "colour": "red"}
    lobes = tmp_path / "lobes.json"
    lobes.write_text(json.dumps({"lobes": [lobe]}), encoding="utf-8")
    assert run(["render", "--config", config_path, "--out", tmp_path,
                "--input", grid, "--lobes-json", lobes]) == 3
    assert "lobes.json: lobes[0]: unknown key 'colour'" in (
        capsys.readouterr().err)


def test_fit_lobes_leaving_the_grid_exit_code(tmp_path, config_path,
                                               centers, capsys):
    # one lobe at the model's D center plus 1 % noise, fitted as two: the
    # peel seeds the second lobe on noise, and that lobe leaves the grid,
    # to (675.345, 562.945) nm
    ls = np.linspace(670.0, 690.0, 81)
    li = np.linspace(565.0, 577.0, 61)
    cs, ci = centers["D"]
    lobe = GaussianLobe(center_s_nm=cs, center_i_nm=ci, sigma_major_nm=1.0,
                        sigma_minor_nm=0.4, orientation_rad=0.45,
                        amplitude=1.0)
    rng = np.random.default_rng(4)
    grid = tmp_path / "jsi.csv"
    write_grid_csv(grid, ls, li,
                   np.abs(lobe.evaluate(ls[:, None], li[None, :])
                          + 0.01 * rng.standard_normal((81, 61))))
    assert run(["fit-lobes", "--config", config_path, "--out", tmp_path,
                "--input", grid, "--lobes", 2]) == 3
    assert "moved a center off the grid" in capsys.readouterr().err


def test_fit_lobes_recovers_lobes_at_reference_centers(tmp_path,
                                                       config_path):
    # four lobes drawn around the measured centers, up to 1.6 nm from the
    # model's predicted centers, with 1 % noise on the default 301^2 grid;
    # a fit seeded at the predicted centers spread one lobe off the grid
    rng = np.random.default_rng([1800188482, 1])
    truth = [(cs + rng.uniform(-0.3, 0.3), ci + rng.uniform(-0.2, 0.2),
              rng.uniform(1.0, 1.2), rng.uniform(0.3, 0.4),
              rng.uniform(0.4, 0.5), rng.uniform(0.8, 2.0))
             for cs, ci in MEASURED_CENTERS.values()]
    ls = np.linspace(670.0, 700.0, 301)
    li = np.linspace(567.0, 576.0, 301)
    total = sum(GaussianLobe(*t).evaluate(ls[:, None], li[None, :])
                for t in truth)
    grid = tmp_path / "measured.csv"
    write_grid_csv(grid, ls, li, np.abs(
        total + 0.01 * total.max() * rng.standard_normal(total.shape)))
    out = tmp_path / "fit"
    assert run(["fit-lobes", "--config", config_path, "--out", out,
                "--input", grid]) == 0
    lobes = json.loads((out / "lobes.json").read_text())["lobes"]
    assert [lb["process_label"] for lb in lobes] == list("ABCD")
    for lb, (cs, ci, *_) in zip(lobes, truth):
        assert abs(lb["center_s_nm"] - cs) < 0.05
        assert abs(lb["center_i_nm"] - ci) < 0.05
        assert lb["amplitude"] > 0


@pytest.mark.parametrize("command, flag", [("fit-lobes", "--input"),
                                           ("estimate-rho", "--jsi-csv")])
def test_lobe_fit_with_no_center_in_band_exit_code(tmp_path, capsys,
                                                   command, flag):
    cfg = dict(BASE_CONFIG, grid={"lambda_s_nm": [670.0, 672.0],
                                  "lambda_i_nm": [574.0, 576.0]})
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    grid = tmp_path / "grid.csv"
    ls, li = np.linspace(670.0, 672.0, 21), np.linspace(574.0, 576.0, 21)
    write_grid_csv(grid, ls, li, np.ones((21, 21)))
    assert run([command, "--config", config, "--out", tmp_path / "o",
                flag, grid]) == 3
    assert "no phase-matched lobe inside the grid band" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flag", ["--threads", "--lobes"])
@pytest.mark.parametrize("value", [0, -3])
def test_count_flag_below_one_exit_code(tmp_path, config_path, capsys,
                                        flag, value):
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, [670.0, 671.0], [567.0, 568.0], np.ones((2, 2)))
    out = tmp_path / "fit"
    assert run(["fit-lobes", "--config", config_path, "--out", out,
                "--input", grid, flag, value]) == 2
    assert f"{flag}: must be >= 1" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["compare", "qst-simulate"])
@pytest.mark.parametrize("diagonal", [(0.25, 0.25, 0.25, 0.25),
                                      (1e308, -1e308, 0.5, 0.5)])
def test_density_entry_above_one_exit_code(tmp_path, config_path, capsys,
                                           command, diagonal):
    # Hermitian with trace 1, but with entries of 1e308, which no density
    # matrix has: a coherence pair, or two diagonal entries
    rows = [[[diagonal[r] if r == c else 0.0, 0.0] for c in range(4)]
            for r in range(4)]
    if diagonal[0] < 1:
        rows[0][1] = rows[1][0] = [1e308, 0.0]
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps({"basis": ["ee", "eo", "oe", "oo"],
                               "matrix": rows}), encoding="utf-8")
    args = (["--rho-a", rho, "--rho-b", rho] if command == "compare"
            else ["--rho", rho])
    assert run([command, "--config", config_path, "--out", tmp_path]
               + args) == 3
    err = capsys.readouterr().err
    assert "matrix entry of magnitude 1.000e+308 exceeds 1" in err


def test_sweep_delta_monotone(tmp_path, config_path):
    out = tmp_path / "sweep"
    assert run(["sweep-delta", "--config", config_path, "--out", out]) == 0
    rows = (out / "separations.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 3
    seps = [float(r.split(",")[-1]) for r in rows]
    assert seps[0] < seps[1] < seps[2]
    assert (out / "jsi_delta0.csv").exists()
    assert (out / "jsi_delta2.svg").exists()


@pytest.mark.parametrize("delta", ["0.01", "-0.01"])
def test_sweep_delta_unmatched_channel_exit_code(tmp_path, config_path,
                                                 capsys, delta):
    # at both ends of the birefringence bound B leaves the searched idler
    # band
    out = tmp_path / "sweep"
    assert run(["sweep-delta", "--config", config_path, "--out", out,
                "--deltas", delta]) == 3
    err = capsys.readouterr().err
    assert f"delta = {float(delta):g}: process B not phase matched" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, flag", [("sweep-delta", "--deltas"),
                                           ("modes", "--wavelength-nm")])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_number_flag_exit_code(tmp_path, config_path, capsys,
                                          command, flag, bad):
    out = tmp_path / "out"
    assert run([command, "--config", config_path, "--out", out,
                f"{flag}={bad}"]) == 2
    err = capsys.readouterr().err
    assert flag in err and "must be finite" in err
    assert not (out / "manifest.json").exists()


def test_deltas_flag_past_birefringence_bound_exit_code(tmp_path, config_path,
                                                       capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["sweep-delta", "--config", config_path, "--out", out,
                    "--deltas", "0.0", "1e308"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "configuration error: --deltas[1]: must be within" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, radius, lam", [
    ("overlaps", 1e9, "540 nm"), ("overlaps", 2.0, "540 nm"),
    ("modes", 1e9, "571.5 nm")])
def test_fiber_beyond_few_mode_exit_code(tmp_path, capsys, command, radius,
                                         lam):
    # V reaches 3.8317, where LP21 and LP02 are guided, at the shortest
    # wavelength the command uses: the centre band's 540 nm for overlaps
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        BASE_CONFIG, fiber={"core_radius_um": radius})), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([command, "--config", config, "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "fiber is not few-mode: V = " in err and f" at {lam} " in err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (out / "manifest.json").exists()


def test_estimate_rho_wide_window_metrics(tmp_path, config_path):
    out = tmp_path / "rho"
    assert run(["estimate-rho", "--config", config_path, "--out", out]) == 0
    doc = json.loads((out / "rho_se_w0.json").read_text())
    metrics = doc["metrics"]
    assert set(metrics) == {"concurrence", "bell_fidelity",
                            "bell_fidelity_unsquared", "purity"}
    rows = (out / "windows.csv").read_text().strip().split("\n")
    assert len(rows) == 2  # header + one configured window
    # density matrix entries are [re, im] pairs on the fixed basis
    assert doc["basis"] == ["ee", "eo", "oe", "oo"]
    rho = load_density(out / "rho_se_w0.json")
    assert rho.shape == (4, 4)


def test_estimate_rho_from_exported_grid(tmp_path, config_path):
    sim_out = tmp_path / "sim"
    assert run(["simulate-jsi", "--config", config_path,
                "--out", sim_out]) == 0
    out = tmp_path / "rho2"
    assert run(["estimate-rho", "--config", config_path, "--out", out,
                "--jsi-csv", sim_out / "jsi.csv"]) == 0
    doc = json.loads((out / "rho_se_w0.json").read_text())
    assert doc["source"] == "jsi_csv"


def test_qst_pipeline_end_to_end(tmp_path, config_path):
    rho_dir = tmp_path / "rho"
    assert run(["estimate-rho", "--config", config_path,
                "--out", rho_dir]) == 0
    qst_dir = tmp_path / "qst"
    assert run(["qst-simulate", "--config", config_path, "--out", qst_dir,
                "--rho", rho_dir / "rho_se_w0.json", "--seed", "5"]) == 0
    counts = json.loads((qst_dir / "counts.json").read_text())
    assert len(counts["records"]) == 36
    assert all(rec["counts"] >= 0 for rec in counts["records"])
    assert run(["qst-reconstruct", "--config", config_path, "--out", qst_dir,
                "--counts", qst_dir / "counts.json", "--seed", "5"]) == 0
    doc = json.loads((qst_dir / "rho_qst.json").read_text())
    assert doc["bootstrap"]["n_samples"] == 12
    assert set(doc["bootstrap"]["means"]) == {"concurrence", "bell_fidelity",
                                              "purity"}

    cmp_dir = tmp_path / "cmp"
    assert run(["compare", "--config", config_path, "--out", cmp_dir,
                "--rho-a", qst_dir / "rho_qst.json",
                "--rho-b", rho_dir / "rho_se_w0.json"]) == 0
    rep = json.loads((cmp_dir / "compare.json").read_text())
    assert rep["fidelity_squared"] > 0.95
    assert rep["fidelity_unsquared"] == pytest.approx(
        np.sqrt(rep["fidelity_squared"]))


def test_qst_reconstruct_same_on_one_and_two_threads(tmp_path, config_path):
    from fwmpairs.estimation import BELL_PHI_PLUS
    from fwmpairs.gridio import density_to_json, write_json
    from fwmpairs.tomography import DUAL_TOL, KKT_TOL
    bell = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
    rho_path = tmp_path / "rho.json"
    write_json(rho_path, density_to_json(0.8 * bell + 0.2 * np.eye(4) / 4))
    assert run(["qst-simulate", "--config", config_path, "--out", tmp_path,
                "--rho", rho_path, "--seed", "3"]) == 0
    docs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert run(["qst-reconstruct", "--config", config_path, "--out", out,
                    "--counts", tmp_path / "counts.json", "--seed", "3",
                    "--threads", threads]) == 0
        docs.append((out / "rho_qst.json").read_bytes())
    assert docs[0] == docs[1]
    doc = json.loads(docs[0])
    assert doc["converged"] is True
    assert 0.0 <= doc["kkt_residual"] <= KKT_TOL
    total = sum(rec["counts"] for rec in json.loads(
        (tmp_path / "counts.json").read_text())["records"])
    assert 0.0 <= doc["dual_gap"] <= DUAL_TOL * total
    assert doc["iterations"] > 0
    assert doc["bootstrap"]["unconverged"] == 0
    assert doc["bootstrap"]["failures"] == 0


def test_compare_self_identity(tmp_path, config_path):
    rho_dir = tmp_path / "rho"
    assert run(["estimate-rho", "--config", config_path,
                "--out", rho_dir]) == 0
    cmp_dir = tmp_path / "cmp"
    assert run(["compare", "--config", config_path, "--out", cmp_dir,
                "--rho-a", rho_dir / "rho_se_w0.json",
                "--rho-b", rho_dir / "rho_se_w0.json"]) == 0
    rep = json.loads((cmp_dir / "compare.json").read_text())
    assert rep["fidelity_squared"] == pytest.approx(1.0, abs=1e-9)
    assert rep["fidelity_unsquared"] == pytest.approx(1.0, abs=1e-9)


def test_qst_sampling_seed_determinism(tmp_path, config_path):
    rho_dir = tmp_path / "rho"
    assert run(["estimate-rho", "--config", config_path,
                "--out", rho_dir]) == 0
    outs = []
    for tag in ("q1", "q2"):
        d = tmp_path / tag
        assert run(["qst-simulate", "--config", config_path, "--out", d,
                    "--rho", rho_dir / "rho_se_w0.json", "--seed", "99"]) == 0
        outs.append((d / "counts.json").read_bytes())
    assert outs[0] == outs[1]


def test_render_constant_grid_uniform(tmp_path, config_path):
    path = tmp_path / "const.csv"
    ls = np.linspace(670.0, 680.0, 21)
    li = np.linspace(567.0, 571.0, 11)
    write_grid_csv(path, ls, li, np.full((21, 11), 3.0))
    out = tmp_path / "render"
    assert run(["render", "--config", config_path, "--out", out,
                "--input", path]) == 0
    pgm = (out / "const.pgm").read_bytes()
    header_end = pgm.index(b"255\n") + 4
    pixels = set(pgm[header_end:])
    assert pixels == {255}
    svg = (out / "const.svg").read_text()
    assert "ellipse" not in svg  # no contours without lobes


def test_modes_command_writes_images(tmp_path, config_path):
    out = tmp_path / "modes"
    assert run(["modes", "--config", config_path, "--out", out]) == 0
    for name in ("mode_g.pgm", "mode_e.pgm", "mode_o.pgm", "mode_d.pgm",
                 "mode_r.pgm", "mode_mix_eo.pgm"):
        assert (out / name).exists()
    donut = (out / "mode_r.pgm").read_bytes()
    mix = (out / "mode_mix_eo.pgm").read_bytes()
    assert donut == mix  # the classic ambiguity, pixel for pixel


def test_overlaps_command(tmp_path, config_path):
    out = tmp_path / "ov"
    assert run(["overlaps", "--config", config_path, "--out", out]) == 0
    doc = json.loads((out / "overlaps.json").read_text())
    by = {row["process"]: row for row in doc["processes"]}
    assert set(by) == {"A", "B", "C", "D", "E"}
    total = sum(row["overlap_sq"] for row in doc["processes"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_estimate_rho_from_labeled_lobes(tmp_path, config_path):
    # coincident equal B and C lobes: the estimator must report a
    # maximally entangled state through the lobe-input route
    lobes = {
        "r_squared": 1.0,
        "residual_norm": 0.0,
        "lobes": [
            {"center_s_nm": 677.0, "center_i_nm": 571.0,
             "sigma_major_nm": 0.5, "sigma_minor_nm": 0.5,
             "orientation_rad": 0.0, "amplitude": 1.0,
             "r_squared": 1.0, "process_label": "B"},
            {"center_s_nm": 677.0, "center_i_nm": 571.0,
             "sigma_major_nm": 0.5, "sigma_minor_nm": 0.5,
             "orientation_rad": 0.0, "amplitude": 1.0,
             "r_squared": 1.0, "process_label": "C"},
        ],
    }
    lobes_path = tmp_path / "lobes.json"
    lobes_path.write_text(json.dumps(lobes), encoding="utf-8")

    cfg = dict(BASE_CONFIG)
    cfg["windows"] = [
        {"lambda_s_nm": [675.0, 679.0], "lambda_i_nm": [569.0, 573.0]},
        {"lambda_s_nm": [676.0, 678.0], "lambda_i_nm": [570.0, 572.0]},
    ]
    cfg_path = tmp_path / "two_windows.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    out = tmp_path / "rho"
    assert run(["estimate-rho", "--config", cfg_path, "--out", out,
                "--lobes-json", lobes_path]) == 0
    rows = (out / "windows.csv").read_text().strip().split("\n")
    assert len(rows) == 3  # header + one row per window
    for k in (0, 1):
        doc = json.loads((out / f"rho_se_w{k}.json").read_text())
        assert doc["source"] == "lobes_json"
        assert doc["metrics"]["concurrence"] >= 0.999


def _degenerate_densities():
    from fwmpairs.estimation import PSD_TOL

    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    low = -(1.0 - 1e-6) * PSD_TOL  # just inside the validation limit
    return {
        "rank1": np.outer(q[:, 0], q[:, 0].conj()),
        "diagonal": np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex),
        "maximally_mixed": np.eye(4, dtype=complex) / 4.0,
        # rotated, so that no entry is zero
        "eigenvalue_at_minus_tol": (q * [0.6 - low, 0.3, 0.1, low])
        @ q.conj().T,
    }


@pytest.mark.parametrize("name_a", list(_degenerate_densities()))
def test_compare_degenerate_densities(tmp_path, config_path, name_a):
    from fwmpairs.gridio import density_to_json, write_json

    states = _degenerate_densities()
    for name, rho in states.items():
        write_json(tmp_path / f"{name}.json", density_to_json(rho))
    for name_b in states:
        out = tmp_path / f"cmp_{name_b}"
        assert run(["compare", "--config", config_path, "--out", out,
                    "--rho-a", tmp_path / f"{name_a}.json",
                    "--rho-b", tmp_path / f"{name_b}.json"]) == 0
        rep = json.loads((out / "compare.json").read_text())
        for key in ("fidelity_squared", "phase_blind_fidelity_squared"):
            assert 0.0 <= rep[key] <= 1.0
        if name_b == name_a:
            assert rep["fidelity_squared"] == pytest.approx(1.0, abs=1e-6)


def test_compare_phase_blind_uses_entrywise_magnitudes(tmp_path, config_path):
    from fwmpairs.gridio import density_to_json, write_json
    from fwmpairs.estimation import fidelity

    # rho_a carries a negative coherence; |rho_a| flips it positive
    rho_a = np.zeros((4, 4), dtype=complex)
    rho_a[0, 0] = rho_a[3, 3] = 0.5
    rho_a[0, 3] = rho_a[3, 0] = -0.45
    rho_b = np.zeros((4, 4), dtype=complex)
    rho_b[0, 0] = rho_b[3, 3] = 0.5
    rho_b[0, 3] = rho_b[3, 0] = 0.45
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    write_json(pa, density_to_json(rho_a))
    write_json(pb, density_to_json(rho_b))
    out = tmp_path / "cmp"
    assert run(["compare", "--config", config_path, "--out", out,
                "--rho-a", pa, "--rho-b", pb]) == 0
    rep = json.loads((out / "compare.json").read_text())
    # plain fidelity low (opposite phase), phase-blind recovers it
    assert rep["fidelity_squared"] < 0.2
    assert rep["phase_blind_fidelity_squared"] == pytest.approx(
        fidelity(np.abs(rho_a), rho_b), abs=1e-12)
    assert rep["phase_blind_fidelity_squared"] > 0.99
