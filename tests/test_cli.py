import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import fwmpairs
from fwmpairs import pipeline
from fwmpairs.cli import COMMANDS, main
from fwmpairs.config import PipelineConfig, load_config
from fwmpairs.errors import ConfigError, GridFormatError
from fwmpairs.gridio import load_grid_csv, write_grid_csv, load_density
from fwmpairs.config import GaussianLobe

from conftest import MEASURED_CENTERS

BASE_CONFIG = {
    "fiber": {"segments": [[0.10, False]]},
    "pump": {},
    "grid": {"points_s": 161, "points_i": 161},
    "windows": [{"lambda_s_nm": [673.0, 681.0],
                 "lambda_i_nm": [567.5, 574.5]}],
    "tomography": {"counts_scale": 2000, "n_samples": 12},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
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
             "manifest.json"]
    for name in names:
        assert (out1 / name).exists(), name
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    manifest = json.loads((out1 / "manifest.json").read_text())
    listed = {entry["path"] for entry in manifest["outputs"]}
    produced = {p.name for p in out1.iterdir()} - {"manifest.json",
                                                   "timings.txt"}
    assert listed == produced


def test_single_mode_pump_fits_one_lobe(tmp_path):
    # a pump in mode e excites C (e,e,e,e) alone: one lobe, labelled C
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"points_s": 121, "points_i": 121},
        "pump": {"transverse_state": "e"}}), encoding="utf-8")
    out = tmp_path / "o"
    assert run(["simulate-jsi", "--config", config, "--out", out]) == 0
    rows = (out / "lobe_centers.csv").read_text().strip().split("\n")
    assert [row.split(",")[0] for row in rows[1:]] == ["C"]
    lobes = json.loads((out / "lobes.json").read_text())["lobes"]
    assert [lb["process_label"] for lb in lobes] == ["C"]


def test_fit_lobes_labels_the_predicted_centers_on_its_grid(tmp_path):
    # the default JSI cropped to idler >= 570.6 nm holds the predicted C
    # and D centers alone, not those of A and B
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"points_s": 121,
                                           "points_i": 121}}),
                      encoding="utf-8")
    assert run(["simulate-jsi", "--config", config,
                "--out", tmp_path / "sim"]) == 0
    ls, li, values = load_grid_csv(tmp_path / "sim" / "jsi.csv")
    keep = li >= 570.6
    write_grid_csv(tmp_path / "crop.csv", ls, li[keep], values[:, keep])
    out = tmp_path / "fit"
    assert run(["fit-lobes", "--config", config, "--out", out,
                "--input", tmp_path / "crop.csv"]) == 0
    lobes = json.loads((out / "lobes.json").read_text())["lobes"]
    assert [lb["process_label"] for lb in lobes] == ["C", "D"]


def test_simulate_jsi_refuses_a_lobe_off_its_predicted_center(
        tmp_path, monkeypatch, capsys):
    # the lobes that a joint fit on the whole grid, with no coarse pass,
    # gave on the default 301^2 grid of the 15 + 15 mm cross-spliced
    # fiber: two near A, one on the merged B + C lobe, and D. In idler
    # order the second read as B, 2.7 nm from B's prediction; the nearest
    # assignment takes it as A and leaves the first to B
    from fwmpairs.spectrum import LobeFit
    fitted = [(683.585, 567.449), (682.481, 568.003), (678.879, 570.522),
              (675.423, 572.996)]

    def fit_lobes(lam_s, lam_i, intensity, n_lobes):
        assert n_lobes == len(fitted)
        return LobeFit(lobes=[GaussianLobe(cs, ci, 1.0, 0.3, 0.45, 1.0)
                              for cs, ci in fitted],
                       residual_norm=0.0, r_squared=0.9999, iterations=1)

    monkeypatch.setattr(pipeline, "fit_lobes", fit_lobes)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fiber": {
        "segments": [[0.015, False], [0.015, True]]}}), encoding="utf-8")
    out = tmp_path / "o"
    assert run(["simulate-jsi", "--config", config, "--out", out]) == 3
    assert ("error: fitted lobe at (683.585, 567.449) nm misses the "
            "predicted center (679.774, 569.889) nm of process B by more "
            "than 2 nm") in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


CROSS_SPLICED = {"segments": [[0.015, False], [0.015, True]]}


def simulate_cross_spliced(tmp_path, points):
    """``simulate-jsi`` on the 15 + 15 mm cross-spliced fiber on
    ``points``^2 nodes of the default band: the exit code, and the rows
    of ``lobe_centers.csv``."""
    config = tmp_path / f"cross_{points}.json"
    config.write_text(json.dumps({"fiber": CROSS_SPLICED, "grid": {
        "points_s": points, "points_i": points}}), encoding="utf-8")
    out = tmp_path / f"jsi_{points}"
    code = run(["simulate-jsi", "--config", config, "--out", out])
    if code:
        return code, []
    with open(out / "lobe_centers.csv", encoding="utf-8") as f:
        return code, list(csv.DictReader(f))


@pytest.mark.parametrize("points", [301, 501])
def test_simulate_jsi_labels_the_cross_spliced_lobes(tmp_path, points):
    # without the coarse pass and the peel's clamp, the joint fit walks
    # lobe C 3.6 nm to the A side at both sizes, and the command exits 3
    code, rows = simulate_cross_spliced(tmp_path, points)
    assert code == 0
    assert [row["process"] for row in rows] == list("ABCD")
    for row in rows:
        for axis in "si":
            assert abs(float(row[f"fitted_lambda_{axis}_nm"])
                       - float(row[f"predicted_lambda_{axis}_nm"])) <= 2.0


def test_lobe_route_concurrence_at_the_criterion_6_window(tmp_path):
    # the 1 nm window at the B-C crossing of the cross-spliced fiber,
    # from the lobes fitted at 301^2 and from the model's amplitudes.
    # The lobe route's Gaussians keep B and C almost indistinguishable
    # inside 1 nm (purity 0.9998 against 0.9752), so its concurrence is
    # the higher; the two must agree within criterion 6's +/- 0.10, or
    # the criterion's verdict would depend on the route
    code, rows = simulate_cross_spliced(tmp_path, 301)
    assert code == 0
    (bs, bi), (cs, ci) = ((float(row["predicted_lambda_s_nm"]),
                           float(row["predicted_lambda_i_nm"]))
                          for row in rows if row["process"] in "BC")
    mid_s, mid_i = (bs + cs) / 2, (bi + ci) / 2
    config = tmp_path / "window.json"
    config.write_text(json.dumps({"fiber": CROSS_SPLICED, "windows": [{
        "lambda_s_nm": [mid_s - 0.5, mid_s + 0.5],
        "lambda_i_nm": [mid_i - 0.5, mid_i + 0.5]}]}), encoding="utf-8")
    metrics = {}
    for route, extra in (("lobes_json", ["--lobes-json",
                                         tmp_path / "jsi_301" / "lobes.json"]),
                         ("simulation", [])):
        out = tmp_path / route
        assert run(["estimate-rho", "--config", config, "--out", out,
                    *extra]) == 0
        doc = json.loads((out / "rho_se_w0.json").read_text())
        assert doc["source"] == route
        metrics[route] = doc["metrics"]
    lobe, model = metrics["lobes_json"], metrics["simulation"]
    assert lobe["purity"] > model["purity"]
    assert abs(lobe["concurrence"] - model["concurrence"]) <= 0.10


def test_lobe_leaving_its_fine_nodes_exit_code(tmp_path, config_path,
                                               monkeypatch, capsys):
    # a fine pass that ends with its first lobe 2 nm off its coarse fit
    # in signal: the command names that lobe and exits 3
    from fwmpairs import spectrum
    least_squares, moved = spectrum._least_squares, []

    def leaking(p0, data, xs, yi, grid, groups=None, rest=0.0):
        p, r, nfev = least_squares(p0, data, xs, yi, grid, groups, rest)
        if groups is not None:
            p = p.copy()
            p[1] += 2.0
            moved.append(spectrum._from_log(p)[1:3])
        return p, r, nfev

    monkeypatch.setattr(spectrum, "_least_squares", leaking)
    out = tmp_path / "o"
    assert run(["simulate-jsi", "--config", config_path, "--out", out]) == 3
    (x0, y0), = moved
    assert (f"error: lobe fit: the lobe at ({x0:.3f}, {y0:.3f}) nm left "
            f"the nodes it was refined on") in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


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


def test_config_error_exit_code(tmp_path, config_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"fiber": {"radius": 2}}', encoding="utf-8")
    assert run(["simulate-jsi", "--config", bad, "--out", tmp_path]) == 2
    # the lobe count follows from the model and the grid
    bad.write_text('{"expected_lobes": 4}', encoding="utf-8")
    assert run(["simulate-jsi", "--config", bad, "--out", tmp_path]) == 2
    assert "config.expected_lobes: unknown key" in capsys.readouterr().err
    # the removed routes: estimate-rho fits no grid, qst-simulate needs a
    # density matrix, fit-lobes takes no lobe count, and a sweep needs a
    # delta
    for argv in (["estimate-rho", "--jsi-csv", tmp_path / "jsi.csv"],
                 ["qst-simulate"],
                 ["fit-lobes", "--input", tmp_path / "jsi.csv",
                  "--lobes", 2],
                 ["sweep-delta", "--deltas"]):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--config", config_path, "--out", tmp_path / "o"])
        assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


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


def test_undecodable_input_exit_code(tmp_path, config_path, capsys):
    # a byte that is not UTF-8, and JSON nested past the parser's depth
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, [670.0, 671.0], [567.0, 568.0], np.ones((2, 2)))
    grid.write_bytes(grid.read_bytes().replace(b"1.0\n", b"1.0\xff\n", 1))
    assert run(["render", "--config", config_path, "--out", tmp_path / "o",
                "--input", grid]) == 3
    assert "grid.csv: not UTF-8 text (invalid start byte)" in (
        capsys.readouterr().err)
    bad = tmp_path / "bad.json"
    for text in (b'{"grid": "\xff"}', b"[" * 100_000 + b"]" * 100_000):
        bad.write_bytes(text)
        assert run(["modes", "--config", bad, "--out", tmp_path / "o"]) == 2
        assert "bad.json: not a JSON document" in capsys.readouterr().err
        assert run(["compare", "--config", config_path, "--out",
                    tmp_path / "o", "--rho-a", bad, "--rho-b", bad]) == 3
        assert "bad.json: not a JSON document" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


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
    assert "lobes.json: lobes: missing required key" in (
        capsys.readouterr().err)


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
    assert "rho.json: matrix: expected a list of 4 items" in (
        capsys.readouterr().err)
    rows = [[[0.25, 0.0]] * 4 for _ in range(4)]
    rows[2][1] = 7
    rho.write_text(json.dumps({"basis": ["ee", "eo", "oe", "oo"],
                               "matrix": rows}), encoding="utf-8")
    assert run(["compare", "--config", config_path, "--out", tmp_path,
                "--rho-a", rho, "--rho-b", rho]) == 3
    assert "rho.json: matrix[2][1]: expected a list of 2 items" in (
        capsys.readouterr().err)
    rows[2][1] = [float("nan"), 0.0]
    rho.write_text(json.dumps({"basis": ["ee", "eo", "oe", "oo"],
                               "matrix": rows}), encoding="utf-8")
    assert run(["compare", "--config", config_path, "--out", tmp_path,
                "--rho-a", rho, "--rho-b", rho]) == 3
    assert "rho.json: matrix[2][1][0]: must be finite, got nan" in (
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
    assert ("counts.json: records[1].signal_basis: missing required key"
            in err)
    records = [{"signal_basis": s, "idler_basis": i, "counts": "many"}
               for s in "eodarl" for i in "eodarl"]
    counts.write_text(json.dumps({"n0": 100, "records": records}),
                      encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", counts]) == 3
    err = capsys.readouterr().err
    assert "counts.json: records[0].counts: expected a number" in err
    for rec in records:
        rec["counts"] = 5
    counts.write_text(json.dumps({"n0": "lots", "records": records}),
                      encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", counts]) == 3
    assert "counts.json: n0: expected a number" in capsys.readouterr().err


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
    rule = "must be in [0, 2^53]" if bad == 1e308 else "must be finite"
    assert f"counts.json: records[7].counts: {rule}, got {bad!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_counts_non_finite_n0_exit_code(tmp_path, config_path, capsys, bad):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"n0": bad,
                                  "records": all_projector_records(5)}),
                      encoding="utf-8")
    assert run(["qst-reconstruct", "--config", config_path, "--out",
                tmp_path, "--counts", counts]) == 3
    assert f"counts.json: n0: must be finite, got {bad!r}" in (
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


def test_seed_u64_bounds_accepted(tmp_path, config_path):
    for seed in (0, 2**64 - 1):
        assert qst_simulate_mixture(tmp_path, config_path, "--seed", seed) == 0
        doc = json.loads((tmp_path / "qst" / "counts.json").read_text())
        assert doc["seed"] == seed


def test_config_hash_ignores_output_dir_and_seed(tmp_path, config_path):
    # the output directory and the seed are run values, not config
    hashes = set()
    for out, seed in (("a", 1), ("b", 2)):
        (tmp_path / out).mkdir()
        assert qst_simulate_mixture(tmp_path / out, config_path,
                                    "--seed", seed) == 0
        qst = tmp_path / out / "qst"
        assert json.loads((qst / "counts.json").read_text())["seed"] == seed
        hashes.add(json.loads((qst / "manifest.json").read_text())[
            "config_sha256"])
    assert len(hashes) == 1


# every command but the two QST ones, with its required flags; argparse
# refuses an unknown flag before any of these paths is opened
NO_SEED = {
    "simulate-jsi": [], "sweep-delta": [], "fit-lobes": ["--input", "g.csv"],
    "estimate-rho": [], "compare": ["--rho-a", "a.json", "--rho-b", "b.json"],
    "render": ["--input", "g.csv"], "modes": [], "overlaps": [],
}
NO_THREADS = {**NO_SEED, "qst-simulate": ["--rho", "rho.json"]}


@pytest.mark.parametrize("command, flag", [
    *((command, "--seed") for command in NO_SEED),
    *((command, "--threads") for command in NO_THREADS)])
def test_run_flag_refused_where_nothing_reads_it(tmp_path, config_path,
                                                 capsys, command, flag):
    # only qst-simulate and qst-reconstruct draw random numbers, and only
    # qst-reconstruct takes --threads
    assert set(COMMANDS) - set(NO_THREADS) == {"qst-reconstruct"}
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", config_path, "--out", out,
             *NO_THREADS[command], flag, "5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not out.exists()


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
    assert "lobes.json: lobes[0].colour: unknown key" in (
        capsys.readouterr().err)


def write_lobes(path, **changes):
    """A lobes JSON of two good lobes, labeled B and C, with ``changes``
    made to the second."""
    good = {"center_s_nm": 677.0, "center_i_nm": 571.0,
            "sigma_major_nm": 1.0, "sigma_minor_nm": 0.3,
            "orientation_rad": 0.4, "amplitude": 1.0, "r_squared": None,
            "process_label": "B"}
    lobes = [good, {**good, "process_label": "C", **changes}]
    path.write_text(json.dumps({"lobes": lobes}), encoding="utf-8")
    return path


@pytest.mark.parametrize("field, value, message", [
    ("center_s_nm", "abc", "center_s_nm: expected a number"),
    ("center_i_nm", None, "center_i_nm: expected a number"),
    ("orientation_rad", True, "orientation_rad: expected a number"),
    ("center_s_nm", float("inf"), "center_s_nm: must be finite"),
    ("sigma_major_nm", 1e308,
     "sigma_major_nm: must have a finite, nonzero square"),
    ("sigma_minor_nm", 1e-170,
     "sigma_minor_nm: must have a finite, nonzero square"),
    ("sigma_minor_nm", 0, "sigma_minor_nm: must be > 0"),
    ("sigma_major_nm", -1.0, "sigma_major_nm: must be > 0"),
    ("amplitude", -1.0, "amplitude: must be > 0"),
    ("r_squared", "high", "r_squared: expected a number"),
    ("process_label", 5, "process_label: expected a string")])
@pytest.mark.parametrize("command", ["estimate-rho", "render"])
def test_lobe_bad_value_exit_code(tmp_path, config_path, capsys, command,
                                  field, value, message):
    lobes = write_lobes(tmp_path / "lobes.json", **{field: value})
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, [670.0, 671.0], [567.0, 568.0], np.ones((2, 2)))
    args = ["--input", grid] if command == "render" else []
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([command, "--config", config_path, "--out", out,
                    "--lobes-json", lobes, *args])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"lobes.json: lobes[1].{message}" in err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (out / "manifest.json").exists()


def test_render_lobe_off_the_grid_exit_code(tmp_path, config_path, capsys):
    # the rule the lobe fit keeps: a center on the grid, bounds included
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, [670.0, 680.0], [567.0, 575.0], np.ones((2, 2)))
    out = tmp_path / "out"
    for center in (1e308, 680.0000000000001):
        lobes = write_lobes(tmp_path / "lobes.json", center_s_nm=center)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["render", "--config", config_path, "--out", out,
                        "--input", grid, "--lobes-json", lobes])
        assert code == 3
        assert (f"lobes.json: lobes[1]: center ({center!r}, 571.0) nm lies "
                "outside the grid") in capsys.readouterr().err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
    assert not (out / "manifest.json").exists()
    lobes = write_lobes(tmp_path / "lobes.json", center_s_nm=680.0)
    assert run(["render", "--config", config_path, "--out", out,
                "--input", grid, "--lobes-json", lobes]) == 0


def test_render_lobe_wider_than_the_grid_exit_code(tmp_path, config_path,
                                                   capsys):
    # the other rule the lobe fit keeps: no sigma wider than the wider axis
    # span; a 1e150 nm sigma drew an ellipse radius of about 155 digits
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, [670.0, 680.0], [567.0, 575.0], np.ones((2, 2)))
    out = tmp_path / "out"
    lobes = write_lobes(tmp_path / "lobes.json", sigma_major_nm=1e150)
    assert run(["render", "--config", config_path, "--out", out,
                "--input", grid, "--lobes-json", lobes]) == 3
    assert ("lobes.json: lobes[1]: sigma 1e+150 nm is wider than the grid "
            "span 10.0 nm") in capsys.readouterr().err
    assert not list(out.iterdir())
    lobes = write_lobes(tmp_path / "lobes.json", sigma_major_nm=10.0)
    assert run(["render", "--config", config_path, "--out", out,
                "--input", grid, "--lobes-json", lobes]) == 0


@pytest.mark.parametrize("first, second, want", [
    # the projector products overflowed: a LinAlgError traceback
    ({"amplitude": 1e308}, {"amplitude": 1e308}, 0),
    # one label's sum of intensities overflows to inf
    ({"amplitude": 1e308}, {"amplitude": 1e308, "process_label": "B"}, 3),
    # a subnormal sigma square overflowed the Gaussian's exponent
    ({}, {"sigma_minor_nm": 1e-160}, 0)])
def test_extreme_lobe_values_end_without_traceback_or_warning(
        tmp_path, config_path, capsys, first, second, want):
    lobes = write_lobes(tmp_path / "lobes.json", **second)
    doc = json.loads(lobes.read_text(encoding="utf-8"))
    doc["lobes"][0].update(first)
    lobes.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["estimate-rho", "--config", config_path,
                    "--out", tmp_path / "out", "--lobes-json", lobes])
    err = capsys.readouterr().err
    assert code == want, err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if code == 3:
        assert "error: window amplitudes overflow" in err


@pytest.mark.parametrize("label", ["X", "5", ""])
def test_lobe_label_naming_no_process_exit_code(tmp_path, config_path,
                                                capsys, label):
    lobes = write_lobes(tmp_path / "lobes.json", process_label=label)
    out = tmp_path / "out"
    assert run(["estimate-rho", "--config", config_path, "--out", out,
                "--lobes-json", lobes]) == 3
    err = capsys.readouterr().err
    assert (f"lobes.json: lobes[1]: process_label {label!r} names no "
            "phase-matched process") in err
    assert not (out / "manifest.json").exists()
    # render draws any label
    grid = tmp_path / "grid.csv"
    write_grid_csv(grid, [670.0, 680.0], [567.0, 575.0], np.ones((2, 2)))
    assert run(["render", "--config", config_path, "--out", out,
                "--input", grid, "--lobes-json", lobes]) == 0


def test_render_escapes_markup_in_labels_and_title(tmp_path, config_path):
    lobes = write_lobes(tmp_path / "lobes.json", process_label="A&<B>")
    grid = tmp_path / "a&b.csv"
    write_grid_csv(grid, np.linspace(670.0, 690.0, 21),
                   np.linspace(565.0, 577.0, 13), np.ones((21, 13)))
    out = tmp_path / "img"
    assert run(["render", "--config", config_path, "--out", out,
                "--input", grid, "--lobes-json", lobes]) == 0
    root = ElementTree.parse(out / "a&b.svg").getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert {"B", "A&<B>", "a&b"} <= set(texts)


def test_fit_lobes_leaving_the_grid_exit_code(tmp_path, config_path,
                                               centers, capsys):
    # one lobe at the model's D center plus 1 % noise on axes that hold the
    # predicted C and D centers, so fitted as two: the peel seeds the
    # second lobe on noise, and that lobe leaves the grid
    ls = np.linspace(670.0, 690.0, 81)
    li = np.linspace(571.0, 577.0, 31)
    cs, ci = centers["D"]
    lobe = GaussianLobe(center_s_nm=cs, center_i_nm=ci, sigma_major_nm=1.0,
                        sigma_minor_nm=0.4, orientation_rad=0.45,
                        amplitude=1.0)
    rng = np.random.default_rng(4)
    grid = tmp_path / "jsi.csv"
    write_grid_csv(grid, ls, li,
                   np.abs(lobe.evaluate(ls[:, None], li[None, :])
                          + 0.01 * rng.standard_normal((81, 31))))
    assert run(["fit-lobes", "--config", config_path, "--out", tmp_path,
                "--input", grid]) == 3
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


@pytest.mark.parametrize("command, flag", [("fit-lobes", "--input")])
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


@pytest.mark.parametrize("flag", ["--threads"])
@pytest.mark.parametrize("value", [0, -3])
def test_count_flag_below_one_exit_code(tmp_path, config_path, capsys,
                                        flag, value):
    out = tmp_path / "qst"
    # the flag is refused before the counts are read
    assert run(["qst-reconstruct", "--config", config_path, "--out", out,
                "--counts", tmp_path / "counts.json", flag, value]) == 2
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


@pytest.mark.parametrize("flag", ["--rho", "--rho-a", "--rho-b"])
@pytest.mark.parametrize("fault, message", [
    ("trace", "matrix trace differs from 1"),
    ("hermitian", "matrix is not Hermitian within tolerance")])
def test_invalid_density_names_its_file(tmp_path, config_path, capsys, flag,
                                        fault, message):
    from fwmpairs.gridio import density_to_json, write_json

    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    write_json(good, density_to_json(np.eye(4, dtype=complex) / 4.0))
    rho = np.eye(4, dtype=complex) / (2.0 if fault == "trace" else 4.0)
    if fault == "hermitian":
        rho[0, 1] = 0.1
    write_json(bad, density_to_json(rho))
    args = {"--rho": ["qst-simulate", "--rho", bad],
            "--rho-a": ["compare", "--rho-a", bad, "--rho-b", good],
            "--rho-b": ["compare", "--rho-a", good, "--rho-b", bad]}[flag]
    out = tmp_path / "out"
    assert run([*args, "--config", config_path, "--out", out]) == 3
    err = capsys.readouterr().err
    assert f"error: {bad}: matrix: {message}" in err
    assert str(good) not in err
    assert not (out / "manifest.json").exists()


def test_render_subnormal_axis_step_exit_code(tmp_path, config_path, capsys):
    # the plot scale, pixels over the axis span, or a contour radius in
    # pixels overflowed: RuntimeWarnings from the lobe contour, then exit 0.
    # The signal span keeps each sigma within the wider axis span.
    grid = tmp_path / "grid.csv"
    lobes = tmp_path / "lobes.json"
    for span_s, step, sigma, message in (
            (1.0, 5e-324, 1.0, "grid.csv: lambda_i axis: step 5e-324 is "
             "not a normal float"),
            # the smallest normal step
            (1.0, 2.2250738585072014e-308, 1.0, "lobes.json: lobes[0]: "
             "1/e2 contour is not finite in plot pixels (scale inf x 400 "
             "px/nm"),
            (1e150, 1e-200, 1e150, "lobes.json: lobes[0]: 1/e2 contour is "
             "not finite in plot pixels (scale 5.2e+202 x 4e-148 px/nm, "
             "radii inf x ")):
        write_grid_csv(grid, [0.0, span_s], [0.0, step], np.ones((2, 2)))
        write_lobes(lobes, center_s_nm=0.0, center_i_nm=0.0,
                    sigma_major_nm=sigma)
        doc = json.loads(lobes.read_text(encoding="utf-8"))
        lobes.write_text(json.dumps({"lobes": doc["lobes"][1:]}),
                         encoding="utf-8")
        out = tmp_path / "img"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["render", "--config", config_path, "--out", out,
                        "--input", grid, "--lobes-json", lobes])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert not out.exists() or not list(out.iterdir())


def test_sweep_delta_monotone(tmp_path, config_path):
    out = tmp_path / "sweep"
    assert run(["sweep-delta", "--config", config_path, "--out", out]) == 0
    rows = (out / "separations.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 3
    seps = [float(r.split(",")[-1]) for r in rows]
    assert seps[0] < seps[1] < seps[2]
    assert (out / "jsi_delta0.csv").exists()
    assert (out / "jsi_delta2.csv").exists()


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


NOT_FEW_MODE = "fiber is not few-mode: V = "
NOT_GUIDED = "LP11 is not guided: V = "


@pytest.mark.parametrize("command, doc, lam, message", [
    # ids without the message, so the three few-mode cases keep theirs
    pytest.param(command, {"fiber": {"core_radius_um": radius}}, lam,
                 message, id=f"{command}-{radius}-{lam}")
    for command, radius, lam, message in [
        ("overlaps", 1e9, "540 nm", NOT_FEW_MODE),
        ("overlaps", 2.0, "540 nm", NOT_FEW_MODE),
        ("modes", 1e9, "571.5 nm", NOT_FEW_MODE),
        ("overlaps", 0.5, "700 nm", NOT_GUIDED),
        ("modes", 0.5, "571.5 nm", NOT_GUIDED),
        ("modes", 1e-12, "571.5 nm", NOT_GUIDED),
        ("modes", 5e-324, "571.5 nm", NOT_GUIDED)]] + [
    # the centre scan pairs the band's 500 nm end with an 815.789 nm
    # signal, where the default fiber cuts LP11 off
    pytest.param("overlaps", {"center_band_nm": [500.0, 510.0]},
                 "815.789 nm", NOT_GUIDED, id="overlaps-band_500_510")])
def test_fiber_beyond_few_mode_exit_code(tmp_path, capsys, command, doc,
                                         lam, message):
    # V reaches 3.8317, where LP21 and LP02 are guided, at the shortest
    # wavelength the command uses: the centre band's 540 nm for overlaps;
    # LP11 is cut off where V is at most 2.4048, first at the longest
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(BASE_CONFIG, **doc)), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([command, "--config", config, "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert message in err and f" at {lam} " in err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # refused before any solve: no file written
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("doc, message", [
    pytest.param({"fiber": {"numerical_aperture": 0.9}},
                 "numerical aperture 0.9 outside the range reachable by "
                 "GeO2 doping", id="numerical_aperture_0.9"),
    # every channel's mismatch keeps its sign over 575-580 nm
    pytest.param({"center_band_nm": [575.0, 580.0]},
                 "no process is phase matched in the band",
                 id="band_575_580")])
def test_model_refusal_exit_code(tmp_path, capsys, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        BASE_CONFIG, grid={"points_s": 41, "points_i": 41}, **doc)),
        encoding="utf-8")
    out = tmp_path / "out"
    assert run(["overlaps", "--config", config, "--out", out]) == 3
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_band_that_leaves_one_channel_unmatched(tmp_path):
    # E matches near 542 nm, outside the band; A-D match inside it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"points_s": 61, "points_i": 61},
                                  "center_band_nm": [560.0, 580.0]}),
                      encoding="utf-8")
    out = tmp_path / "out"
    assert run(["simulate-jsi", "--config", config, "--out", out]) == 0
    with open(out / "lobe_centers.csv", encoding="utf-8") as fh:
        assert [r["process"] for r in csv.DictReader(fh)] == list("ABCD")
    meta = json.loads((out / "jsi_meta.json").read_text(encoding="utf-8"))
    assert meta["unmatched_processes"] == {
        "E": "process E not phase matched in band [560.0, 580.0] nm: "
             "delta_k in [6163.33, 10627.4] 1/m"}


def test_grid_too_coarse_for_lobes_exit_code(tmp_path, capsys):
    # the 21 x 21 default-band grid steps 1.5 nm and 0.45 nm against minor
    # sigmas near 0.17 nm: too few nodes inside a lobe for its R^2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"points_s": 21, "points_i": 21}}),
                      encoding="utf-8")
    out = tmp_path / "out"
    code = run(["simulate-jsi", "--config", config, "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "grid nodes inside its 3-sigma ellipse" in err
    assert "the grid steps (1.5, 0.45) nm are too coarse for its minor " \
        "sigma 0.171 nm" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, message", [
    ("simulate-jsi", "joint spectrum vanishes on the whole grid"),
    ("estimate-rho", "window contains no intensity")])
@pytest.mark.parametrize("fwhm", [1e-30, 1e-160, 1e-300, 1e-320, 5e-324])
def test_tiny_pump_fwhm_exit_code(tmp_path, capsys, command, message, fwhm):
    # the pump envelope is 0 at every node; below about 1e-152 nm its
    # exponent overflows, and below about 1e-175 nm its variance
    # underflows to 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        BASE_CONFIG, grid={"points_s": 41, "points_i": 41},
        pump={"intensity_fwhm_nm": fwhm})), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run([command, "--config", config, "--out", out])
    err = capsys.readouterr().err
    assert code == 3, err
    assert f"error: {message}" in err
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
    # fit-lobes on the exported grid, then estimate-rho on its lobes
    sim_out = tmp_path / "sim"
    assert run(["simulate-jsi", "--config", config_path,
                "--out", sim_out]) == 0
    fit_out = tmp_path / "fit"
    assert run(["fit-lobes", "--config", config_path, "--out", fit_out,
                "--input", sim_out / "jsi.csv"]) == 0
    assert (fit_out / "lobes.json").read_bytes() == (
        sim_out / "lobes.json").read_bytes()
    out = tmp_path / "rho2"
    assert run(["estimate-rho", "--config", config_path, "--out", out,
                "--lobes-json", fit_out / "lobes.json"]) == 0
    doc = json.loads((out / "rho_se_w0.json").read_text())
    assert doc["source"] == "lobes_json"
    assert 0.0 <= doc["metrics"]["purity"] <= 1.0


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
    from fwmpairs.tomography import BELL_PHI_PLUS
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


def test_render_images_do_not_depend_on_the_intensity_scale(tmp_path,
                                                            config_path):
    # a power-of-two scale divides out exactly; a render that stopped
    # scaling by the peak would write a black or a saturated image
    ls = np.linspace(670.0, 680.0, 21)
    li = np.linspace(567.0, 571.0, 11)
    bump = (np.exp(-((ls - 674.0) / 3.0) ** 2)[:, None]
            * np.exp(-((li - 569.5) / 1.0) ** 2)[None, :])
    images = []
    for exp in (0, -500, 500):
        d = tmp_path / f"scale_{exp}"
        d.mkdir()
        write_grid_csv(d / "jsi.csv", ls, li, np.ldexp(bump, exp))
        assert run(["render", "--config", config_path, "--out", d / "img",
                    "--input", d / "jsi.csv"]) == 0
        images.append([(d / "img" / name).read_bytes()
                       for name in ("jsi.pgm", "jsi.svg")])
    assert images[1] == images[0]
    assert images[2] == images[0]
    assert len(set(images[0][0][-21 * 11:])) > 2  # not one flat shade


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
    header, *lines = (out / "overlaps.csv").read_text().splitlines()
    rows = [dict(zip(header.split(","), ln.split(","))) for ln in lines]
    assert {row["process"] for row in rows} == {"A", "B", "C", "D", "E"}
    total = sum(float(row["overlap_sq"]) for row in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_timings_record_the_peak_resident_set(tmp_path, config_path):
    out = tmp_path / "ov"
    assert run(["overlaps", "--config", config_path, "--out", out]) == 0
    lines = (out / "timings.txt").read_text().splitlines()
    name, value = lines[-1].split("\t")
    number, unit = value.split(" ")
    assert (name, unit) == ("peak_rss_mb", "MB")
    assert float(number) > 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "timings.txt" not in {e["path"] for e in manifest["outputs"]}


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="compares against VmHWM in /proc")
def test_peak_resident_set_without_proc(monkeypatch):
    # where /proc has no status file, the peak comes from ru_maxrss, in
    # kB on Linux: about VmHWM, and 1024 times off in the wrong unit
    with_proc = pipeline._peak_rss_mb()

    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/status")

    monkeypatch.setattr(pipeline, "open", no_proc, raising=False)
    assert pipeline._peak_rss_mb() == pytest.approx(with_proc, rel=0.1)


def test_unreadable_config_exits_2_naming_the_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["overlaps", "--config", missing, "--out", tmp_path]) == 2
    assert f"cannot read config {missing}" in capsys.readouterr().err


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # numpy's OpenBLAS starts one thread per core unless a count is set,
    # and a threaded dot product can move the last digit of the residual
    # norm; the CLI sets one thread unless the caller sets a count
    src = str(Path(fwmpairs.__file__).resolve().parents[1])
    config = tmp_path / "config.json"
    config.write_text("{}", encoding="utf-8")
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")}
    unset["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for name, env in (("unset", unset),
                      ("one", dict(unset, OPENBLAS_NUM_THREADS="1"))):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "fwmpairs.cli", "simulate-jsi",
                        "--config", str(config), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        outputs.append({path.name: path.read_bytes()
                        for path in out.iterdir()
                        if path.name != "timings.txt"})
    assert "lobes.json" in outputs[0]
    assert outputs[0] == outputs[1]


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
    from fwmpairs.tomography import PSD_TOL

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
    from fwmpairs.tomography import fidelity

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
