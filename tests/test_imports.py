"""Which scipy submodules each command loads.

Every CLI call is a fresh process, so a module-level scipy submodule
import is paid by every command.  ``scipy.special`` and
``scipy.optimize`` are reached by attribute inside the stages that use
them; these tests run commands in fresh interpreters and read
``sys.modules`` afterwards.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.constants

import fwmpairs
from fwmpairs.cli import main
from fwmpairs.estimation import BELL_PHI_PLUS
from fwmpairs.gridio import density_to_json, write_grid_csv, write_json
from fwmpairs.spectrum import C_LIGHT

HEAVY = ("scipy.special", "scipy.optimize")

# Runs its argv through cli.main in a fresh interpreter and prints the
# exit code and the heavy scipy submodules that were loaded.
_PROBE = (
    "import json, sys\n"
    "from fwmpairs.cli import main\n"
    "argv = json.loads(sys.argv[1])\n"
    "rc = main(argv) if argv else 0\n"
    f"print(json.dumps([rc, [m for m in {HEAVY!r} if m in sys.modules]]))\n"
)


def probe(argv):
    """(exit code, loaded heavy submodules) of ``argv`` in a fresh
    interpreter; an empty ``argv`` only imports ``fwmpairs.cli``."""
    src = str(Path(fwmpairs.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps([str(a) for a in argv])],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    return rc, set(loaded)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config, a density, its counts, a reconstruction and a grid CSV,
    all small."""
    root = tmp_path_factory.mktemp("imports")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "fiber": {"segments": [[0.10, False]]},
        "grid": {"points_s": 61, "points_i": 61},
        "tomography": {"counts_scale": 500, "n_samples": 4, "seed": 7},
        "output_dir": str(root / "unused"),
    }), encoding="utf-8")
    bell = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
    write_json(root / "rho.json",
               density_to_json(0.8 * bell + 0.2 * np.eye(4) / 4))
    write_grid_csv(root / "grid.csv", np.linspace(670.0, 680.0, 11),
                   np.linspace(567.0, 571.0, 9), np.ones((11, 9)))
    common = ["--config", cfg, "--seed", "7"]
    assert main([str(a) for a in ["qst-simulate", *common, "--out",
                                  root / "sim", "--rho", root / "rho.json"]]) == 0
    assert main([str(a) for a in ["qst-reconstruct", *common, "--out",
                                  root / "qst", "--counts",
                                  root / "sim" / "counts.json"]]) == 0
    return root, common


def test_import_cli_loads_no_heavy_scipy():
    assert probe([]) == (0, set())


@pytest.mark.parametrize("command", ["qst-simulate", "qst-reconstruct",
                                     "compare", "render"])
def test_tomography_and_render_load_no_heavy_scipy(inputs, tmp_path,
                                                   command):
    root, common = inputs
    extra = {
        "qst-simulate": ["--rho", root / "rho.json"],
        "qst-reconstruct": ["--counts", root / "sim" / "counts.json"],
        "compare": ["--rho-a", root / "rho.json",
                    "--rho-b", root / "qst" / "rho_qst.json"],
        "render": ["--input", root / "grid.csv"],
    }[command]
    assert probe([command, *common, "--out", tmp_path, *extra]) == (0, set())


@pytest.mark.parametrize("command", ["overlaps", "estimate-rho"])
def test_model_stages_load_special_but_not_optimize(inputs, tmp_path,
                                                    command):
    root, common = inputs
    # estimate-rho without --jsi-csv or --lobes-json uses model amplitudes
    assert probe([command, *common, "--out", tmp_path]) == \
        (0, {"scipy.special"})


def test_speed_of_light_literal_matches_scipy():
    assert C_LIGHT == scipy.constants.c


def test_manifest_records_scipy_version(inputs):
    root, _ = inputs
    manifest = json.loads((root / "qst" / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__
