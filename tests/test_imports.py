"""No command loads ``scipy.special``, ``scipy.optimize`` or ``numpy.ma``,
and the package's import graph keeps its layers apart.

Every CLI call is a fresh process, so a heavy submodule import is paid by
every command.  The Bessel functions and the lobe fit's optimizer are
numpy code, and scipy is a test-side reference only; ``np.unique``
imports ``numpy.ma``, so the package finds its distinct band and panel
indices with ``np.bincount``.  ``config``, the input records, loads no
other fwmpairs module but ``errors``, the two-qubit side
(``tomography``, ``gridio``) loads no fiber-model module, and
``spectrum``, which reads its amplitudes from a source it is given,
loads none of ``dispersion``, ``processes``, ``fields`` and
``estimation``.  These tests
run commands and imports in fresh interpreters and read ``sys.modules``
afterwards.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.constants

import fwmpairs
from fwmpairs.cli import main
from fwmpairs.config import C_LIGHT
from fwmpairs.gridio import density_to_json, write_grid_csv, write_json
from fwmpairs.tomography import BELL_PHI_PLUS

from test_tracer_guard import LAYERS

HEAVY = ("scipy.special", "scipy.optimize", "numpy.ma")

# Runs its argv through cli.main in a fresh interpreter and prints the
# exit code and the heavy submodules that were loaded.
_PROBE = (
    "import json, sys\n"
    "from fwmpairs.cli import main\n"
    "argv = json.loads(sys.argv[1])\n"
    "rc = main(argv) if argv else 0\n"
    f"print(json.dumps([rc, [m for m in {HEAVY!r} if m in sys.modules]]))\n"
)


def fresh_json(code: str, *args):
    """The JSON value that ``code`` prints last, run with ``args`` in a
    fresh interpreter that imports this checkout's fwmpairs."""
    src = str(Path(fwmpairs.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe(argv):
    """(exit code, loaded heavy submodules) of ``argv`` in a fresh
    interpreter; an empty ``argv`` only imports ``fwmpairs.cli``."""
    rc, loaded = fresh_json(_PROBE, json.dumps([str(a) for a in argv]))
    return rc, set(loaded)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A config, a density, its counts, a reconstruction, a simulated JSI
    and a flat grid CSV, all small."""
    root = tmp_path_factory.mktemp("imports")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "fiber": {"segments": [[0.10, False]]},
        "grid": {"points_s": 61, "points_i": 61},
        "tomography": {"counts_scale": 500, "n_samples": 4},
    }), encoding="utf-8")
    bell = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS.conj())
    write_json(root / "rho.json",
               density_to_json(0.8 * bell + 0.2 * np.eye(4) / 4))
    write_grid_csv(root / "grid.csv", np.linspace(670.0, 680.0, 11),
                   np.linspace(567.0, 571.0, 9), np.ones((11, 9)))
    common = ["--config", cfg]
    for step in (["qst-simulate", "--out", root / "sim",
                  "--rho", root / "rho.json", "--seed", "7"],
                 ["qst-reconstruct", "--out", root / "qst",
                  "--counts", root / "sim" / "counts.json", "--seed", "7"],
                 ["simulate-jsi", "--out", root / "jsi"]):
        assert main([str(a) for a in [*step, *common]]) == 0
    return root, common


def test_import_cli_loads_no_heavy_scipy():
    assert probe([]) == (0, set())


def loaded_by(module: str) -> set:
    """The fwmpairs modules that ``import module`` loads in a fresh
    interpreter."""
    return set(fresh_json(
        f"import json, sys, {module}\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m.split('.')[0] == 'fwmpairs']))\n"))


MODEL = ("dispersion", "fields", "processes", "spectrum", "estimation")


def test_config_loads_no_other_fwmpairs_module():
    assert loaded_by("fwmpairs.config") == {
        "fwmpairs", "fwmpairs.config", "fwmpairs.errors"}


@pytest.mark.parametrize("module", ["tomography", "gridio"])
def test_two_qubit_side_loads_no_model_module(module):
    loaded = loaded_by(f"fwmpairs.{module}")
    assert f"fwmpairs.{module}" in loaded
    assert not loaded & {f"fwmpairs.{name}" for name in MODEL}


def test_spectrum_loads_no_fiber_model_module():
    loaded = loaded_by("fwmpairs.spectrum")
    assert "fwmpairs.spectrum" in loaded
    assert not loaded & {f"fwmpairs.{name}" for name in
                         ("dispersion", "processes", "fields", "estimation")}


def test_import_cli_loads_every_traced_layer():
    # the benchmark tracer imports fwmpairs.cli and then reads each
    # layer's module from sys.modules
    layers = {f"fwmpairs.{mod_name}" for mod_name, _, _ in LAYERS.values()}
    assert layers <= loaded_by("fwmpairs.cli")


def command_argv(inputs, tmp_path, command):
    """``command`` with the inputs that send it down its heaviest path."""
    root, common = inputs
    jsi = root / "jsi" / "jsi.csv"
    extra = {
        "sweep-delta": ["--deltas", "0", "3e-5"],
        "fit-lobes": ["--input", jsi],
        "estimate-rho --lobes-json": ["--lobes-json",
                                      root / "jsi" / "lobes.json"],
        "qst-simulate": ["--rho", root / "rho.json"],
        "qst-reconstruct": ["--counts", root / "sim" / "counts.json"],
        "compare": ["--rho-a", root / "rho.json",
                    "--rho-b", root / "qst" / "rho_qst.json"],
        "render": ["--input", root / "grid.csv"],
    }.get(command, [])
    return [command.split()[0], *common, "--out", tmp_path, *extra]


@pytest.mark.parametrize("command", ["qst-simulate", "qst-reconstruct",
                                     "compare", "render"])
def test_tomography_and_render_load_no_heavy_scipy(inputs, tmp_path,
                                                   command):
    assert probe(command_argv(inputs, tmp_path, command)) == (0, set())


# estimate-rho without --lobes-json uses model amplitudes
@pytest.mark.parametrize("command", [
    "simulate-jsi", "sweep-delta", "fit-lobes", "estimate-rho",
    "estimate-rho --lobes-json", "modes", "overlaps"])
def test_command_loads_no_heavy_scipy(inputs, tmp_path, command):
    assert probe(command_argv(inputs, tmp_path, command)) == (0, set())


def test_speed_of_light_literal_matches_scipy():
    assert C_LIGHT == scipy.constants.c


def test_manifest_records_scipy_version(inputs):
    # scipy is a test-side reference only, so no manifest names it
    root, _ = inputs
    manifest = json.loads((root / "qst" / "manifest.json").read_text())
    assert set(manifest["versions"]) == {"fwmpairs", "python", "numpy"}
