"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.

``COMMANDS`` is the one place a command is declared: its help, the
``pipeline`` function it runs and its own flags.  Every command also
takes the ``COMMON`` flags.  A flag whose schema type is not None is
checked by ``config.convert`` before the config loads.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import pipeline
from .config import convert, load_config
from .errors import ConfigError, FwmPairsError


def _flag(*names, check=None, **options):
    """A flag: its argparse names and options, and the ``config.convert``
    schema type its value is checked with (None: not checked)."""
    return names, options, check


COMMON = (
    _flag("--config", required=True, type=Path,
          help="pipeline configuration JSON"),
    _flag("--out", type=Path,
          help="output directory (default: config output_dir)"),
    _flag("--seed", type=int, check="seed",
          help="master RNG seed (default: config tomography.seed)"),
    _flag("--threads", type=int, check="count",
          help="recorded in the manifest; no stage reads it"),
)

# name -> (help, pipeline function, its own flags); the function takes
# the Runner and one keyword per flag, and returns the lines to print
COMMANDS = {
    "simulate-jsi": (
        "simulate the combined JSI and fit its lobes",
        pipeline.cmd_simulate_jsi, ()),
    "sweep-delta": (
        "JSI per parity-dispersion value plus B-C separations",
        pipeline.cmd_sweep_delta,
        (_flag("--deltas", type=float, nargs="+",
                check=["birefringence"]),)),
    "fit-lobes": (
        "fit Gaussian lobes to a JSI CSV",
        pipeline.cmd_fit_lobes,
        (_flag("--input", dest="input_csv", required=True, type=Path),
         _flag("--lobes", dest="n_lobes", type=int, check="count"))),
    "estimate-rho": (
        "trace the spectral DOF out of the joint spectrum per configured "
        "window",
        pipeline.cmd_estimate_rho,
        (_flag("--jsi-csv", type=Path,
               help="measured JSI grid (Gaussian-lobe route)"),
         _flag("--lobes-json", type=Path,
               help="pre-fitted labeled lobes (lobe route)"))),
    "qst-simulate": (
        "expected counts and Poisson samples for the 36-projector "
        "tomography",
        pipeline.cmd_qst_simulate,
        (_flag("--rho", dest="rho_json", type=Path,
               help="density-matrix JSON (default: first-window rho_se)"),)),
    "qst-reconstruct": (
        "maximum-likelihood reconstruction with bootstrap error bars",
        pipeline.cmd_qst_reconstruct,
        (_flag("--counts", required=True, type=Path),)),
    "compare": (
        "fidelity report between two density matrices (both conventions "
        "and phase-blind)",
        pipeline.cmd_compare,
        (_flag("--rho-a", required=True, type=Path),
         _flag("--rho-b", required=True, type=Path))),
    "render": (
        "heatmap images for a JSI CSV",
        pipeline.cmd_render,
        (_flag("--input", dest="input_csv", required=True, type=Path),
         _flag("--lobes-json", type=Path))),
    "modes": (
        "transverse-mode intensity images",
        pipeline.cmd_modes,
        (_flag("--wavelength-nm", type=float, check=float),)),
    "overlaps": (
        "per-process spatial overlap table",
        pipeline.cmd_overlaps, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwmpairs",
        description="Transverse-mode-resolved photon-pair simulation and "
                    "state estimation for few-mode PM fiber.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, run, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        checks = [(p.add_argument(*names, **options).dest, names[0], check)
                  for names, options, check in COMMON + flags]
        p.set_defaults(run=run, checks=checks)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command, run, checks = (args.pop(k) for k in ("command", "run", "checks"))
    try:
        for dest, flag, check in checks:
            if check is not None and args[dest] is not None:
                convert(args[dest], check, flag)
        runner = pipeline.Runner(load_config(args.pop("config")), command,
                                 out_dir=args.pop("out"),
                                 seed=args.pop("seed"),
                                 threads=args.pop("threads"))
        for line in run(runner, **args):
            print(line)
        runner.finish()
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FwmPairsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
