"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import convert, load_config
from .errors import ConfigError, FwmPairsError, GridFormatError, NumericError
from . import pipeline


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwmpairs",
        description="Transverse-mode-resolved photon-pair simulation and "
                    "state estimation for few-mode PM fiber.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, type=Path,
                       help="pipeline configuration JSON")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: config output_dir)")
        p.add_argument("--seed", type=int, default=None,
                       help="master RNG seed (default: config tomography.seed)")
        p.add_argument("--threads", type=int, default=None,
                       help="recorded in the manifest; no stage reads it")
        return p

    common(sub.add_parser("simulate-jsi",
                          help="simulate the combined JSI and fit its lobes"))

    p = common(sub.add_parser("sweep-delta",
                              help="JSI per parity-dispersion value plus "
                                   "B-C separations"))
    p.add_argument("--deltas", type=float, nargs="+", default=None)

    p = common(sub.add_parser("fit-lobes",
                              help="fit Gaussian lobes to a JSI CSV"))
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--lobes", dest="n_lobes", type=int, default=None)

    p = common(sub.add_parser("estimate-rho",
                              help="trace the spectral DOF out of the joint "
                                   "spectrum per configured window"))
    p.add_argument("--jsi-csv", type=Path, default=None,
                   help="measured JSI grid (Gaussian-lobe route)")
    p.add_argument("--lobes-json", type=Path, default=None,
                   help="pre-fitted labeled lobes (lobe route)")

    p = common(sub.add_parser("qst-simulate",
                              help="expected counts and Poisson samples for "
                                   "the 36-projector tomography"))
    p.add_argument("--rho", type=Path, default=None,
                   help="density-matrix JSON (default: first-window rho_se)")

    p = common(sub.add_parser("qst-reconstruct",
                              help="maximum-likelihood reconstruction with "
                                   "bootstrap error bars"))
    p.add_argument("--counts", required=True, type=Path)

    p = common(sub.add_parser("compare",
                              help="fidelity report between two density "
                                   "matrices (both conventions and "
                                   "phase-blind)"))
    p.add_argument("--rho-a", required=True, type=Path)
    p.add_argument("--rho-b", required=True, type=Path)

    p = common(sub.add_parser("render",
                              help="heatmap images for a JSI CSV"))
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--lobes-json", type=Path, default=None)

    p = common(sub.add_parser("modes",
                              help="transverse-mode intensity images"))
    p.add_argument("--wavelength-nm", type=float, default=None)

    common(sub.add_parser("overlaps",
                          help="per-process spatial overlap table"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, typ, value in (
                ("--seed", "seed", args.seed),
                ("--threads", "count", args.threads),
                ("--lobes", "count", getattr(args, "n_lobes", None)),
                ("--deltas", [float], getattr(args, "deltas", None)),
                ("--wavelength-nm", float,
                 getattr(args, "wavelength_nm", None))):
            if value is not None:
                convert(value, typ, flag)
        cfg = load_config(args.config)
        runner = pipeline.Runner(cfg, args.command, out_dir=args.out,
                                 seed=args.seed, threads=args.threads)
        if args.command == "simulate-jsi":
            report = pipeline.cmd_simulate_jsi(runner)
            for row in report["lobes"]:
                print(f"{row['process']}: fitted center "
                      f"({row['fitted_lambda_s_nm']:.3f}, "
                      f"{row['fitted_lambda_i_nm']:.3f}) nm, "
                      f"R^2 = {row['r_squared']:.4f}")
        elif args.command == "sweep-delta":
            rows = pipeline.cmd_sweep_delta(runner, deltas=args.deltas)
            for row in rows:
                print(f"delta = {row['delta']:g}: B-C separation "
                      f"{row['separation_i_nm']:.4f} nm")
        elif args.command == "fit-lobes":
            doc = pipeline.cmd_fit_lobes(runner, args.input,
                                         expected=args.n_lobes)
            print(f"global R^2 = {doc['r_squared']:.4f}")
        elif args.command == "estimate-rho":
            rows = pipeline.cmd_estimate_rho(runner, jsi_csv=args.jsi_csv,
                                             lobes_json=args.lobes_json)
            for row in rows:
                print(f"window {row['window']}: concurrence "
                      f"{row['concurrence']:.4f}, bell fidelity "
                      f"{row['bell_fidelity']:.4f} "
                      f"(unsquared {row['bell_fidelity_unsquared']:.4f}), "
                      f"purity {row['purity']:.4f}")
        elif args.command == "qst-simulate":
            doc = pipeline.cmd_qst_simulate(runner, rho_json=args.rho)
            total = sum(rec["counts"] for rec in doc["records"])
            print(f"sampled {len(doc['records'])} projectors, "
                  f"total counts {total}")
        elif args.command == "qst-reconstruct":
            doc = pipeline.cmd_qst_reconstruct(runner, args.counts)
            m = doc["metrics"]
            b = doc["bootstrap"]
            for key in ("concurrence", "bell_fidelity", "purity"):
                print(f"{key}: {m[key]:.4f} "
                      f"(bootstrap {b['means'][key]:.4f} "
                      f"+/- {b['stds'][key]:.4f})")
        elif args.command == "compare":
            doc = pipeline.cmd_compare(runner, args.rho_a, args.rho_b)
            print("fidelity (squared convention):   "
                  f"{doc['fidelity_squared']:.4f}")
            print("fidelity (unsquared convention): "
                  f"{doc['fidelity_unsquared']:.4f}")
            print("phase-blind |rho_a| vs rho_b (squared):   "
                  f"{doc['phase_blind_fidelity_squared']:.4f}")
            print("phase-blind |rho_a| vs rho_b (unsquared): "
                  f"{doc['phase_blind_fidelity_unsquared']:.4f}")
        elif args.command == "render":
            pipeline.cmd_render(runner, args.input,
                                lobes_json=args.lobes_json)
        elif args.command == "modes":
            pipeline.cmd_modes(runner, wavelength_nm=args.wavelength_nm)
        elif args.command == "overlaps":
            rows = pipeline.cmd_overlaps(runner)
            for row in rows:
                print(f"{row['process']} ({row['modes']}): |O|^2 = "
                      f"{row['overlap_sq']:.4f}, weight {row['weight_m']:.4f}")
        runner.finish()
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, GridFormatError, FwmPairsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
