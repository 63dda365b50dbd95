"""The command layer: each command's summary lines, and the README's
command block against the command table."""

import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from fwmpairs.cli import COMMANDS, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

CONFIG = {
    "grid": {"points_s": 41, "points_i": 41},
    "windows": [{"lambda_s_nm": [673.0, 681.0],
                 "lambda_i_nm": [567.5, 574.5]}],
    "tomography": {"counts_scale": 2000, "n_samples": 5},
}

# (argv after --config, with paths relative to the run directory; the
# lines the command prints; the files its manifest lists)
RUNS = [
    (["simulate-jsi", "--out", "jsi"], [
        "A: fitted center (682.335, 568.103) nm, R^2 = 0.9982",
        "B: fitted center (679.775, 569.890) nm, R^2 = 0.9983",
        "C: fitted center (677.982, 571.157) nm, R^2 = 0.9982",
        "D: fitted center (675.538, 572.902) nm, R^2 = 0.9981"],
     {"jsi.csv", "jsi_meta.json", "lobes.json", "lobe_centers.csv"}),
    (["sweep-delta", "--out", "sweep", "--deltas", "0", "3e-5"], [
        "delta = 0: B-C separation 0.0000 nm",
        "delta = 3e-05: B-C separation 1.2661 nm"],
     {"jsi_delta0.csv", "jsi_delta1.csv", "separations.csv"}),
    # without --deltas: the default sweep
    (["sweep-delta", "--out", "sweep_default"], [
        "delta = 0: B-C separation 0.0000 nm",
        "delta = 1.5e-05: B-C separation 0.6392 nm",
        "delta = 3e-05: B-C separation 1.2661 nm"],
     {"jsi_delta0.csv", "jsi_delta1.csv", "jsi_delta2.csv",
      "separations.csv"}),
    (["fit-lobes", "--out", "fit", "--input", "jsi/jsi.csv"], [
        "global R^2 = 0.9956"],
     {"lobes.json"}),
    (["estimate-rho", "--out", "rho"], [
        "window 0: concurrence 0.0718, bell fidelity 0.4626 "
        "(unsquared 0.6802), purity 0.3742"],
     {"rho_se_w0.json", "windows.csv"}),
    (["qst-simulate", "--out", "qst", "--rho", "rho/rho_se_w0.json",
      "--seed", "42"], [
        "sampled 36 projectors, total counts 17960"],
     {"counts.json", "expected_rates.json"}),
    (["qst-reconstruct", "--out", "qstr", "--counts", "qst/counts.json",
      "--seed", "42"], [
        "concurrence: 0.0688 (bootstrap 0.0726 +/- 0.0189)",
        "bell_fidelity: 0.4561 (bootstrap 0.4509 +/- 0.0102)",
        "purity: 0.3726 (bootstrap 0.3734 +/- 0.0037)"],
     {"rho_qst.json"}),
    (["compare", "--out", "cmp", "--rho-a", "qstr/rho_qst.json",
      "--rho-b", "rho/rho_se_w0.json"], [
        "fidelity (squared convention):   0.9985",
        "fidelity (unsquared convention): 0.9992",
        "phase-blind |rho_a| vs rho_b (squared):   0.9996",
        "phase-blind |rho_a| vs rho_b (unsquared): 0.9998"],
     {"compare.json"}),
    (["render", "--out", "img", "--input", "jsi/jsi.csv",
      "--lobes-json", "jsi/lobes.json"], [],
     {"jsi.pgm", "jsi.svg"}),
    (["modes", "--out", "modes"], [],
     {*(f"mode_{state}.pgm" for state in "geodarl"), "mode_mix_eo.pgm",
      "modes_meta.json"}),
    (["overlaps", "--out", "ov"], [
        "C (eeee): |O|^2 = 0.3368, weight 0.3368",
        "D (eoeo): |O|^2 = 0.1508, weight 0.1508",
        "A (eooe): |O|^2 = 0.1476, weight 0.1476",
        "E (ooee): |O|^2 = 0.0299, weight 0.0299",
        "B (oooo): |O|^2 = 0.3349, weight 0.3349"],
     {"overlaps.csv"}),
]


def readme_output_files() -> dict:
    """command -> the file names of its row in the README "File formats"
    table, each ``<placeholder>`` read as a regex for one name part."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### File formats"):]
    section = section[:section.index("\n## ")]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", section, re.M)
    return {command: [re.sub(r"<\w+>", r"\\w+", re.escape(name))
                      for name in re.findall(r"`([^`]+)`", cells)]
            for command, cells in rows}


def test_every_command_prints_its_summary_lines(tmp_path, capsys):
    # ... and writes the files of its RUNS entry, each listed in its
    # manifest, and nothing else; no manifest records a run value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert list(dict.fromkeys(argv[0] for argv, _, _ in RUNS)) == list(
        COMMANDS)
    for argv, lines, files in RUNS:
        # every value after --out and every path names a file in tmp_path
        args = [str(tmp_path / a) if "/" in a or prev == "--out" else a
                for prev, a in zip([None, *argv], argv)]
        code = main([args[0], "--config", str(config), *args[1:]])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv[0]
        assert out.splitlines() == lines, argv[0]
        out_dir = Path(args[argv.index("--out") + 1])
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert {entry["path"] for entry in manifest["outputs"]} == files, (
            argv[0])
        assert not {"seed", "threads"} & set(manifest), argv[0]
        assert {p.name for p in out_dir.iterdir()} == files | {
            "manifest.json", "timings.txt"}, argv[0]
        # only render draws a grid
        assert argv[0] == "render" or not any(
            name.endswith(".svg") for name in files), argv[0]


def test_readme_lists_every_command_output_file():
    # each file matches one pattern of its command's README row, and each
    # pattern some file
    documented = readme_output_files()
    assert list(documented) == list(COMMANDS)
    for (command, *_), _, files in RUNS:
        patterns = documented[command]
        for name in files:
            assert sum(bool(re.fullmatch(pat, name))
                       for pat in patterns) == 1, (command, name)
        for pat in patterns:
            assert any(re.fullmatch(pat, name) for name in files), (
                command, pat)


# ---------------------------------------------------------------------------
# the README's command block parses, and names every command and flag


def readme_command_lines() -> list:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command-line interface"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    return [ln for ln in block.splitlines() if ln.startswith("fwmpairs ")]


def variants(line: str) -> list:
    """``line`` with each optional ``[a | b]`` part dropped or expanded to
    one of its alternatives, in every combination."""
    parts = re.split(r"\[([^\]]*)\]", line)
    choices = [[p] if k % 2 == 0 else ["", *p.split("|")]
               for k, p in enumerate(parts)]
    return [" ".join("".join(c).split())
            for c in itertools.product(*choices)]


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_parses(line):
    for variant in variants(line):
        tokens = shlex.split(variant)[1:]
        args = build_parser().parse_args(tokens)
        assert args.command == tokens[0]


def test_readme_names_every_command_and_flag():
    lines = {ln.split()[1]: ln for ln in readme_command_lines()}
    assert set(lines) == set(COMMANDS)
    for name, (_, _, flags) in COMMANDS.items():
        for names, _, _ in flags:
            assert re.search(rf"{names[0]}(?![\w-])", lines[name]), (
                name, names[0])
