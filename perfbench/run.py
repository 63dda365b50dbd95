"""fwmpairs benchmark: run one workload the way a user runs the CLI.

    python3 perfbench/run.py --workload lobes_10cm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every step is a fresh
``python3 -m fwmpairs.cli`` process, started one after another; the
driver itself runs no work in parallel.  A pass runs all steps of the
workload and then checks their outputs; passes repeat while the next one
fits in ``--seconds`` (at least one runs) and metrics are pass medians.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
pass twice, plain and then with every step under ``tracer.py``, and
prints the per-layer metrics plus the tracing overhead.  The last line
of standard output is the result object (``--workload all`` prints one
per workload, in turn); the full record (versions, nproc, commit, seed,
per-step times, check details) is written to ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYERS, ROOT as ROOT_SPAN, aggregate  # noqa: E402

COMMANDS = ("simulate-jsi", "sweep-delta", "fit-lobes", "estimate-rho",
            "qst-simulate", "qst-reconstruct", "compare", "render", "modes",
            "overlaps")
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # every step is killed past this point of the run
SETUP_CODE = (
    "import json, sys, numpy, scipy\n"
    "import fwmpairs.cli\n"
    "from fwmpairs.config import load_config\n"
    "load_config(sys.argv[1])\n"
    "print(json.dumps({'python': sys.version.split()[0], "
    "'numpy': numpy.__version__, 'scipy': scipy.__version__}))\n")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for name, (_, _, counters) in LAYERS.items():
        units[f"{name}.calls"] = "count"
        for key in counters:
            units[f"{name}.{key}"] = "bytes" if key == "bytes" else "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units[f"{ROOT_SPAN}.self_s"] = "s"
    for key in ("overhead_s", "top_level_s", "startup_s", "unaccounted_s"):
        units[f"trace.{key}"] = "s"
    for cmd in COMMANDS:
        units[f"cmd.{cmd}_s"] = "s"
    units["cpu_s"] = "s"
    units["fail_frac"] = "fraction"
    return units


PER_LAYER = per_layer_units()
UNITS = {**END_TO_END, **PER_LAYER}


class Driver:
    """Runs steps in the workload directory, one process at a time."""

    def __init__(self, workload_dir: Path, deadline: float):
        self.dir = workload_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def spawn(self, argv: list, cwd: Path) -> dict:
        """Run one process; wall time, exit code and rusage of that child."""
        out_path, err_path = cwd / "_stdout.txt", cwd / "_stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return {"exit": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "ok": proc.returncode == 0 and "Traceback" not in stderr,
                "stdout": out_path.read_text(encoding="utf-8",
                                             errors="replace"),
                "stderr": stderr[-2000:]}

    def cli(self, argv: list, cwd: Path, spans: Path | None = None) -> dict:
        if spans is None:
            cmd = [sys.executable, "-m", "fwmpairs.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans),
                   *argv]
        result = self.spawn(cmd, cwd)
        result["command"] = argv[0]
        return result

    def setup(self, config: str) -> tuple:
        """Median wall time of a fresh interpreter importing the CLI and
        parsing ``config``, plus the versions that interpreter saw."""
        times, versions = [], {}
        for _ in range(SETUP_REPEATS):
            r = self.spawn([sys.executable, "-c", SETUP_CODE, config],
                           self.dir)
            if not r["ok"]:
                raise RuntimeError(f"set-up failed: {r['stderr']}")
            times.append(r["wall_s"])
            versions = json.loads(r["stdout"].splitlines()[-1])
        return statistics.median(times), versions

    def run_pass(self, plan: workloads.Plan, traced: bool) -> dict:
        pass_dir = self.dir / ("pass_traced" if traced else "pass")
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        steps = []
        start = time.perf_counter()
        for k, argv in enumerate(plan.steps):
            spans = pass_dir / f"_spans{k}.json" if traced else None
            steps.append(self.cli(argv, pass_dir, spans))
        wall = time.perf_counter() - start
        checks = []
        for check in plan.checks:
            try:
                name, ok, detail = check(pass_dir)
            except (OSError, ValueError, KeyError, IndexError,
                    TypeError) as exc:
                name, ok, detail = check.__name__, False, repr(exc)
            checks.append({"name": name, "ok": bool(ok), "detail": detail})
        span_list = []
        if traced:
            for k, step in enumerate(steps):
                path = pass_dir / f"_spans{k}.json"
                step_spans = (json.loads(path.read_text(encoding="utf-8"))
                              if path.exists() else [])
                root = [s for s in step_spans if s["name"] == ROOT_SPAN]
                step["top_level_s"] = sum(s["end"] - s["start"]
                                          for s in root)
                span_list += step_spans
        return {"wall_s": wall, "steps": steps, "checks": checks,
                "spans": span_list}


def pass_metrics(p: dict) -> dict:
    """End-to-end figures of one untraced pass."""
    steps = p["steps"]
    failed = sum(not s["ok"] for s in steps) + sum(
        not c["ok"] for c in p["checks"])
    attempted = len(steps) + len(p["checks"])
    m = {"wall_s": p["wall_s"],
         "cpu_s": sum(s["cpu_s"] for s in steps),
         "peak_rss_mb": max(s["rss_mb"] for s in steps),
         "fail_frac": failed / attempted}
    for cmd in COMMANDS:
        m[f"cmd.{cmd}_s"] = sum(s["wall_s"] for s in steps
                                if s["command"] == cmd)
    return m


def layer_metrics(plain: dict, traced: dict) -> dict:
    """Per-layer figures of one traced pass against its plain twin."""
    agg = aggregate(traced["spans"])
    m = {}
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        m[name] = agg.get(layer, {}).get(key, 0)
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    top = sum(s.get("top_level_s", 0.0) for s in traced["steps"])
    m["trace.top_level_s"] = top
    m["trace.startup_s"] = sum(s["wall_s"] for s in traced["steps"]) - top
    # what of the plain wall time the top-level spans, process start-up
    # and tracing overhead leave unexplained: the driver's own gaps
    m["trace.unaccounted_s"] = plain["wall_s"] - (
        top + m["trace.startup_s"] - m["trace.overhead_s"])
    base = pass_metrics(plain)
    for key in (*(f"cmd.{cmd}_s" for cmd in COMMANDS), "cpu_s", "fail_frac"):
        m[key] = base[key]
    return m


def medians(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


WORKLOADS = {
    "lobes_10cm": workloads.prepare_lobes_10cm,
    "entangled_qst": workloads.prepare_entangled_qst,
    "fiber_sweep": workloads.prepare_fiber_sweep,
}


def run_workload(name: str, args) -> None:
    """Run one workload and print its metrics, result line last."""
    deadline = time.monotonic() + RUN_LIMIT_S
    wdir = WORK / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    driver = Driver(wdir, deadline)
    nproc = len(os.sched_getaffinity(0))
    inputs = wdir / "inputs"
    inputs.mkdir()
    plan = WORKLOADS[name](inputs, args.seed, nproc)
    config = plan.steps[0][plan.steps[0].index("--config") + 1]
    setup_s, versions = driver.setup(config)

    passes, rows = [], []
    start = time.perf_counter()
    while True:
        plain = driver.run_pass(plan, traced=False)
        passes.append(plain)
        if args.trace:
            traced = driver.run_pass(plan, traced=True)
            passes.append(traced)
            rows.append(layer_metrics(plain, traced))
        else:
            rows.append(pass_metrics(plain))
        used = time.perf_counter() - start
        if used + used / len(rows) > args.seconds:
            break

    metrics = medians(rows)
    if not args.trace:
        metrics["setup_s"] = setup_s
    attempted = sum(len(p["steps"]) + len(p["checks"]) for p in passes)
    failed = sum(sum(not s["ok"] for s in p["steps"])
                 + sum(not c["ok"] for c in p["checks"]) for p in passes)

    record = {
        "workload": name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
        **versions, "commit": git_commit(), "passes": len(rows),
        "metrics": metrics, "setup_s": setup_s,
        "passes_detail": [{
            "wall_s": p["wall_s"],
            "steps": [{k: s[k] for k in ("command", "exit", "wall_s",
                                         "cpu_s", "rss_mb", "ok")}
                      | ({"stderr": s["stderr"]} if not s["ok"] else {})
                      for s in p["steps"]],
            "checks": p["checks"]} for p in passes],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {name} seed {args.seed}: {len(rows)} pass(es), "
          f"nproc {nproc}, python {versions['python']}, numpy "
          f"{versions['numpy']}, scipy {versions['scipy']}, "
          f"commit {record['commit']}")
    for check in passes[-1]["checks"]:
        print(f"# check {'ok  ' if check['ok'] else 'FAIL'} "
              f"{check['name']}: {check['detail']}")
    for key, value in metrics.items():
        print(f"{key:48s} {value:14.6g} {UNITS[key]}")
    reported = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]}
                    for k in reported}}), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fwmpairs" / "cli.py").is_file():
        print(f"no fwmpairs sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
