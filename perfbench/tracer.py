"""Span tracing of fwmpairs layers, from outside the program.

Run as a script, it wraps the public entry points of each fwmpairs layer
in spans, runs one CLI command in-process, and writes the spans as JSON:

    python3 perfbench/tracer.py SPANS.json simulate-jsi --config cfg.json

A span records its name, start, end, parent span, thread and the work
counters of the call.  ``aggregate`` turns the spans of several steps
into per-layer totals: calls, counters, total time (summed span
durations) and self time, a span's duration minus the union of its child
spans.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np


# span name -> (module, attribute path, {counter: fn(bound_args, result)})
LAYERS = {
    "dispersion.lp_effective_index": (
        "dispersion", "lp_effective_index",
        {"points": lambda b, r: int(np.size(b.arguments["lam_um"]))}),
    "processes.phasematched_center": (
        "processes", "phasematched_center", {}),
    "processes.delta_k_vec": (
        "processes", "delta_k_vec",
        {"points": lambda b, r: int(np.broadcast(
            np.asarray(b.arguments["lam_s_um"]),
            np.asarray(b.arguments["lam_i_um"])).size)}),
    "fields.process_overlap": ("fields", "process_overlap", {}),
    "fields.intensity_image": ("fields", "intensity_image", {}),
    "spectrum.jsa_grid": (
        "spectrum", "jsa_grid",
        {"points": lambda b, r: int(r.combined.size)}),
    "spectrum.fit_lobes": (
        "spectrum", "fit_lobes", {"nfev": lambda b, r: int(r.iterations)}),
    "estimation.trace_spectral": (
        "estimation", "trace_spectral",
        {"nodes": lambda b, r: int(b.arguments["nodes"]) ** 2}),
    "tomography.mle_reconstruct": (
        "tomography", "mle_reconstruct",
        {"iterations": lambda b, r: int(r.iterations)}),
    "tomography.bootstrap_metrics": (
        "tomography", "bootstrap_metrics",
        {"samples": lambda b, r: int(r.n_samples),
         "failures": lambda b, r: int(r.failures)}),
    "gridio.write_grid_csv": (
        "gridio", "write_grid_csv",
        {"bytes": lambda b, r: os.path.getsize(b.arguments["path"])}),
    "gridio.load_grid_csv": ("gridio", "load_grid_csv", {}),
    "gridio.render_svg_heatmap": ("gridio", "render_svg_heatmap", {}),
    "pipeline.Simulation": ("pipeline", "Simulation.__init__", {}),
    "pipeline.Runner.finish": ("pipeline", "Runner.finish", {}),
    "config.load_config": ("config", "load_config", {}),
}
ROOT = "cli.main"


class Recorder:
    """Spans kept in memory; each thread has its own stack of open spans.

    A span opened on a worker thread with no open span of its own gets
    the innermost open span of the main thread as parent: the layer that
    started the pool.
    """

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._main_stack: list = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = {"name": name, "parent": parent,
                "thread": threading.get_ident(), "counts": {}}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, counters: dict):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = {k: f(bound, result)
                                  for k, f in counters.items()}
            return result

        traced.__wrapped__ = fn
        return traced


def install(recorder: Recorder) -> None:
    """Wrap every layer and rebind it in each fwmpairs namespace.

    ``pipeline``, ``spectrum`` and ``estimation`` import functions by
    name, so patching the defining module alone would miss their calls.
    """
    import fwmpairs.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "fwmpairs" or n.startswith("fwmpairs.")]
    for name, (mod_name, attr, counters) in LAYERS.items():
        owner = sys.modules[f"fwmpairs.{mod_name}"]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = recorder.wrap(name, original, counters)
        setattr(owner, leaf, wrapper)
        if not path:
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)


def _union(intervals: list) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def aggregate(spans: list) -> dict:
    """Per-layer calls, counters, total and self time over ``spans``."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        self_s = (s["end"] - s["start"]) - _union(
            [(a, b) for a, b in kids if b > a])
        row = out.setdefault(s["name"],
                             {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += self_s
        for key, val in s["counts"].items():
            row[key] = row.get(key, 0) + val
    return out


def main(argv: list) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    recorder = Recorder()
    install(recorder)
    from fwmpairs import cli

    root = recorder.open(ROOT)
    try:
        code = cli.main(cli_args)
    finally:
        recorder.close(root)
        spans_path.write_text(json.dumps(recorder.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
