"""The benchmark tracer binds fwmpairs layers by name and reads call
arguments by parameter name; a rename or signature change must fail
here rather than in a traced benchmark pass."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """Execute the tracer's source without writing a bytecode cache."""
    module = types.ModuleType("perfbench_tracer")
    code = compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH),
                   "exec")
    exec(code, module.__dict__)
    return module


LAYERS = load_tracer().LAYERS


def resolve(mod_name: str, attr: str):
    owner = importlib.import_module(f"fwmpairs.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def argument_reads(counter) -> set:
    """Names a counter looks up in ``bound.arguments``: the string
    constants of its code (counters only index arguments by literal)."""
    return {c for c in counter.__code__.co_consts if isinstance(c, str)}


@pytest.mark.parametrize("span", sorted(LAYERS))
def test_layer_resolves_and_counters_read_real_parameters(span):
    mod_name, attr, counters = LAYERS[span]
    target = resolve(mod_name, attr)
    assert callable(target), span
    params = inspect.signature(target).parameters
    for name, counter in counters.items():
        for arg in argument_reads(counter):
            assert arg in params, f"{span}.{name} reads missing {arg!r}"


def test_counter_argument_reads_are_seen():
    # guards argument_reads itself: an empty result would pass vacuously
    reads = set()
    for _, _, counters in LAYERS.values():
        for counter in counters.values():
            reads |= argument_reads(counter)
    assert reads == {"lam_s_um", "lam_i_um", "lam_um", "nodes", "path"}
