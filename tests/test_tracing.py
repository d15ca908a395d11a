"""The benchmark's traced run against the library attributes it wraps."""

import importlib.util
from pathlib import Path

from conftest import DATA
from geodual.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sid_run_matches_the_cli(capsys):
    # `Tracer.wrappers` looks every wrapped attribute up by name, so a
    # missing one raises AttributeError here.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.wrappers():
        metrics = tracing.sid_pipeline(DATA / "rung.mf", tracer)
    assert main(["sid", str(DATA / "rung.mf")]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if " -> " in line]
    assert metrics["sid.rules_out"] == len(printed) > 0
    spans = {name for _, _, _, name, _, _ in tracer.spans}
    assert {"sid.partition_meets", "sid.predecessors"} <= spans
