"""The benchmark tracer wraps package functions by name: a rename under src/
must fail here, not only in a benchmark run."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [name for owner, attr, name, _ in tracer.TRACED if not hasattr(owner, attr)]
    assert missing == []
