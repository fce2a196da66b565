"""The benchmark's contract with the program, checked in the test suite:
every perfbench workload builds, runs one operation and passes its own
output gates, and its per-layer tracer wraps every function it names and
leaves the output byte-identical. A traced function renamed away, or a
gated label or CSV column changed, fails here rather than only in a
benchmark run. The perfbench files are loaded read-only from their
paths."""
import importlib.util
from pathlib import Path

import pytest

from qsdcsim import multiparty

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracing = load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_gated_and_traced(name, tmp_path):
    workload = workloads.build(name, 1, tmp_path)
    operation = workload.prepare()
    _sessions, result = workload.run(operation)
    assert workload.check(result) is None
    assert workload.finish() is None

    original = multiparty.mc_check_round
    tracer = tracing.Tracer()
    try:
        tracer.install()
        _sessions, traced = workload.run(operation)
    finally:
        tracer.uninstall()
    assert multiparty.mc_check_round is original
    assert tracer.summary()
    assert workload.output_bytes(traced) == workload.output_bytes(result)
