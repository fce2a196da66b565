"""The benchmark's contract with the program, checked in the test suite:
every perfbench workload builds, runs one operation and passes its own
output gates, and its per-layer tracer wraps every function it names and
leaves the output byte-identical. A traced function renamed away, or a
gated label or CSV column changed, fails here rather than only in a
benchmark run. The perfbench files are loaded read-only from their
paths."""
import importlib.util
import json
from pathlib import Path

import pytest

from qsdcsim import fabric, multiparty

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracing = load("tracing")

#: The traced names that no workload calls: their spans read 0 everywhere.
UNREACHED = {
    "attacks.report",
    "harness.run_trial",
    "multiparty.release_and_reconstruct",
    "quantum.apply_op",
    "quantum.state_from_label",
}


def test_traced_symbols_resolve():
    """Every function and method the tracer wraps is still defined under
    its name, so removing one fails here, naming it, rather than with an
    ``AttributeError`` or ``KeyError`` from inside ``Tracer.install``."""
    missing = [f"{module.__name__}.{name}" for module, name, _span in tracing.FUNCTIONS
               if not callable(getattr(module, name, None))]
    missing += [f"{cls.__module__}.{cls.__qualname__}.{name}" for cls, name, _span in tracing.METHODS
                if not callable(vars(cls).get(name))]
    assert not missing, (
        f"perfbench traces {', '.join(missing)} by name; keep each until the benchmark "
        "stops naming it (ROADMAP item 1)"
    )


def run_gated_and_traced(name: str, tmp_path: Path) -> dict[str, dict[str, float]]:
    """Run one operation of a workload plain and then traced, check that
    both pass its gates with the same output, and return the span summary."""
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
    assert workload.output_bytes(traced) == workload.output_bytes(result)
    return tracer.summary()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_gated_and_traced(name, tmp_path):
    summary = run_gated_and_traced(name, tmp_path)
    # Every workload decodes, and the decoder is traced under its own name.
    assert summary["protocol.reveal_order_and_decode"]["calls"] > 0


def test_unreached_traced_names_are_pinned(tmp_path):
    """A traced name that stops being called reads 0 in every benchmark
    run; adding one to ``UNREACHED`` has to be a deliberate edit."""
    summaries = [run_gated_and_traced(name, tmp_path) for name in sorted(workloads.WORKLOADS)]
    unreached = {span for span in summaries[0] if all(s[span]["calls"] == 0 for s in summaries)}
    assert unreached == UNREACHED


def test_transcript_is_one_line_per_entry(tmp_path, monkeypatch):
    """The ``mc_chain_transcript`` operation writes one line per transcript
    entry, a few dozen in all, and its staging gate still refuses a copy
    with the message order moved before the check decision."""
    kinds = []
    record = fabric.Transcript.record

    def counted(self, kind, stage, **fields):
        kinds.append(kind)
        record(self, kind, stage, **fields)

    monkeypatch.setattr(fabric.Transcript, "record", counted)
    workload = workloads.build("mc_chain_transcript", 1, tmp_path)
    _sessions, (_outcome, jsonl) = workload.run(workload.prepare())
    lines = jsonl.split("\n")
    assert len(lines) == len(kinds) <= 40
    assert workloads.transcript_staging_errors(jsonl) is None
    labels = [json.loads(line).get("label") for line in lines]
    lines.insert(labels.index("check_decision"), lines.pop(labels.index("message_order")))
    assert workloads.transcript_staging_errors("\n".join(lines)) is not None
