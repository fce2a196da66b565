"""qsdcsim benchmark: seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload qsdc_n1024 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one process each

Run from anywhere inside a source checkout: the program is imported from
the checkout's ``src/`` and nowhere else, and scratch files go to
``.bench_build/perfbench/``. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; a readable
table goes to standard error.

``--trace 0`` measures the end-to-end metrics: one closed loop of
operations until ``--seconds`` of operation time are spent, plus set-up
time measured in fresh interpreters. ``--trace 1`` spends a quarter of it
untraced and a quarter traced, and reports per-layer metrics per session
(per trial on ``ir_sweep``). Both modes check every operation's output, and
that the workload is deterministic in its seed; ``--trace 1`` also checks
that tracing leaves the outputs byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from calibration import START_CODE, START_REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("qsdc_n1024", "ir_sweep", "mc_chain_transcript")
SETUP_SAMPLES = 8
MAX_REPORTED_FAILURES = 5

# Prints the monotonic clock, which is system-wide on Linux, once the
# workload is built, so interpreter teardown and the parent's polling for
# the child's exit stay out of the measurement.
SETUP_CODE = """\
import sys, pathlib, time
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.build({name!r}, {seed!r}, pathlib.Path({workdir!r}))
print(time.perf_counter())
"""


def import_program() -> None:
    """Make ``import qsdcsim`` resolve to this checkout's sources only."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import qsdcsim
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qsdcsim from {SRC}: {exc}")
    if Path(qsdcsim.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: qsdcsim imported from {qsdcsim.__file__}, not {SRC}")


def start_s(code: str) -> float:
    """Wall time from spawning a fresh interpreter running ``code`` to the
    monotonic time it prints."""
    t0 = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=60,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    return float(child.stdout) - t0


def setup_samples(name: str, seed: int, count: int) -> list[float]:
    """Set-up times at reference speed: from spawning a fresh interpreter
    to a constructed workload, each over the reference start that follows
    it."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), name=name, seed=seed, workdir=str(WORKDIR))
    return [start_s(code) / start_s(START_CODE) * START_REFERENCE_S for _ in range(count)]


class Window:
    """One closed-loop measurement window: raw operation times and the
    calibration samples taken between them."""

    def __init__(self) -> None:
        self.calibration = Calibration()
        self.failed = 0
        self.op_s: list[float] = []
        self.op_sessions: list[int] = []
        self.op_batch: list[int] = []

    @property
    def ops(self) -> int:
        return len(self.op_s)

    @property
    def sessions(self) -> int:
        return sum(self.op_sessions)

    @property
    def raw_s(self) -> float:
        return sum(self.op_s)

    @functools.cached_property
    def scaled_s(self) -> list[float]:
        """Operation times at reference machine speed."""
        return [t * self.calibration.scale(i) for i, t in enumerate(self.op_s)]

    @property
    def sessions_per_s(self) -> float:
        return self.sessions / sum(self.scaled_s)

    @property
    def latency_ms(self) -> list[float]:
        return [1e3 * t / n for t, n in zip(self.scaled_s, self.op_sessions) if n]

    @property
    def batch_s(self) -> list[float]:
        batches = [0.0] * (self.op_batch[-1] + 1)
        for t, b in zip(self.scaled_s, self.op_batch):
            batches[b] += t
        return batches


def fail(window: Window, message: str) -> None:
    window.failed += 1
    if window.failed <= MAX_REPORTED_FAILURES:
        print(f"perfbench: FAILED: {message}", file=sys.stderr)


def run_window(workload: Any, seconds: float) -> Window:
    """Run whole batches of operations until ``seconds`` of raw operation
    time are spent. Only ``run`` is timed; preparing inputs, calibrating
    and checking outputs are not."""
    window = Window()
    window.calibration.sample()
    wall_cap = time.perf_counter() + 4 * seconds + 30
    batch = 0
    while window.raw_s < seconds and time.perf_counter() < wall_cap:
        for _ in range(workload.batch):
            inputs = workload.prepare()
            t0 = time.perf_counter()
            try:
                sessions, output = workload.run(inputs)
            except Exception:
                sessions, output = 0, None
                fail(window, traceback.format_exc())
            window.op_s.append(time.perf_counter() - t0)
            window.calibration.sample()
            window.op_sessions.append(sessions)
            window.op_batch.append(batch)
            if sessions:
                error = workload.check(output)
                if error:
                    fail(window, error)
        batch += 1
    return window


def first_output(name: str, seed: int) -> bytes:
    """Output bytes of the first operation of a freshly built workload."""
    import workloads

    workload = workloads.build(name, seed, WORKDIR)
    _sessions, output = workload.run(workload.prepare())
    return workload.output_bytes(output)


def determinism_error(name: str, seed: int) -> str | None:
    try:
        first = first_output(name, seed)
        again = first_output(name, seed)
        other = first_output(name, seed + 1)
    except Exception:
        return traceback.format_exc()
    if again != first:
        return "two runs with the same seed gave different outputs"
    if other == first:
        return "runs with different seeds gave the same output"
    return None


def neutrality_error(name: str, seed: int) -> str | None:
    from tracing import Tracer

    tracer = Tracer()
    try:
        plain = first_output(name, seed)
        tracer.install()
        traced = first_output(name, seed)
    except Exception:
        return traceback.format_exc()
    finally:
        tracer.uninstall()
    if traced != plain:
        return "traced and untraced runs gave different outputs"
    return None


def end_to_end_metrics(window: Window, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "sessions_per_s": (window.sessions_per_s, "1/s"),
        "session_ms_p50": (statistics.median(window.latency_ms), "ms"),
        "session_ms_p90": (statistics.quantiles(window.latency_ms, n=10)[8], "ms"),
        "wall_s": (statistics.median(window.batch_s), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(tracer: Any, traced: Window, plain: Window) -> dict[str, tuple[float, str]]:
    """Per-session layer figures from one traced window; see README.md for
    which end-to-end metric each should move."""
    summary, counters = tracer.summary(), tracer.counters
    n = traced.sessions
    scale = traced.calibration.window_scale()

    def per_session(span: str, key: str) -> float:
        value = summary.get(span, {}).get(key, 0.0) / n
        return value if key == "calls" else value * scale

    def ratio(counter: str, span: str) -> float:
        calls = summary.get(span, {}).get("calls", 0.0)
        return counters.get(counter, 0) / calls if calls else 0.0

    out: dict[str, tuple[float, str]] = {}
    for span in ("quantum.apply_op", "quantum.measure", "quantum.state_from_label", "attacks.relay"):
        out[f"{span}.calls"] = (per_session(span, "calls"), "count/session")
        out[f"{span}.s"] = (per_session(span, "s"), "s/session")
    for span in ("fabric.transmit", "fabric.announce", "harness.run_trial"):
        out[f"{span}.calls"] = (per_session(span, "calls"), "count/session")
        out[f"{span}.self_s"] = (per_session(span, "self_s"), "s/session")
    out["fabric.lost_frac"] = (ratio("fabric.lost", "fabric.transmit"), "frac")
    out["fabric.transcript.events"] = (per_session("fabric.transcript.record", "calls"), "count/session")
    out["fabric.transcript.bytes"] = (counters.get("fabric.transcript.bytes", 0) / n, "B/session")
    out["fabric.transcript.record_s"] = (per_session("fabric.transcript.record", "s"), "s/session")
    out["fabric.transcript.to_jsonl_s"] = (per_session("fabric.transcript.to_jsonl", "s"), "s/session")
    for span in (
        "protocol.prepare_p_sequence",
        "protocol.select_check_positions",
        "protocol.encode",
        "protocol.rearrange",
        "protocol.transmit_sequence",
        "protocol.run_check",
        "protocol.reveal_order_and_decode",
        "multiparty.controller_pass",
        "multiparty.release_and_reconstruct",
        "attacks.build_attack",
        "attacks.report",
        "harness.derive_seed",
        "harness.aggregate_trials",
        "harness.sweep_csv",
        "cli.main",
        "cli.load_config",
    ):
        out[f"{span}.s"] = (per_session(span, "s"), "s/session")
    for span in ("protocol.run_session", "multiparty.mc_check_round", "multiparty.run_mc_session"):
        out[f"{span}.self_s"] = (per_session(span, "self_s"), "s/session")
    out["multiparty.mc_check_round.announcements"] = (
        tracer.calls_within("fabric.announce", "multiparty.mc_check_round") / n,
        "count/session",
    )
    out["attacks.detected_frac"] = (ratio("attacks.detected", "attacks.report"), "frac")
    from tracing import LAYERS

    for layer in LAYERS:
        self_s = sum(v["self_s"] for span, v in summary.items() if span.startswith(layer + "."))
        out[f"{layer}.self_s"] = (self_s * scale / n, "s/session")
    out["trace.session_s"] = (traced.raw_s * scale / n, "s/session")
    out["trace.overhead_frac"] = (plain.sessions_per_s / traced.sessions_per_s - 1.0, "frac")
    return out


def report(name: str, seed: int, trace: int, windows: list[Window], errors: list[str | None],
           metrics: dict[str, tuple[float, str]]) -> dict[str, Any]:
    attempted = sum(w.ops for w in windows) + len(errors)
    failed = sum(w.failed for w in windows) + sum(1 for e in errors if e)
    for error in filter(None, errors):
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
    print(f"{name} seed={seed} trace={trace}: {attempted} attempted, {failed} failed "
          f"(failure_frac {failed / attempted:.4g})", file=sys.stderr)
    for w in windows:
        print(f"  window: {w.sessions} sessions, {len(w.latency_ms)} latency samples, "
              f"{len(w.batch_s)} batches; {w.raw_s:.3f} s of operations, "
              f"{sum(w.scaled_s):.3f} s at reference speed ({w.sessions / w.raw_s:.6g} raw sessions/s)",
              file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:44s} {value:14.6g} {unit}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    import_program()
    import workloads

    errors = [determinism_error(name, seed)]
    if not trace:
        # The first pair of starts only warms the bytecode cache.
        setup_s = statistics.median(setup_samples(name, seed, SETUP_SAMPLES + 1)[1:])
        workload = workloads.build(name, seed, WORKDIR)
        window = run_window(workload, seconds)
        errors.append(workload.finish())
        return report(name, seed, trace, [window], errors, end_to_end_metrics(window, setup_s))

    from tracing import Tracer

    errors.append(neutrality_error(name, seed))
    workload = workloads.build(name, seed, WORKDIR)
    plain = run_window(workload, seconds / 4)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_window(workload, seconds / 4)
    finally:
        tracer.uninstall()
    errors.append(workload.finish())
    tracer.write(WORKDIR / f"spans-{name}.npz")
    metrics = per_layer_metrics(tracer, traced, plain)
    return report(name, seed, trace, [plain, traced], errors, metrics)


def run_all(seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """Every workload in its own process, one after another."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
