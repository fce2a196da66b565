"""The benchmark's three workloads.

Each workload turns the benchmark seed into a stream of operations, runs
one operation through a public entry point of qsdcsim (``run_session``,
``run_mc_session`` or ``cli.main``), and checks the result. ``prepare``
and ``check`` are not timed; ``run`` is. Entry points are looked up on
their module at call time, so the traced run sees the wrapped versions.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import random
from pathlib import Path
from typing import Any

from qsdcsim import attacks, cli, fabric, multiparty, protocol

#: One-sided tail probability of the detection band: a normal 5-sigma
#: deviation. Kept wide because an exact engine may draw its randomness
#: differently and must not trip the check.
BAND_TAIL = 2.9e-7


def _session_seeds(seed: int) -> random.Random:
    return random.Random(f"perfbench:{seed}")


def _decode_errors(outcome: protocol.SessionOutcome, all_positions: bool) -> str | None:
    """The decode gate: no abort, and every decoded bit equals the sent
    bit it claims to carry."""
    if outcome.aborted:
        return f"session aborted (error rate {outcome.measured_error_rate})"
    bits, positions, sent = outcome.decoded_bits, outcome.decoded_positions, outcome.message_sent
    if bits is None or positions is None or len(bits) != len(positions):
        return "decoded bits and positions missing or misaligned"
    if all_positions and positions != list(range(len(sent))):
        return "a lossless session did not decode every message position"
    if any(not 0 <= k < len(sent) for k in positions) or positions != sorted(positions):
        return "decoded positions out of range or unsorted"
    wrong = sum(1 for bit, k in zip(bits, positions) if bit != sent[k])
    if wrong:
        return f"{wrong} of {len(bits)} decoded bits differ from the sent message"
    return None


def _outcome_bytes(outcome: protocol.SessionOutcome) -> bytes:
    return json.dumps(
        [outcome.aborted, outcome.measured_error_rate, outcome.message_sent,
         outcome.decoded_bits, outcome.decoded_positions]
    ).encode()


class QsdcN1024:
    """Honest two-party sessions, N=1024, no noise, loss, attack or
    transcript: the per-photon kernel, fabric and protocol bookkeeping."""

    name = "qsdc_n1024"
    batch = 32

    def __init__(self, seed: int, workdir: Path) -> None:
        self._seeds = _session_seeds(seed)
        self._template = protocol.SessionConfig(n_photons=1024)

    def prepare(self) -> protocol.SessionConfig:
        return dataclasses.replace(self._template, seed=self._seeds.getrandbits(63))

    def run(self, config: protocol.SessionConfig) -> tuple[int, protocol.SessionOutcome]:
        return 1, protocol.run_session(config)

    def check(self, outcome: protocol.SessionOutcome) -> str | None:
        return _decode_errors(outcome, all_positions=True)

    def finish(self) -> str | None:
        return None

    @staticmethod
    def output_bytes(outcome: protocol.SessionOutcome) -> bytes:
        return _outcome_bytes(outcome)


def transcript_staging_errors(jsonl: str) -> str | None:
    """Check, from the serialized transcript alone, that the message order
    and every controller release are announced only after a check
    decision that did not abort."""
    passed = False
    releases = orders = 0
    for line in jsonl.splitlines():
        event = json.loads(line)
        if event["kind"] != "announcement":
            continue
        label = event["label"]
        if label == "check_decision":
            if event["payload"]["aborted"]:
                return "check decision aborted the session"
            passed = True
        elif label in ("message_order", "release"):
            if not passed:
                return f"{label} announced before a passing check decision"
            orders += label == "message_order"
            releases += label == "release"
    if orders != 1 or releases != McChainTranscript.controllers:
        return f"expected 1 message_order and {McChainTranscript.controllers} releases"
    return None


class McChainTranscript:
    """Honest controlled sessions, m=3, N=536, 5% loss on every leg, each
    with a transcript serialized to JSON Lines as ``run --transcript``
    does: the announcement dance, the transcript and loss bookkeeping."""

    name = "mc_chain_transcript"
    batch = 8
    controllers = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self._seeds = _session_seeds(seed)
        self._template = multiparty.McSessionConfig(
            n_photons=536, loss=0.05, controllers=self.controllers
        )

    def prepare(self) -> multiparty.McSessionConfig:
        return dataclasses.replace(self._template, seed=self._seeds.getrandbits(63))

    def run(self, config: multiparty.McSessionConfig) -> tuple[int, tuple[Any, str]]:
        transcript = fabric.Transcript()
        outcome = multiparty.run_mc_session(config, transcript=transcript)
        return 1, (outcome, transcript.to_jsonl())

    def check(self, result: tuple[protocol.SessionOutcome, str]) -> str | None:
        outcome, jsonl = result
        return _decode_errors(outcome, all_positions=False) or transcript_staging_errors(jsonl)

    def finish(self) -> str | None:
        return None

    @staticmethod
    def output_bytes(result: tuple[protocol.SessionOutcome, str]) -> bytes:
        outcome, jsonl = result
        return _outcome_bytes(outcome) + jsonl.encode()


def binomial_tails(k: int, n: int, q: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, 1 - q); taking the miss
    probability q keeps precision when detection is nearly certain."""
    log_p, log_q = math.log1p(-q), math.log(q)

    def pmf(i: int) -> float:
        log_c = math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        return math.exp(log_c + i * log_p + (n - i) * log_q)

    return sum(pmf(i) for i in range(k + 1)), sum(pmf(i) for i in range(k, n + 1))


def detection_band_errors(check_count: int, detected: int, trials: int) -> str | None:
    """Is ``detected`` out of ``trials`` consistent with the closed form
    ``1 - (3/4)^n`` at about 5 sigma?"""
    miss = 1.0 - attacks.intercept_resend_detection(check_count)
    low, high = binomial_tails(detected, trials, miss)
    if min(low, high) < BAND_TAIL:
        expected = attacks.intercept_resend_detection(check_count)
        return (
            f"check_count={check_count}: {detected}/{trials} detected, "
            f"expected {expected:.4f} (tail {min(low, high):.2e})"
        )
    return None


class IrSweep:
    """In-process CLI sweeps: qsdc with intercept-resend, N=33, error
    threshold 0, check_count over {1, 2, 4, 8, 16, 32}: the attack tap
    chain and the harness per-trial cost."""

    name = "ir_sweep"
    batch = 1
    check_counts = (1, 2, 4, 8, 16, 32)
    trials = 20
    header = ["check_count", "trials", "detection_freq", "mean_error_rate", "stderr", "accuracy"]

    def __init__(self, seed: int, workdir: Path) -> None:
        self._seeds = _session_seeds(seed)
        self._config_path = workdir / "ir_sweep.json"
        self._config = {
            "protocol": "qsdc",
            "n_photons": 33,
            "error_threshold": 0.0,
            "attack": {"name": "intercept_resend"},
            "trials": self.trials,
            "sweep": {"check_count": list(self.check_counts)},
        }
        self._detected = dict.fromkeys(self.check_counts, 0)
        self._sweeps = 0

    def prepare(self) -> list[str]:
        config = dict(self._config, seed=self._seeds.getrandbits(63))
        self._config_path.write_text(json.dumps(config), encoding="utf-8")
        return ["sweep", "--config", str(self._config_path)]

    def run(self, argv: list[str]) -> tuple[int, tuple[int, str]]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return self.trials * len(self.check_counts), (code, out.getvalue())

    def check(self, result: tuple[int, str]) -> str | None:
        code, text = result
        if code != 0:
            return f"sweep exited with code {code}"
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != self.header:
            return f"unexpected CSV header {rows[:1]}"
        body = rows[1:]
        if [row[0] for row in body] != [str(n) for n in self.check_counts]:
            return f"expected {len(self.check_counts)} rows, one per check_count"
        detections = {}
        for row in body:
            n, trials, freq = int(row[0]), int(row[1]), float(row[2])
            detected = round(freq * trials)
            if trials != self.trials or not math.isclose(detected / trials, freq, abs_tol=1e-5):
                return f"row {row}: bad trial count or detection frequency"
            error = detection_band_errors(n, detected, trials)
            if error:
                return error
            detections[n] = detected
        for n, detected in detections.items():
            self._detected[n] += detected
        self._sweeps += 1
        return None

    def finish(self) -> str | None:
        """The same band over every sweep of the run pooled together."""
        if not self._sweeps:
            return None
        for n, detected in self._detected.items():
            error = detection_band_errors(n, detected, self._sweeps * self.trials)
            if error:
                return f"pooled over {self._sweeps} sweeps: {error}"
        return None

    @staticmethod
    def output_bytes(result: tuple[int, str]) -> bytes:
        code, text = result
        return f"{code}\n{text}".encode()


WORKLOADS = {w.name: w for w in (QsdcN1024, IrSweep, McChainTranscript)}


def build(name: str, seed: int, workdir: Path):
    """Construct a workload: everything a run needs before its first
    operation."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
