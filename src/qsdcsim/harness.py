"""Experiment harness: configuration loading, single runs, parameter
sweeps with binomial statistics, and the exhaustive self-test.

Every run is fully determined by (config, seed), through child seeds
derived from the master seed and indices, so repeated runs are
byte-identical. A sweep point of either protocol draws its trials from
one generator seeded with ``derive_seed(seed, point)``, in consecutive
batches of at most ``BATCH_PHOTONS`` photons.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from .attacks import Attack, BatchReport, build_attack
from .errors import ConfigError
from .fabric import NoiseKind, NoiseModel, Transcript
from .multiparty import McSessionConfig
from .protocol import SessionConfig, SessionOutcome, run_session, run_sessions
from .quantum import (
    ATOL,
    CANONICAL_LABELS,
    Basis,
    OpLabel,
    StateLabel,
    apply_op,
    apply_op_symbolic,
    compose_effects,
    measure,
    state_from_label,
    unitary_matrix,
)

PROTOCOLS = ("qsdc", "mcqsdc")
#: The annotation of each session field of either protocol, in declaration
#: order; a two-party session holds ``controllers`` at 0.
SESSION_FIELDS = {f.name: f.type for f in fields(McSessionConfig)}
#: Every session field but the seed, with ``noise_p`` for the noise
#: probability.
SWEEP_AXES = tuple("noise_p" if f == "noise" else f for f in SESSION_FIELDS if f != "seed")

#: The photon budget of one batch of a sweep point: a fixed part of
#: the seeding rule of sweep CSVs, which bounds a batch's memory.
BATCH_PHOTONS = 1 << 16


def derive_seed(*parts: int) -> int:
    """Deterministic child seed from a master seed and index path."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1, np.uint64)[0])


def three_sigma_band(p: float, n: int) -> float:
    """Half-width of the 3-sigma binomial band around proportion p at n
    trials; acceptance statements quote this band."""
    if n <= 0:
        raise ConfigError("band needs at least one trial")
    return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _as_int(key: str, value: Any) -> int:
    """Accept JSON numbers that are integral; reject anything fractional."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _as_float(key: str, value: Any) -> float:
    """Accept JSON numbers; reject strings, booleans and anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _coerce(key: str, value: Any) -> Any:
    """The JSON value of a session field or sweep axis, coerced by the
    field's annotation (int, float, or either or None); ``noise_p`` is a float."""
    kind = "float" if key == "noise_p" else SESSION_FIELDS[key]
    if value is None and kind.endswith(" | None"):
        return None
    return _as_int(key, value) if kind.startswith("int") else _as_float(key, value)


def _with(session: SessionConfig, values: Mapping[str, Any]) -> SessionConfig:
    """``session`` with the JSON ``values`` of some of its fields or sweep
    axes in place, checked like any session."""
    changes = {key: _coerce(key, value) for key, value in values.items()}
    if "noise_p" in changes:
        changes["noise"] = NoiseModel(session.noise.kind, changes.pop("noise_p"))
    if not isinstance(session, McSessionConfig) and changes.pop("controllers", 0):
        raise ConfigError("controllers are only meaningful for mcqsdc")
    return replace(session, **changes)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the session parameters, whose class is the protocol
    and whose seed is the master seed, the attack, the trial count and
    optional sweep axes."""

    session: SessionConfig = field(default_factory=SessionConfig)
    attack_name: str = "none"
    attack_params: dict[str, Any] = field(default_factory=dict)
    trials: int = 1
    sweep: dict[str, list[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        attack = build_attack(self.attack_name, self.attack_params)
        if self.protocol not in attack.protocols:
            raise ConfigError(
                f"attack {self.attack_name!r} requires the {' or '.join(attack.protocols)} protocol"
            )
        if not isinstance(self.sweep, Mapping):
            raise ConfigError("sweep must be an object mapping axes to lists of values")
        for axis, values in self.sweep.items():
            if axis not in SWEEP_AXES:
                raise ConfigError(f"unknown sweep axis {axis!r}; known: {SWEEP_AXES}")
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"sweep axis {axis!r} must be a list of values")
            if not values:
                raise ConfigError(f"sweep axis {axis!r} has no values")
        # A sweep checks the attack against each point instead, as the
        # point is built, before the first trial.
        if not self.sweep:
            attack.check_config(self.session)

    @property
    def protocol(self) -> str:
        return "mcqsdc" if isinstance(self.session, McSessionConfig) else "qsdc"

    @property
    def seed(self) -> int:
        return self.session.seed

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ExperimentConfig":
        data = dict(raw)
        objects = []
        for key, parts in (("noise", ("kind", "p")), ("attack", ("name", "params"))):
            nested = data.pop(key, None)
            if nested is not None:
                if not isinstance(nested, Mapping):
                    raise ConfigError(f"{key} must be an object with keys {parts}")
                unknown = sorted(set(nested) - set(parts))
                if unknown:
                    raise ConfigError(f"unknown {key} key {unknown[0]!r}; known: {parts}")
            objects.append(nested or {})
        noise, attack = objects
        protocol = data.pop("protocol", "qsdc")
        if protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
        kind = noise.get("kind", "none")
        try:
            model = NoiseModel(NoiseKind(kind))
        except ValueError as exc:
            raise ConfigError(f"unknown noise kind {kind!r}") from exc
        kwargs = {f"attack_{part}": attack[part] for part in ("name", "params") if part in attack}
        if "sweep" in data:
            kwargs["sweep"] = data.pop("sweep")
        if "trials" in data:
            kwargs["trials"] = _as_int("trials", data.pop("trials"))
        unknown = [key for key in data if key not in SESSION_FIELDS]
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        session_cls = McSessionConfig if protocol == "mcqsdc" else SessionConfig
        values = {"noise_p": noise["p"], **data} if "p" in noise else data
        return cls(_with(session_cls(noise=model), values), **kwargs)

    def to_dict(self) -> dict[str, Any]:
        noise = self.session.noise
        return {
            "protocol": self.protocol,
            **{name: getattr(self.session, name) for name in SESSION_FIELDS},
            "noise": {"kind": noise.kind.value, "p": noise.p},
            "attack": {"name": self.attack_name, "params": dict(self.attack_params or {})},
            "trials": self.trials,
            "sweep": {k: list(v) for k, v in self.sweep.items()},
        }

    def session_config(self, seed: int) -> SessionConfig:
        """The session parameters at ``seed``."""
        return replace(self.session, seed=seed)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return ExperimentConfig.from_dict(raw)


def run_trial(
    config: ExperimentConfig, seed: int, transcript: Transcript | None = None
) -> tuple[SessionOutcome, Attack]:
    """Run one session of either protocol with a fresh strategy instance,
    which then reports on it."""
    attack = build_attack(config.attack_name, config.attack_params)
    return run_session(config.session_config(seed), attack, transcript=transcript), attack


def bits_to_str(bits: Iterable[int] | None) -> str | None:
    if bits is None:
        return None
    return "".join(str(b) for b in bits)


def run_report(
    config: ExperimentConfig,
    seed_override: int | None = None,
    transcript: Transcript | None = None,
) -> dict[str, Any]:
    """Single-session JSON report: the resolved config, the outcome, and
    the embedded attack report."""
    seed = config.seed if seed_override is None else seed_override
    outcome, attack = run_trial(config, seed, transcript=transcript)
    report = attack.report(outcome)
    return {
        "config": dict(config.to_dict(), seed=seed),
        "seed": seed,
        "attack_name": report.attack,
        "aborted": outcome.aborted,
        "error_rate": outcome.measured_error_rate,
        "message_sent": bits_to_str(outcome.message_sent),
        "message_decoded": bits_to_str(outcome.decoded_bits),
        "decoded_positions": outcome.decoded_positions,
        "attack_report": {
            "attack": report.attack,
            "detected": report.detected,
            "check_error_rate": report.check_error_rate,
            "message_guess_accuracy": report.message_guess_accuracy,
            "metadata": report.metadata,
        },
    }


@dataclass(frozen=True)
class AggregateStats:
    """Statistics of one sweep point over its trials. Confidence numbers
    are binomial standard errors; ``detection_freq`` is also the abort
    rate, since detection is the abort decision."""

    trials: int
    detection_freq: float
    mean_error_rate: float
    stderr: float
    accuracy: float | None


def _sum(values: np.ndarray) -> float:
    """The sum of ``values`` added one after the other, in order, as a
    Python ``sum`` over them would be."""
    return float(values.cumsum()[-1]) if len(values) else 0.0


def aggregate_trials(reports: Iterable[BatchReport]) -> AggregateStats:
    """Fold a point's trials, batch by batch as they come, into its
    statistics from each batch's report, which holds the batch as
    ``outcome``; a batch is dropped once folded. What outlives it is one
    float64 error rate and at most one accuracy per trial: sums run in
    trial order, and the sample variance takes two passes over the error
    rates."""
    detected = 0
    rates, accuracies = [], []
    for report in reports:
        outcome = report.outcome
        detected += int(np.count_nonzero(report.detected))
        rates.append(outcome.error_rate)
        # The adversary's guess accuracy where it has one, else the
        # receiver's; a trial where neither holds a bit has none.
        hits, bits = outcome.decode_hits, outcome.decode_bits
        if report.guessed is not None:
            hits, bits = report.guess_hits, report.guessed
        held = bits > 0
        accuracies.append(hits[held] / bits[held])
    error_rates = np.concatenate(rates)
    n = len(error_rates)
    mean_err = _sum(error_rates) / n
    if n > 1:
        var = _sum((error_rates - mean_err) ** 2) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    guesses = np.concatenate(accuracies)
    accuracy = _sum(guesses) / len(guesses) if len(guesses) else None
    return AggregateStats(
        trials=n,
        detection_freq=detected / n,
        mean_error_rate=mean_err,
        stderr=stderr,
        accuracy=accuracy,
    )


def sweep_points(config: ExperimentConfig) -> list[dict[str, Any]]:
    """Cartesian product of the sweep axes, axes in sorted name order."""
    if not config.sweep:
        raise ConfigError("sweep requires at least one sweep axis")
    axes = sorted(config.sweep)
    points = []
    for values in itertools.product(*(config.sweep[a] for a in axes)):
        points.append(dict(zip(axes, values)))
    return points


def _point_config(config: ExperimentConfig, point: Mapping[str, Any]) -> ExperimentConfig:
    """The experiment at one sweep point, validated like any config."""
    noise_p = _coerce("noise_p", point.get("noise_p", 0.0))
    if noise_p > 0 and config.session.noise.kind is NoiseKind.NONE:
        raise ConfigError("sweeping noise_p requires a non-'none' noise kind")
    session = _with(config.session, point)
    if "check_fraction" in point and session.check_count is not None:
        raise ConfigError("sweeping check_fraction requires no check_count, which overrides it")
    return replace(config, session=session, sweep={})


def run_point(config: ExperimentConfig, seed: int) -> AggregateStats:
    """The statistics of one sweep point. Its trials run as batches
    of at most ``BATCH_PHOTONS`` photons (one session at least) drawn one
    after the other from one generator seeded with ``seed``, each batch
    with a fresh strategy instance and folded as soon as it finishes."""
    rng = np.random.default_rng(seed)
    session = config.session  # its seed is not read: the batches draw from rng
    per_batch = max(1, BATCH_PHOTONS // session.n_photons)

    def reports() -> Iterator[BatchReport]:
        for done in range(0, config.trials, per_batch):
            attack = build_attack(config.attack_name, config.attack_params)
            outcome = run_sessions(session, min(per_batch, config.trials - done), rng, attack)
            yield attack.columns(outcome)

    return aggregate_trials(reports())


def run_sweep(config: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    """Run every sweep point and return the CSV header plus rows. Every
    point is validated before the first trial runs."""
    axes = sorted(config.sweep)
    header = [*axes, "trials", "detection_freq", "mean_error_rate", "stderr", "accuracy"]
    points = sweep_points(config)
    point_configs = [_point_config(config, point) for point in points]
    rows: list[list[str]] = []
    for point_index, (point, point_config) in enumerate(zip(points, point_configs)):
        stats = run_point(point_config, derive_seed(config.seed, point_index))
        row = [_format_value(point[a]) for a in axes]
        row += [
            str(stats.trials),
            _format_value(stats.detection_freq),
            _format_value(stats.mean_error_rate),
            _format_value(stats.stderr),
            _format_value(stats.accuracy),
        ]
        rows.append(row)
    return header, rows


def sweep_csv(config: ExperimentConfig) -> str:
    header, rows = run_sweep(config)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _format_value(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


# --- Self-test -------------------------------------------------------------

#: Expected action of each operation on each canonical label (the symbolic
#: truth the amplitude model must reproduce up to a global phase).
EXPECTED_ACTIONS: dict[OpLabel, dict[StateLabel, StateLabel]] = {
    op: {lbl: apply_op_symbolic(op, lbl) for lbl in CANONICAL_LABELS} for op in OpLabel
}


@dataclass
class SelftestResult:
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(passed for _name, passed, _detail in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
            for name, passed, detail in self.checks
        ]


def run_selftest(
    matrices: Mapping[OpLabel, np.ndarray] | None = None, seed: int = 20_240_101
) -> SelftestResult:
    """Exhaustive amplitude-vs-symbolic equivalence plus the kernel
    invariants. ``matrices`` overrides the unitaries on the amplitude
    side; the default table must pass, a perturbed one must fail."""
    mats = dict(matrices) if matrices is not None else {op: unitary_matrix(op) for op in OpLabel}
    checks: list[tuple[str, bool, str]] = []

    def vec(label: StateLabel) -> np.ndarray:
        st = state_from_label(label)
        return np.array([st.alpha, st.beta], dtype=complex)

    # Single-op action table: 4 states x 3 ops.
    bad = 0
    for op in OpLabel:
        for label in CANONICAL_LABELS:
            out = mats[op] @ vec(label)
            expected = vec(EXPECTED_ACTIONS[op][label])
            if abs(abs(np.vdot(expected, out)) - 1.0) > ATOL:
                bad += 1
    checks.append(("unitary-actions", bad == 0, f"{12 - bad}/12 single-op cases agree"))

    # Exhaustive sweep: all operation sequences of length 6 from all four
    # starting states, checked after every step (covers lengths 1..6).
    ops = list(OpLabel)
    total = 0
    failures = 0
    norm_bad = 0
    effect_bad = 0
    for start in CANONICAL_LABELS:
        for seq in itertools.product(ops, repeat=6):
            state = vec(start)
            label = start
            for op in seq:
                state = mats[op] @ state
                label = apply_op_symbolic(op, label)
                if abs(abs(np.vdot(vec(label), state)) - 1.0) > ATOL:
                    failures += 1
                    break
                if abs(float(np.vdot(state, state).real) - 1.0) > ATOL:
                    norm_bad += 1
                    break
            else:
                if CANONICAL_LABELS[start.code ^ compose_effects(seq)] != label:
                    effect_bad += 1
            total += 1
    checks.append(
        ("oracle-equivalence", failures == 0, f"{total - failures}/{total} sequences agree")
    )
    checks.append(("normalization", norm_bad == 0, f"{norm_bad} norm drifts"))
    checks.append(
        ("compose-effects", effect_bad == 0, f"{effect_bad} frame-effect mismatches")
    )

    # Involutions: H twice is the identity; the bit-flip twice is a pure
    # global phase of -1 with identity symbolic action.
    hh = mats[OpLabel.H] @ mats[OpLabel.H]
    uu = mats[OpLabel.U] @ mats[OpLabel.U]
    inv_ok = bool(
        np.allclose(hh, np.eye(2), atol=ATOL) and np.allclose(uu, -np.eye(2), atol=ATOL)
    )
    checks.append(("involutions", inv_ok, "H.H = I and U.U = -I"))

    # Measurement statistics: eigenstates are deterministic; conjugate
    # bases are empirically balanced.
    rng = np.random.default_rng(seed)
    det_ok = True
    for label in CANONICAL_LABELS:
        codes = np.full(32, label.code, dtype=np.uint8)
        if np.any(measure(codes, codes >> 1, rng) != label.bit):
            det_ok = False
    n_draws = 100_000
    plus = np.full(n_draws, StateLabel(Basis.X, 0).code, dtype=np.uint8)
    freq = np.count_nonzero(measure(plus, np.zeros(n_draws, dtype=np.uint8), rng) == 0) / n_draws
    meas_ok = det_ok and abs(freq - 0.5) < 0.01
    checks.append(
        ("measurement", meas_ok, f"eigenstates deterministic, conjugate freq {freq:.4f}")
    )

    # Amplitude implementation agrees with the reference matrices (only
    # meaningful for the default table).
    if matrices is None:
        agree = True
        for op in OpLabel:
            for label in CANONICAL_LABELS:
                st = state_from_label(label)
                direct = apply_op(op, st)
                ref = mats[op] @ vec(label)
                if abs(direct.alpha - ref[0]) > ATOL or abs(direct.beta - ref[1]) > ATOL:
                    agree = False
        checks.append(("apply-op", agree, "direct application matches matrices"))

    return SelftestResult(checks)
