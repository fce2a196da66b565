"""Experiment harness: configuration loading, single runs, parameter
sweeps with binomial statistics, and the exhaustive self-test.

Every run is fully determined by (config, seed), through child seeds
derived from the master seed and indices, so repeated runs are
byte-identical. A qsdc sweep point draws its trials from one generator
seeded with ``derive_seed(seed, point)``, in consecutive batches of at
most ``BATCH_PHOTONS`` photons; an mcqsdc trial t runs alone, seeded with
``derive_seed(seed, point, t)``.
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
from .multiparty import McSessionConfig, run_mc_session
from .protocol import SessionBatch, SessionConfig, SessionOutcome, run_session, run_sessions
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
SWEEP_AXES = (
    "n_photons",
    "check_fraction",
    "check_count",
    "error_threshold",
    "noise_p",
    "loss",
    "controllers",
)

#: The photon budget of one batch of a qsdc sweep point: a fixed part of
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


def _check_keys(key: str, value: Any, allowed: tuple[str, ...]) -> None:
    """A nested config object may hold only the ``allowed`` keys."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{key} must be an object with keys {allowed}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {key} key {unknown[0]!r}; known: {allowed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: protocol choice, session parameters, the attack,
    trial count, master seed, and optional sweep axes."""

    protocol: str = "qsdc"
    n_photons: int = 64
    check_fraction: float = 0.25
    check_count: int | None = None
    error_threshold: float = 0.05
    noise_kind: str = "none"
    noise_p: float = 0.0
    loss: float = 0.0
    controllers: int = 0
    attack_name: str = "none"
    attack_params: dict[str, Any] = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    sweep: dict[str, list[Any]] = field(default_factory=dict)
    #: The session parameters at ``seed``, built and checked with the
    #: experiment itself.
    session: SessionConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        attack = build_attack(self.attack_name, self.attack_params)
        if self.protocol not in attack.protocols:
            raise ConfigError(
                f"attack {self.attack_name!r} requires the {' or '.join(attack.protocols)} protocol"
            )
        if self.protocol == "qsdc" and self.controllers:
            raise ConfigError("controllers are only meaningful for mcqsdc")
        if not isinstance(self.sweep, Mapping):
            raise ConfigError("sweep must be an object mapping axes to lists of values")
        for axis, values in self.sweep.items():
            if axis not in SWEEP_AXES:
                raise ConfigError(f"unknown sweep axis {axis!r}; known: {SWEEP_AXES}")
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"sweep axis {axis!r} must be a list of values")
            if not values:
                raise ConfigError(f"sweep axis {axis!r} has no values")
        # Validate the session parameters eagerly so bad configs fail fast,
        # and the attack against them. A sweep runs its points instead, and
        # each point is checked as it is built, before the first trial.
        session = self.session_config(self.seed)
        object.__setattr__(self, "session", session)
        if not self.sweep:
            attack.check_config(session)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ExperimentConfig":
        data = dict(raw)
        noise = data.pop("noise", None)
        kwargs: dict[str, Any] = {}
        if noise is not None:
            _check_keys("noise", noise, ("kind", "p"))
            kwargs["noise_kind"] = noise.get("kind", "none")
            kwargs["noise_p"] = noise.get("p", 0.0)
        attack = data.pop("attack", None)
        if attack is not None:
            _check_keys("attack", attack, ("name", "params"))
            kwargs["attack_name"] = attack.get("name", "none")
            kwargs["attack_params"] = attack.get("params", {})
        known = {f.name for f in fields(cls) if f.init}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            kwargs[key] = value
        for key in ("n_photons", "check_count", "controllers", "trials", "seed"):
            if key in kwargs and not (key == "check_count" and kwargs[key] is None):
                kwargs[key] = _as_int(key, kwargs[key])
        for key in ("check_fraction", "error_threshold", "loss", "noise_p"):
            if key in kwargs:
                kwargs[key] = _as_float(key, kwargs[key])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "n_photons": self.n_photons,
            "check_fraction": self.check_fraction,
            "check_count": self.check_count,
            "error_threshold": self.error_threshold,
            "noise": {"kind": self.noise_kind, "p": self.noise_p},
            "loss": self.loss,
            "controllers": self.controllers,
            "attack": {"name": self.attack_name, "params": dict(self.attack_params or {})},
            "trials": self.trials,
            "seed": self.seed,
            "sweep": {k: list(v) for k, v in self.sweep.items()},
        }

    def noise_model(self) -> NoiseModel:
        try:
            kind = NoiseKind(self.noise_kind)
        except ValueError as exc:
            raise ConfigError(f"unknown noise kind {self.noise_kind!r}") from exc
        return NoiseModel(kind, self.noise_p)

    def session_config(self, seed: int) -> SessionConfig:
        common = dict(
            n_photons=self.n_photons,
            check_fraction=self.check_fraction,
            check_count=self.check_count,
            error_threshold=self.error_threshold,
            noise=self.noise_model(),
            loss=self.loss,
            seed=seed,
        )
        if self.protocol == "mcqsdc":
            return McSessionConfig(controllers=self.controllers, **common)
        return SessionConfig(**common)


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
    """Run one session with a fresh strategy instance, which then reports
    on it."""
    attack = build_attack(config.attack_name, config.attack_params)
    session = config.session_config(seed)
    if config.protocol == "mcqsdc":
        outcome = run_mc_session(session, attack=attack, transcript=transcript)
    else:
        outcome = run_session(session, attack=attack, transcript=transcript)
    return outcome, attack


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
    effective = replace(config, seed=seed)
    outcome, attack = run_trial(effective, seed, transcript=transcript)
    report = attack.report(outcome)
    return {
        "config": effective.to_dict(),
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


def aggregate_trials(batches: Iterable[tuple[SessionBatch, BatchReport]]) -> AggregateStats:
    """Fold a point's trials, batch by batch as they come, into its
    statistics; a batch is dropped once folded. What outlives it is one
    float64 error rate and at most one accuracy per trial: sums run in
    trial order, and the sample variance takes two passes over the error
    rates."""
    detected = 0
    rates, accuracies = [], []
    for outcome, report in batches:
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
    overrides = {
        key: _as_int(key, value) if key in ("n_photons", "check_count", "controllers")
        else _as_float(key, value)
        for key, value in point.items()
    }
    if "noise_p" in overrides and config.noise_kind == "none" and overrides["noise_p"] > 0:
        raise ConfigError("sweeping noise_p requires a non-'none' noise kind")
    return replace(config, sweep={}, **overrides)


def run_point(config: ExperimentConfig, seed: int) -> AggregateStats:
    """The statistics of one qsdc sweep point. Its trials run as batches
    of at most ``BATCH_PHOTONS`` photons (one session at least) drawn one
    after the other from one generator seeded with ``seed``, each batch
    with a fresh strategy instance and folded as soon as it finishes."""
    rng = np.random.default_rng(seed)
    session = config.session  # its seed is not read: the batches draw from rng
    per_batch = max(1, BATCH_PHOTONS // config.n_photons)

    def batches() -> Iterator[tuple[SessionBatch, BatchReport]]:
        for done in range(0, config.trials, per_batch):
            attack = build_attack(config.attack_name, config.attack_params)
            outcome = run_sessions(session, min(per_batch, config.trials - done), rng, attack)
            yield outcome, attack.columns(outcome)

    return aggregate_trials(batches())


def run_sweep(config: ExperimentConfig) -> tuple[list[str], list[list[str]]]:
    """Run every sweep point and return the CSV header plus rows. Every
    point is validated before the first trial runs."""
    axes = sorted(config.sweep)
    header = [*axes, "trials", "detection_freq", "mean_error_rate", "stderr", "accuracy"]
    points = sweep_points(config)
    point_configs = [_point_config(config, point) for point in points]
    rows: list[list[str]] = []
    for point_index, (point, point_config) in enumerate(zip(points, point_configs)):
        if config.protocol == "qsdc":
            stats = run_point(point_config, derive_seed(config.seed, point_index))
        else:
            seeds = (derive_seed(config.seed, point_index, t) for t in range(config.trials))
            trials = (run_trial(point_config, seed) for seed in seeds)
            stats = aggregate_trials((out.batch, attack.columns(out.batch)) for out, attack in trials)
        row = [_format_value(point[a]) for a in axes]
        row += [
            str(stats.trials),
            _format_value(stats.detection_freq),
            _format_value(stats.mean_error_rate),
            _format_value(stats.stderr),
            _format_value(stats.accuracy) if stats.accuracy is not None else "",
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
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def control_property_accuracy(
    m: int,
    total_bits: int,
    seed: int,
    withheld: int | None,
    n_photons: int = 536,
    check_count: int = 24,
) -> tuple[float, int]:
    """Measure the receiver's per-bit decode accuracy over at least
    ``total_bits`` message bits of honest controlled sessions, optionally
    withholding one controller's release (the control property)."""
    hits = 0
    bits = 0
    trial = 0
    while bits < total_bits:
        session = McSessionConfig(
            n_photons=n_photons,
            check_count=check_count,
            error_threshold=0.0,
            controllers=m,
            seed=derive_seed(seed, m, 0 if withheld is None else withheld + 1, trial),
        )
        outcome = run_mc_session(session, withheld_controller=withheld)
        if outcome.aborted or outcome.decoded_bits is None:
            raise RuntimeError("honest noiseless session unexpectedly aborted")
        session_hits, session_bits = outcome.decode_hits()
        hits += session_hits
        bits += session_bits
        trial += 1
    return hits / bits, bits


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
                if compose_effects(seq).apply(start) != label:
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
