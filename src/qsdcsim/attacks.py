"""Attack strategies and their measurable consequences.

Every strategy subclasses ``Attack`` and overrides the hooks it needs.
They come in two shapes: passive taps installed on a quantum leg (the
line hands the whole sequence over and carries whatever the tap
returns), and corrupt-party behaviors that reroute the photon flow of a
controlled session. Every strategy turns a finished batch of sessions into a
``BatchReport``, columns computed once for the whole batch, and each row
of it into an ``AttackReport`` with the detection flag, the check error
rate, and the adversary's message-guess accuracy where one exists.

Security statements here are empirical: the simulator demonstrates
resistance against exactly these strategies, nothing stronger.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from .errors import ConfigError
from .fabric import ClassicalChannel, QuantumChannel
from .multiparty import (
    AnnouncementSchedule,
    Chain,
    ControllerRecord,
    HonestController,
    HonestReporter,
    McSessionConfig,
    controller_pass,
    honest_chain,
)
from .protocol import (
    EncoderTurn,
    SessionBatch,
    SessionConfig,
    SessionOutcome,
    prepare_p_sequence,
    row_of,
    transmit_sequence,
)
from .quantum import RandomSource, measure


@dataclass(frozen=True)
class AttackReport:
    """Outcome of one attacked session from the adversary's perspective.
    ``message_guess_accuracy`` is None for strategies that never output a
    message guess."""

    attack: str
    detected: bool
    check_error_rate: float
    message_guess_accuracy: float | None
    metadata: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class BatchReport:
    """A strategy's report on every row of a finished batch, as columns:
    ``detected[r]``, the abort decision of row r, and, for a strategy that
    guesses the message, ``guess_hits[r]`` right out of ``guessed[r]``
    bits guessed (both None for one that never guesses)."""

    attack: str
    outcome: SessionBatch
    detected: np.ndarray
    guess_hits: np.ndarray | None = None
    guessed: np.ndarray | None = None

    def row(self, row: int, **metadata: Any) -> AttackReport:
        """The ``AttackReport`` of row ``row``; ``metadata`` joins the
        row's check count."""
        accuracy = None
        if self.guessed is not None and self.guessed[row]:
            accuracy = int(self.guess_hits[row]) / int(self.guessed[row])
        return AttackReport(
            attack=self.attack,
            detected=bool(self.detected[row]),
            check_error_rate=float(self.outcome.error_rate[row]),
            message_guess_accuracy=accuracy,
            metadata={"n_check": int(self.outcome.n_check[row]), **metadata},
        )


class MeasureResendTap:
    """Channel tap measuring every photon in a freshly drawn uniform basis
    and forwarding the eigenstate it read: nondisturbing exactly where the
    basis matches the photon's. Keeps the classical records only, the
    basis codes and outcomes of every photon relayed, in order; the
    original states are surrendered to the measurement."""

    def __init__(self) -> None:
        self._bases: list[np.ndarray] = [np.zeros(0, dtype=np.uint8)]
        self._outcomes: list[np.ndarray] = [np.zeros(0, dtype=np.uint8)]

    @property
    def bases(self) -> np.ndarray:
        return np.concatenate(self._bases)

    @property
    def outcomes(self) -> np.ndarray:
        return np.concatenate(self._outcomes)

    def relay(self, codes: np.ndarray, rng: RandomSource) -> np.ndarray:
        bases = rng.integers(0, 2, size=len(codes)).astype(np.uint8)
        outcomes = measure(codes, bases, rng)
        self._bases.append(bases)
        self._outcomes.append(outcomes)
        return 2 * bases + outcomes


class Attack:
    """Base strategy, and itself the no-adversary one: every hook is a
    no-op. A strategy overrides the hooks it needs:

      install          before any photon flies: register taps on the first
                       and return legs, keep a handle on the public log.
      receive_secrets  after the shuffle: the encoder's turn, whose
                       permutation, ascending origins and check set the
                       protocol never discloses, and the preparation codes;
                       row r of the batch starts at ``turn.starts[r]``. A
                       strategy reads no other field of the turn.
      check_config     when a config loads and when a session starts: raise
                       ``ConfigError`` for a session the strategy cannot run.
      reroute          controlled sessions, after preparation: return a
                       ``Chain`` that replaces the honest controller chain,
                       or None to leave it alone.
      guesses          after a batch: per row, the message bits the
                       adversary guessed right and guessed, or None.
      report           the ``AttackReport`` of one row of a finished batch,
                       read from the batch's ``columns``.

    One instance serves one batch of sessions (one session in a controlled
    run); its taps see the whole batch, row after row.
    ``protocols`` names the protocols a strategy applies to.
    """

    name = "none"
    protocols: tuple[str, ...] = ("qsdc", "mcqsdc")
    _columns: BatchReport | None = None

    def install(
        self,
        forward: QuantumChannel,
        back: QuantumChannel,
        public: ClassicalChannel,
        rng: RandomSource,
    ) -> None:
        pass

    def receive_secrets(self, turn: EncoderTurn, labels: np.ndarray) -> None:
        pass

    def check_config(self, config: SessionConfig) -> None:
        pass

    def reroute(
        self,
        config: McSessionConfig,
        labels: np.ndarray,
        hops: Sequence[QuantumChannel],
        rng: RandomSource,
        public: ClassicalChannel,
    ) -> Chain | None:
        return None

    def guesses(self, outcome: SessionBatch) -> tuple[np.ndarray, np.ndarray] | None:
        return None

    def columns(self, outcome: SessionBatch) -> BatchReport:
        """The report columns of a finished batch, computed once for it."""
        if self._columns is None or self._columns.outcome is not outcome:
            guess = self.guesses(outcome) or (None, None)
            self._columns = BatchReport(self.name, outcome, outcome.aborted, *guess)
        return self._columns

    def report(self, outcome: SessionOutcome, row: int = 0) -> AttackReport:
        """The report on row ``row`` of the batch ``outcome`` belongs to."""
        return self.columns(outcome.batch).row(row)


#: No adversary. Exists so experiment configs always name a strategy and
#: reports stay uniform.
PassiveNone = Attack


class InterceptResend(Attack):
    """Eve intercepts the prepared sequence on its way to the encoder,
    measures each photon in a uniformly random basis, and resends the
    eigenstate. Mismatched bases randomize the state, so each check photon
    errs with probability 1/4."""

    name = "intercept_resend"

    def __init__(self) -> None:
        self.tap = MeasureResendTap()

    def install(
        self,
        forward: QuantumChannel,
        back: QuantumChannel,
        public: ClassicalChannel,
        rng: RandomSource,
    ) -> None:
        forward.taps.append(self.tap)

    def report(self, outcome: SessionOutcome, row: int = 0) -> AttackReport:
        # Every row's prepared photons all passed the tap.
        n_tapped = len(self.tap.outcomes) // len(outcome.batch)
        return self.columns(outcome.batch).row(row, n_tapped=n_tapped)


class ReturnLegTap(Attack):
    """Eve measures every photon of the returned (rearranged, encoded)
    sequence in a random basis and guesses the message bits.

    Without the secret order and the preparation record her data is
    uncorrelated with the message; the disclosure flags hand her either
    secret "magically" so experiments can isolate what each one protects.
    Her measurements disturb the check photons, so the session normally
    aborts; the guess is evaluated regardless.
    """

    name = "return_leg_tap"

    def __init__(
        self, disclose_permutation: bool = False, disclose_initial_states: bool = False
    ) -> None:
        for flag in (disclose_permutation, disclose_initial_states):
            if not isinstance(flag, bool):
                raise ConfigError(f"return_leg_tap flags must be true or false, got {flag!r}")
        if disclose_initial_states and not disclose_permutation:
            raise ConfigError(
                "disclosing initial states is only meaningful together with the permutation"
            )
        self.disclose_permutation = disclose_permutation
        self.disclose_initial_states = disclose_initial_states
        self.tap = MeasureResendTap()
        self._public: ClassicalChannel | None = None
        self._starts = np.zeros(2, dtype=np.intp)
        self._true_positions: np.ndarray | None = None
        self._true_origins: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def install(
        self,
        forward: QuantumChannel,
        back: QuantumChannel,
        public: ClassicalChannel,
        rng: RandomSource,
    ) -> None:
        back.taps.append(self.tap)
        self._public = public

    def receive_secrets(self, turn: EncoderTurn, labels: np.ndarray) -> None:
        """Experiment instrumentation: hand Eve, per the flags, the
        returned position and the origin of each message bit (in ascending
        origin order), and the preparation record. The row layout places
        each row in her tap record, which holds the returned photons."""
        self._starts = turn.starts
        if self.disclose_permutation:
            srcs = np.flatnonzero(~turn.check.mask(len(turn.origins)))
            self._true_positions = turn.perm.inverse().mapping[srcs]
            self._true_origins = turn.origins[srcs]
        if self.disclose_initial_states:
            self._labels = labels.copy()

    def guesses(self, outcome: SessionBatch) -> tuple[np.ndarray, np.ndarray]:
        """Eve's best guess of every row's message bits from whatever she
        holds: her tap record and, per the flags, the secrets. Compared
        with the sent bits, bit by bit, over the whole batch at once."""
        sent, bounds = outcome.message_bits, outcome.message_starts
        record = self.tap.outcomes
        if self._true_positions is not None:
            # Her k-th guess, in ascending origin order, is for bit k.
            guesses = record[self._true_positions]
            if self._labels is not None:  # disclosed only with the permutation
                guesses = guesses ^ (self._labels[self._true_origins] & 1)
            bit = np.arange(len(sent))
        else:
            # Without the permutation she assumes the returned order is the
            # message order: k-th non-check position of a row carries bit k.
            check_open = self._public.latest.get("check_open") if self._public else None
            free = np.ones(len(record), dtype=bool)
            free[check_open["positions"] if check_open else []] = False
            positions = np.flatnonzero(free)
            row = row_of(self._starts, positions)
            k = np.arange(len(positions)) - positions.searchsorted(self._starts)[row]
            keep = k < np.diff(bounds)[row]
            guesses = record[positions[keep]]
            bit = bounds[row[keep]] + k[keep]
        row = row_of(bounds, bit)
        hits = np.bincount(row[guesses == sent[bit]], minlength=len(outcome))
        return hits, np.bincount(row, minlength=len(outcome))

    def report(self, outcome: SessionOutcome, row: int = 0) -> AttackReport:
        columns = self.columns(outcome.batch)
        return columns.row(
            row,
            n_guessed=int(columns.guessed[row]),
            disclose_permutation=self.disclose_permutation,
            disclose_initial_states=self.disclose_initial_states,
        )


class CollusionReporter(HonestReporter):
    """Check behavior of the corrupt sender when the final controller
    colludes: she reports the plain preparation-basis outcomes, whatever H
    parity was announced, and leaves the parity bookkeeping to her
    partner's announcements."""

    def report(
        self, positions: np.ndarray, origins: np.ndarray, h_parity: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return super().report(positions, origins, np.zeros_like(h_parity))


class BypassReporter(CollusionReporter):
    """Check behavior of the corrupt sender in the bypass attack.

    She holds photons the controllers never touched, so measuring in the
    preparation basis reveals the encoder's flip exactly. What she cannot
    know before the flip round is the controllers' net flip parity over
    the decoys, so she adds a coin-flip guess of it to each report: one
    batch of coins, drawn right after her measurements.
    """

    def report(
        self, positions: np.ndarray, origins: np.ndarray, h_parity: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        bases, outcomes, reports = super().report(positions, origins, h_parity)
        return bases, outcomes, reports ^ self._rng.integers(0, 2, size=len(reports))


def _decoy_chain(
    labels: np.ndarray,
    n_decoy: int,
    legs: Sequence[QuantumChannel],
    reporter: type[HonestReporter],
    rng: RandomSource,
    public: ClassicalChannel,
) -> Chain:
    """Corrupt-sender routing: a decoy sequence runs through the first
    ``n_decoy`` controllers, whose records are real but describe photons
    that never reach the encoder, while the true photons take ``legs``
    straight to the encoder untouched."""
    decoys = prepare_p_sequence(len(labels), rng)
    origins = np.arange(len(labels))
    agents = []
    for c in range(n_decoy):
        decoys, ops = controller_pass(decoys, rng)
        agents.append(HonestController(ControllerRecord(origins, ops)))
    photons = labels
    for leg in legs:
        photons, _arrived = transmit_sequence(leg, photons, rng, public, "chain")
    public.announce("bob", "arrived_forward", public.column(origins), stage="chain")
    return Chain(photons, origins, agents, partial(reporter, labels, rng=rng))


class FakeSequenceBypass(Attack):
    """The corrupt sender routes the true photons straight to the encoder
    and feeds decoys to the controller chain, hoping to decode without any
    release. Each check photon survives her parity guess with probability
    1/2, so even short checks catch her. With no controllers there is
    nothing to bypass and the behavior degenerates to honest."""

    name = "fake_sequence_bypass"
    protocols = ("mcqsdc",)

    def check_config(self, config: SessionConfig) -> None:
        if config.loss > 0.0:
            raise ConfigError("bypass attack does not support lossy channels")

    def reroute(
        self,
        config: McSessionConfig,
        labels: np.ndarray,
        hops: Sequence[QuantumChannel],
        rng: RandomSource,
        public: ClassicalChannel,
    ) -> Chain:
        if config.controllers == 0:
            return honest_chain(labels, hops, rng, public)
        direct = QuantumChannel(name="alice=>bob", noise=config.noise)
        return _decoy_chain(labels, config.controllers, [direct], BypassReporter, rng, public)

    def guesses(self, outcome: SessionBatch) -> tuple[np.ndarray, np.ndarray]:
        # The corrupt receiver's decode is her guess.
        return outcome.decode_hits, outcome.decode_bits

    # A class of the registry keeps a ``report`` of its own, which
    # perfbench's tracer wraps class by class.
    report = Attack.report


class ColluderAgent:
    """The final controller's fabricated announcements.

    It never touched the photons it forwarded, so it invents operations:
    no H in the first round, and in the flip round it tries to cancel the
    honest controllers' total flip parity. Speaking last it cancels
    exactly; speaking earlier it must guess the parity of the voices still
    to come, with one batch of coins per turn.
    """

    def __init__(self, rng: RandomSource) -> None:
        self._rng = rng
        self._origins = np.zeros(0, dtype=np.intp)
        self._flips = np.zeros(0, dtype=np.uint8)

    def announce_h(self, origins: np.ndarray) -> np.ndarray:
        return np.zeros(len(origins), dtype=np.uint8)

    def announce_flip(self, origins: np.ndarray, heard: np.ndarray, remaining: int) -> np.ndarray:
        flips = heard
        if remaining:
            flips = heard ^ self._rng.integers(0, 2, size=len(heard)).astype(np.uint8)
        self._origins = np.append(self._origins, origins)
        self._flips = np.append(self._flips, flips)
        return flips

    def release(self, origins: np.ndarray) -> ControllerRecord:
        """A release consistent with whatever it announced during the
        check: U where it announced a flip, identity everywhere else.
        ``origins`` ascend and hold every origin it spoke for."""
        flips = np.zeros(len(origins), dtype=np.uint8)
        flips[np.searchsorted(origins, self._origins)] = self._flips
        return ControllerRecord(origins, flips)


class CollusionAttack(Attack):
    """Corrupt sender plus the final controller.

    True photons go straight to the colluder, who forwards them to the
    encoder untouched, while decoys feed the honest prefix of the chain.
    Under the flawed fixed announcement order (the colluder always speaks
    last) the pair is never detected and recovers the whole message; under
    the per-photon random order the colluder speaks last only with
    probability 1/m and must guess otherwise, giving per-photon detection
    (1 - 1/m)/2.
    """

    name = "collusion"
    protocols = ("mcqsdc",)

    def __init__(self, schedule_variant: str = "random_order") -> None:
        if schedule_variant not in ("random_order", "fixed_order"):
            raise ConfigError(f"unknown schedule variant {schedule_variant!r}")
        self.schedule_variant = schedule_variant

    def check_config(self, config: McSessionConfig) -> None:
        if config.loss > 0.0:
            raise ConfigError("collusion attack does not support lossy channels")
        if config.controllers < 2:
            raise ConfigError("collusion needs at least two controllers")

    def reroute(
        self,
        config: McSessionConfig,
        labels: np.ndarray,
        hops: Sequence[QuantumChannel],
        rng: RandomSource,
        public: ClassicalChannel,
    ) -> Chain:
        m = config.controllers
        direct = QuantumChannel(name="alice=>colluder", noise=config.noise)
        chain = _decoy_chain(labels, m - 1, [direct, hops[m]], CollusionReporter, rng, public)
        chain.agents.append(ColluderAgent(rng))
        if self.schedule_variant == "fixed_order":
            chain.schedule = lambda n_check, m, _rng: AnnouncementSchedule.chain_order(n_check, m)
        return chain

    guesses = FakeSequenceBypass.guesses

    def report(self, outcome: SessionOutcome, row: int = 0) -> AttackReport:
        columns = self.columns(outcome.batch)
        return columns.row(row, schedule_variant=self.schedule_variant)


def intercept_resend_detection(n_check: int) -> float:
    """Probability that at least one of n_check check photons errs under
    intercept-resend (per-photon error rate 1/4)."""
    return 1.0 - 0.75**n_check


def collusion_photon_detection(m: int) -> float:
    """Per-check-photon detection probability of the random-order
    collusion with m controllers: the colluder speaks last with
    probability 1/m, otherwise his parity guess fails half the time."""
    return (1.0 - 1.0 / m) / 2.0


def bypass_photon_pass_probability() -> float:
    """Per-check-photon pass probability of the bypass attack: the
    controllers' net flip parity is a coin toss to the corrupt sender."""
    return 0.5


ATTACK_REGISTRY: dict[str, type[Attack]] = {
    PassiveNone.name: PassiveNone,
    InterceptResend.name: InterceptResend,
    ReturnLegTap.name: ReturnLegTap,
    FakeSequenceBypass.name: FakeSequenceBypass,
    CollusionAttack.name: CollusionAttack,
}


def build_attack(name: str, params: Mapping[str, Any] | None = None) -> Attack:
    """Instantiate a strategy by config name; unknown names, params that
    are not an object and unknown keywords are configuration errors."""
    if not isinstance(name, str) or name not in ATTACK_REGISTRY:
        raise ConfigError(
            f"unknown attack {name!r}; known: {sorted(ATTACK_REGISTRY)}"
        )
    if params is None:
        params = {}
    if not isinstance(params, Mapping):
        raise ConfigError(f"attack params must be an object, got {params!r}")
    try:
        return ATTACK_REGISTRY[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad params for attack {name!r}: {exc}") from exc
