"""Multiparty-controlled variant: a chain of controllers between the
preparer and the encoder.

Each controller applies an independently uniform operation from {I, U, H}
to every photon and keeps the choices private. The eavesdropping check
runs a two-round announcement dance per check photon:

  1. In a per-photon random controller order, each controller announces
     one bit only: whether it applied H at that position.
  2. Alice, now knowing the measurement basis (initial basis XOR the
     announced H parity), measures and reports her outcome.
  3. In an independent per-photon random order, each controller announces
     its remaining bit: flip (U) or no flip (I or H).
  4. Bob compares the report with the symbolically expected outcome.

Decoding requires every controller's full operation record; withholding
any single record provably reduces the receiver to coin-flip accuracy,
which is the control property the harness measures.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ProtocolError
from .fabric import ClassicalChannel, QuantumChannel, Transcript, label_payload
from .protocol import (
    SessionConfig,
    SessionOutcome,
    by_origin,
    decide_and_reveal,
    encoder_turn,
    measure_at,
    prepare_p_sequence,
    transmit_sequence,
)
from .quantum import (
    BASES,
    CANONICAL_LABELS,
    OP_MASK,
    OP_NAMES,
    OPS,
    FrameEffect,
    OpLabel,
    RandomSource,
    StateLabel,
    apply_op_symbolic,
    measure,
)

if TYPE_CHECKING:
    from .attacks import Attack

@dataclass(frozen=True)
class McSessionConfig(SessionConfig):
    """Session configuration with a controller chain of length
    ``controllers`` between the preparer and the encoder."""

    controllers: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.controllers < 0:
            raise ConfigError(f"controllers must be >= 0, got {self.controllers}")


@dataclass(frozen=True)
class ControllerRecord:
    """One controller's private operations: ``ops[k]`` is the op mask it
    applied to the photon of prepared-order index ``origins[k]``."""

    origins: np.ndarray
    ops: np.ndarray


@dataclass(frozen=True)
class AnnouncementSchedule:
    """Per check photon: one controller ordering for the H round and an
    independent ordering for the flip round."""

    h_orders: tuple[tuple[int, ...], ...]
    iu_orders: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.h_orders) != len(self.iu_orders):
            raise ProtocolError("schedule rounds must cover the same photons")

    @classmethod
    def draw(cls, n_check: int, m: int, rng: RandomSource) -> "AnnouncementSchedule":
        """Fresh uniform orderings, independent across photons and rounds."""
        h_orders = tuple(tuple(int(i) for i in rng.permutation(m)) for _ in range(n_check))
        iu_orders = tuple(tuple(int(i) for i in rng.permutation(m)) for _ in range(n_check))
        return cls(h_orders, iu_orders)

    @classmethod
    def chain_order(cls, n_check: int, m: int) -> "AnnouncementSchedule":
        """Degenerate schedule announcing in fixed chain order for every
        photon (the flawed variant: the last controller always speaks
        last). Kept as a negative control."""
        order = tuple(range(m))
        return cls((order,) * n_check, (order,) * n_check)


@dataclass(frozen=True)
class ControlRelease:
    """Every controller's full operation record, delivered to the
    receiver after a passing check."""

    records: Mapping[int, ControllerRecord]


def controller_pass(photons: np.ndarray, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Apply an independently uniform draw from {I, U, H} to each photon
    of a code sequence; returns the new codes and the op masks drawn,
    which the controller retains privately."""
    ops = rng.integers(0, 3, size=len(photons)).astype(np.uint8)
    return photons ^ ops, ops


def expected_check_outcome(
    initial: StateLabel, controller_ops: Sequence[OpLabel], bob_op: OpLabel
) -> StateLabel:
    """Fold the chain's operations and the encoder's over the initial
    label: the measurement the encoder expects the receiver to report."""
    label = initial
    for op in controller_ops:
        label = apply_op_symbolic(op, label)
    return apply_op_symbolic(bob_op, label)


class CheckPhotonRound:
    """Turn-enforced announcement state for a single check photon.

    Out-of-schedule announcements and premature outcome reports raise
    ``ProtocolError``; the staging is the security mechanism, so the data
    model refuses to shortcut it.
    """

    def __init__(self, position: int, origin: int, h_order: Sequence[int], iu_order: Sequence[int]):
        self.position = position
        self.origin = origin
        self._h_order = tuple(h_order)
        self._iu_order = tuple(iu_order)
        self.h_bits: list[int] = []
        self.outcome_report: int | None = None
        self.flip_bits: list[int] = []

    @property
    def h_complete(self) -> bool:
        return len(self.h_bits) == len(self._h_order)

    @property
    def flips_complete(self) -> bool:
        return len(self.flip_bits) == len(self._iu_order)

    @property
    def h_parity(self) -> int:
        if not self.h_complete:
            raise ProtocolError("H parity read before the H round completed")
        return sum(self.h_bits) % 2

    @property
    def flip_parity(self) -> int:
        if not self.flips_complete:
            raise ProtocolError("flip parity read before the flip round completed")
        return sum(self.flip_bits) % 2

    def announce_h(self, controller: int, applied_h: bool) -> None:
        if self.h_complete:
            raise ProtocolError("H round already complete")
        expected = self._h_order[len(self.h_bits)]
        if controller != expected:
            raise ProtocolError(
                f"controller {controller} announced out of turn (expected {expected})"
            )
        self.h_bits.append(1 if applied_h else 0)

    def report_outcome(self, bit: int) -> None:
        if not self.h_complete:
            raise ProtocolError("outcome reported before the H round completed")
        if self.outcome_report is not None:
            raise ProtocolError("outcome already reported")
        self.outcome_report = bit

    def announce_flip(self, controller: int, flip: int) -> None:
        if self.outcome_report is None:
            raise ProtocolError("flip round started before the outcome report")
        if self.flips_complete:
            raise ProtocolError("flip round already complete")
        expected = self._iu_order[len(self.flip_bits)]
        if controller != expected:
            raise ProtocolError(
                f"controller {controller} announced out of turn (expected {expected})"
            )
        self.flip_bits.append(flip & 1)


class HonestController:
    """Answers announcement rounds truthfully from its private record,
    and releases the whole record after a passing check."""

    def __init__(self, index: int, record: ControllerRecord):
        self.index = index
        self._record = record
        self._ops = dict(zip(record.origins.tolist(), record.ops.tolist()))

    def announce_h(self, origin: int, heard: Sequence[int]) -> bool:
        return self._ops[origin] == OP_MASK[OpLabel.H]

    def announce_flip(self, origin: int, heard: Sequence[int], remaining: int) -> int:
        return 1 if self._ops[origin] == OP_MASK[OpLabel.U] else 0

    def release(self, origins: np.ndarray) -> ControllerRecord:
        return self._record


class HonestReporter:
    """The receiver's honest check behavior: measure in the basis implied
    by the announced H parity and report the outcome."""

    def __init__(
        self,
        labels: np.ndarray,
        photons_by_position: np.ndarray,
        public: ClassicalChannel,
        rng: RandomSource,
    ):
        self._labels = labels
        self._photons = photons_by_position
        self._public = public
        self._rng = rng

    def report(self, position: int, origin: int, h_parity: int) -> int:
        basis = (int(self._labels[origin]) >> 1) ^ h_parity
        outcome = measure(CANONICAL_LABELS[self._photons[position]], BASES[basis], self._rng)
        self._public.measured("check", "alice", [position], [basis], [outcome])
        return outcome


@dataclass
class Chain:
    """What the controller chain delivered to the encoder, and who speaks
    for it at the check.

    ``photons`` are the codes of the survivors in arrival order and
    ``origins`` their indices in the prepared order. ``agents`` holds one
    announcing agent per controller, each able to ``release`` its record.
    ``reporter`` builds the receiver's check behavior from the returned
    photons and the public channel, and ``schedule`` draws the announcement
    orders as ``schedule(n_check, m, rng)``.
    """

    photons: np.ndarray
    origins: np.ndarray
    agents: list[Any]
    reporter: Callable[[np.ndarray, ClassicalChannel], HonestReporter]
    schedule: Callable[[int, int, RandomSource], AnnouncementSchedule] = AnnouncementSchedule.draw


def mc_check_round(
    check_items: Sequence[tuple[int, int]],
    initial_labels: Mapping[int, StateLabel],
    bob_ops: Mapping[int, OpLabel],
    schedule: AnnouncementSchedule,
    reporter: Any,
    controllers: Sequence[Any],
    public: ClassicalChannel,
) -> tuple[float, list[bool]]:
    """Run the two-round announcement dance for every check photon and
    return the encoder's measured error rate plus per-photon mismatches.

    ``check_items`` pairs each returned-sequence position with its origin;
    ``initial_labels`` is the receiver's published preparation record for
    those origins; ``bob_ops`` the encoder's private check operations
    keyed by position.
    """
    if len(schedule.h_orders) != len(check_items):
        raise ProtocolError("schedule does not cover the check photons")
    mismatches: list[bool] = []
    for k, (pos, orig) in enumerate(check_items):
        h_order = schedule.h_orders[k]
        iu_order = schedule.iu_orders[k]
        public.record(
            "schedule", "check", position=pos, h_order=list(h_order), iu_order=list(iu_order)
        )
        round_state = CheckPhotonRound(pos, orig, h_order, iu_order)
        for c in h_order:
            bit = controllers[c].announce_h(orig, tuple(round_state.h_bits))
            round_state.announce_h(c, bit)
            public.announce(
                f"controller_{c}", "h_announce", {"position": pos, "h": int(bit)}, stage="check"
            )
        report = reporter.report(pos, orig, round_state.h_parity)
        round_state.report_outcome(report)
        public.announce("alice", "check_report", {"position": pos, "outcome": report}, stage="check")
        for c in iu_order:
            remaining = len(iu_order) - len(round_state.flip_bits) - 1
            flip = controllers[c].announce_flip(orig, tuple(round_state.flip_bits), remaining)
            round_state.announce_flip(c, flip)
            public.announce(
                f"controller_{c}", "flip_announce", {"position": pos, "flip": int(flip)}, stage="check"
            )
        announced_effect = FrameEffect(round_state.flip_parity, round_state.h_parity)
        expected = apply_op_symbolic(bob_ops[pos], announced_effect.apply(initial_labels[orig]))
        mismatches.append(report != expected.bit)
    error_rate = sum(mismatches) / len(check_items) if check_items else 0.0
    return error_rate, mismatches


def frame_decode(
    labels: np.ndarray,
    message_order: np.ndarray,
    photons_by_position: np.ndarray,
    records: Sequence[ControllerRecord],
    rng: RandomSource,
    public: ClassicalChannel,
) -> list[int]:
    """Frame-corrected decode over the given controller records, bits in
    ascending origin order. The receiver XORs the records' op masks into
    each message photon's preparation code, measures in the basis of the
    result, and strips its bit. With no records this is the plain
    preparation-basis decode."""
    positions, origins = by_origin(message_order, len(labels))
    frames = labels.copy()
    for record in records:
        frames[record.origins] ^= record.ops
    frames = frames[origins]
    measured = measure_at(photons_by_position, positions, frames >> 1, rng, public, "reveal")
    return (measured[positions] ^ (frames & 1)).tolist()


def release_and_reconstruct(
    alice_labels: np.ndarray,
    message_order: np.ndarray,
    photons_by_position: np.ndarray,
    release: ControlRelease,
    n_controllers: int,
    rng: RandomSource,
    public: ClassicalChannel,
) -> list[int]:
    """Decode the message from the controllers' released records.

    Refuses outright when any controller's release is missing: the whole
    point of the control structure.
    """
    missing = set(range(n_controllers)) - set(release.records)
    if missing:
        raise ProtocolError(f"reconstruction refused: missing release from controllers {sorted(missing)}")
    records = [release.records[c] for c in range(n_controllers)]
    return frame_decode(alice_labels, message_order, photons_by_position, records, rng, public)


def _chain_hop_names(m: int) -> list[str]:
    if m == 0:
        return ["alice->bob"]
    names = ["alice->controller_0"]
    names += [f"controller_{i}->controller_{i + 1}" for i in range(m - 1)]
    names.append(f"controller_{m - 1}->bob")
    return names


def honest_chain(
    labels: np.ndarray, hops: Sequence[QuantumChannel], rng: RandomSource, public: ClassicalChannel
) -> Chain:
    """Walk the photons through the controller chain, hop by hop, with
    per-hop arrival announcements and private op records."""
    photons = labels
    origins = np.arange(len(photons))
    agents: list[Any] = []
    for c, hop in enumerate(hops):
        photons, alive = transmit_sequence(hop, photons, rng, public, "chain")
        origins = origins[alive]
        if c < len(hops) - 1:
            public.announce(f"controller_{c}", "arrived", origins.tolist(), stage="chain")
            photons, ops = controller_pass(photons, rng)
            agents.append(HonestController(c, ControllerRecord(origins, ops)))
    public.announce("bob", "arrived_forward", origins.tolist(), stage="chain")
    return Chain(photons, origins, agents, partial(HonestReporter, labels, rng=rng))


def run_mc_session(
    config: McSessionConfig,
    attack: Attack | None = None,
    message: Sequence[int] | None = None,
    transcript: Transcript | None = None,
    withheld_controller: int | None = None,
) -> SessionOutcome:
    """Run one controlled session end to end.

    ``attack`` may tap the first and return legs, or reroute the photon
    flow as a corrupt party; see the adversary module.
    ``withheld_controller`` runs an honest session but decodes with that
    controller's release withheld, measuring the control property.
    """
    m = config.controllers
    rng = np.random.default_rng(config.seed)
    public = ClassicalChannel(transcript)
    if withheld_controller is not None and not 0 <= withheld_controller < m:
        raise ConfigError(f"withheld controller {withheld_controller} out of range for m={m}")

    hop_channels = [
        QuantumChannel(name=name, noise=config.noise, loss=config.loss)
        for name in _chain_hop_names(m)
    ]
    back = QuantumChannel(name="bob->alice", noise=config.noise, loss=config.loss)
    if attack is not None:
        attack.install(hop_channels[0], back, public, rng)

    labels = prepare_p_sequence(config.n_photons, rng)
    chain = None
    if attack is not None:
        chain = attack.reroute(config, labels, hop_channels, rng, public)
    rerouted = chain is not None
    if chain is None:
        chain = honest_chain(labels, hop_channels, rng, public)

    turn = encoder_turn(config, chain.photons, chain.origins, message, rng, public)
    if attack is not None:
        attack.receive_secrets(turn.perm, chain.origins, turn.check, labels)
    receipt = turn.send_back(back, rng, public)
    positions, check_origins, masks = receipt.check_items.T.tolist()
    check_items = list(zip(positions, check_origins))
    payload = {"positions": positions, "origins": check_origins}
    public.announce("bob", "check_open", payload, stage="check")

    # The receiver publishes the initial states of the check photons so the
    # encoder can evaluate; the disclosure is logged like any announcement.
    initial = {orig: CANONICAL_LABELS[labels[orig]] for orig in check_origins}
    public.announce(
        "alice",
        "check_initial_states",
        {str(orig): label_payload(label) for orig, label in initial.items()},
        stage="check",
    )
    error_rate, _mismatches = mc_check_round(
        check_items,
        initial,
        dict(zip(positions, map(OPS.__getitem__, masks))),
        chain.schedule(len(check_items), m, rng),
        chain.reporter(receipt.photons, public),
        chain.agents,
        public,
    )
    disclosed = {str(pos): OP_NAMES[mask] for pos, mask in zip(positions, masks)}
    if decide_and_reveal(public, "bob", error_rate, config.error_threshold, receipt, ops=disclosed):
        return turn.outcome(receipt, error_rate, None, public)

    # Controllers release their full records (fabricated ones included:
    # a colluder announces whatever it committed to during the check).
    records: dict[int, ControllerRecord] = {}
    for c, agent in enumerate(chain.agents):
        records[c] = record = agent.release(chain.origins)
        released = zip(record.origins.tolist(), record.ops.tolist())
        public.announce(
            f"controller_{c}",
            "release",
            {str(orig): OP_NAMES[mask] for orig, mask in sorted(released)},
            stage="reveal",
        )
    release = ControlRelease(records=records)

    args = (labels, receipt.message_order, receipt.photons)
    if rerouted:
        # The corrupt receiver ignores the releases: the photons she holds
        # never met the controllers, so the preparation basis decodes them.
        decoded = frame_decode(*args, [], rng, public)
    elif withheld_controller is not None:
        # Best-effort decode without the withheld record, which amounts to
        # guessing identity for it: any fixed guess scores the same, since
        # the withheld op is uniform over {I, U, H}.
        kept = [records[c] for c in range(m) if c != withheld_controller]
        decoded = frame_decode(*args, kept, rng, public)
    else:
        decoded = release_and_reconstruct(*args, release, m, rng, public)
    return turn.outcome(receipt, error_rate, decoded, public)
