"""Multiparty-controlled variant: a chain of controllers between the
preparer and the encoder.

Each controller applies an independently uniform operation from {I, U, H}
to every photon and keeps the choices private. The eavesdropping check
runs a two-round announcement dance for every check photon:

  1. In a per-photon random controller order, each controller announces
     one bit only: whether it applied H at that position.
  2. Alice, now knowing the measurement basis (initial basis XOR the
     announced H parity), measures and reports her outcome.
  3. In an independent per-photon random order, each controller announces
     its remaining bit: flip (U) or no flip (I or H).
  4. Bob compares the report with the expected outcome: the initial code
     XOR the announced effect ``2 * H parity + flip parity`` XOR his own
     op, read in its bit.

Every quantity of the dance is an XOR of 2-bit frames, so all check
photons dance at once as array operations: each agent answers a round for
an array of origins, and the flip round steps through the m turns so that
a voice hears the parity of the voices before it.

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
from .fabric import ClassicalChannel, Coded, DanceBatch, QuantumChannel, Transcript, json_texts
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
    CANONICAL_LABELS,
    OP_MASK,
    OP_NAMES,
    OpLabel,
    RandomSource,
    measure,
)

if TYPE_CHECKING:
    from .attacks import Attack

#: The JSON texts of the initial states the receiver discloses for the
#: check, and of the op names, by code.
STATE_TEXTS = json_texts([{"basis": s.basis.value, "bit": s.bit} for s in CANONICAL_LABELS])
OP_TEXTS = json_texts(OP_NAMES)

#: The policy cap on the controller chain. Every controller adds a hop,
#: a private record of N ops and two announcements per check photon, so a
#: session's memory and transcript grow with N times the chain length.
MAX_CONTROLLERS = 64


@dataclass(frozen=True)
class McSessionConfig(SessionConfig):
    """Session configuration with a controller chain of length
    ``controllers`` between the preparer and the encoder."""

    controllers: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.controllers <= MAX_CONTROLLERS:
            raise ConfigError(
                f"controllers must be in [0, {MAX_CONTROLLERS}], got {self.controllers}"
            )


@dataclass(frozen=True)
class ControllerRecord:
    """One controller's private operations: ``ops[k]`` is the op mask it
    applied to the photon of prepared-order index ``origins[k]``."""

    origins: np.ndarray
    ops: np.ndarray


@dataclass(frozen=True, eq=False)
class AnnouncementSchedule:
    """The controller orders of the check, one row per check photon:
    ``h_orders[i]`` for its H round and an independent ``iu_orders[i]``
    for its flip round, each a (photons, m) array of controller indices."""

    h_orders: np.ndarray
    iu_orders: np.ndarray

    def __post_init__(self) -> None:
        if self.h_orders.shape != self.iu_orders.shape:
            raise ProtocolError("schedule rounds must cover the same photons")

    @classmethod
    def draw(cls, n_check: int, m: int, rng: RandomSource) -> "AnnouncementSchedule":
        """Fresh uniform orderings, independent across photons and rounds:
        one ``permuted`` draw per round, which shuffles row after row as
        ``n_check`` calls of ``permutation(m)`` would."""
        orders = np.tile(np.arange(m), (n_check, 1))
        return cls(rng.permuted(orders, axis=1), rng.permuted(orders, axis=1))

    @classmethod
    def chain_order(cls, n_check: int, m: int) -> "AnnouncementSchedule":
        """Degenerate schedule announcing in fixed chain order for every
        photon (the flawed variant: the last controller always speaks
        last). Kept as a negative control."""
        orders = np.tile(np.arange(m), (n_check, 1))
        return cls(orders, orders)


def controller_pass(photons: np.ndarray, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Apply an independently uniform draw from {I, U, H} to each photon
    of a code sequence; returns the new codes and the op masks drawn,
    which the controller retains privately."""
    ops = rng.integers(0, 3, size=len(photons)).astype(np.uint8)
    return photons ^ ops, ops


class HonestController:
    """Answers announcement rounds truthfully from its private record,
    and releases the whole record after a passing check. Each round asks
    about an array of origins at once."""

    def __init__(self, record: ControllerRecord):
        self._record = record

    def _ops(self, origins: np.ndarray) -> np.ndarray:
        return self._record.ops[np.searchsorted(self._record.origins, origins)]

    def announce_h(self, origins: np.ndarray) -> np.ndarray:
        return (self._ops(origins) == OP_MASK[OpLabel.H]).astype(np.uint8)

    def announce_flip(self, origins: np.ndarray, heard: np.ndarray, remaining: int) -> np.ndarray:
        return (self._ops(origins) == OP_MASK[OpLabel.U]).astype(np.uint8)

    def release(self, origins: np.ndarray) -> ControllerRecord:
        return self._record


class HonestReporter:
    """The receiver's honest check behavior: measure every check photon
    in the basis implied by its announced H parity, and report the
    outcomes. ``report`` returns the bases, the outcomes measured and the
    bits reported."""

    def __init__(self, labels: np.ndarray, photons_by_position: np.ndarray, rng: RandomSource):
        self._labels = labels
        self._photons = photons_by_position
        self._rng = rng

    def report(
        self, positions: np.ndarray, origins: np.ndarray, h_parity: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        bases = (self._labels[origins] >> 1) ^ h_parity
        outcomes = measure(self._photons[positions], bases, self._rng)
        return bases, outcomes, outcomes


@dataclass
class Chain:
    """What the controller chain delivered to the encoder, and who speaks
    for it at the check.

    ``photons`` are the codes of the survivors in arrival order and
    ``origins`` their indices in the prepared order. ``agents`` holds one
    announcing agent per controller, each able to ``release`` its record.
    ``reporter(photons_by_position)`` builds the receiver's check behavior
    from the returned photons, and ``schedule`` draws the announcement
    orders as ``schedule(n_check, m, rng)``.
    """

    photons: np.ndarray
    origins: np.ndarray
    agents: list[Any]
    reporter: Callable[[np.ndarray], HonestReporter]
    schedule: Callable[[int, int, RandomSource], AnnouncementSchedule] = AnnouncementSchedule.draw


def mc_check_round(
    labels: np.ndarray,
    rows: np.ndarray,
    schedule: AnnouncementSchedule,
    reporter: Any,
    agents: Sequence[Any],
    public: ClassicalChannel,
) -> tuple[float, np.ndarray]:
    """Run the two-round announcement dance over every check photon at
    once and return the encoder's measured error rate plus the mismatch
    of each photon.

    ``rows`` are the check photons' (position, origin, op mask) rows, the
    op being the encoder's private check operation; ``labels`` is the
    receiver's preparation record, published for those origins. Every
    agent answers a round for all the photons it speaks for: the H round
    in one call, since no H announcement depends on another, the flip
    round turn by turn, each voice hearing the parity of those before it.
    """
    k, m = len(rows), len(agents)
    if schedule.h_orders.shape != (k, m):
        raise ProtocolError("schedule does not cover the check photons and the controllers")
    positions, origins, ops = rows.T
    h_bits = np.zeros((k, m), dtype=np.uint8)
    for c, agent in enumerate(agents):
        h_bits[:, c] = agent.announce_h(origins)
    h_parity = np.bitwise_xor.reduce(h_bits, axis=1)
    bases, outcomes, reports = reporter.report(positions, origins, h_parity)
    flips = np.zeros((k, m), dtype=np.uint8)
    heard = np.zeros(k, dtype=np.uint8)
    for turn in range(m):
        for c, agent in enumerate(agents):
            sel = np.flatnonzero(schedule.iu_orders[:, turn] == c)
            flips[sel, turn] = agent.announce_flip(origins[sel], heard[sel], m - turn - 1)
        heard ^= flips[:, turn]
    expected = (labels[origins] ^ (2 * h_parity + heard) ^ ops) & 1
    mismatches = reports != expected
    if public.listening:
        columns = (positions, schedule.h_orders, schedule.iu_orders, h_bits, bases, outcomes)
        public.transcript.add(DanceBatch(public.seq, *columns, reports, flips))
    public.seq += k * (2 * m + 1)
    return int(np.count_nonzero(mismatches)) / k if k else 0.0, mismatches


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
    records: Mapping[int, ControllerRecord],
    n_controllers: int,
    rng: RandomSource,
    public: ClassicalChannel,
) -> list[int]:
    """Decode the message from the controllers' released records, keyed
    by controller index.

    Refuses outright when any controller's release is missing: the whole
    point of the control structure.
    """
    missing = set(range(n_controllers)) - set(records)
    if missing:
        raise ProtocolError(f"reconstruction refused: missing release from controllers {sorted(missing)}")
    chain = [records[c] for c in range(n_controllers)]
    return frame_decode(alice_labels, message_order, photons_by_position, chain, rng, public)


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
            public.announce(f"controller_{c}", "arrived", public.column(origins), stage="chain")
            photons, ops = controller_pass(photons, rng)
            agents.append(HonestController(ControllerRecord(origins, ops)))
    public.announce("bob", "arrived_forward", public.column(origins), stage="chain")
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
    if attack is not None:
        attack.check_config(config)

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
        attack.receive_secrets(turn, labels)
    receipt = turn.send_back(back, rng, public)
    rows = receipt.check_items
    positions, check_origins, masks = rows.T
    payload = {"positions": public.column(positions), "origins": public.column(check_origins)}
    public.announce("bob", "check_open", payload, stage="check")

    # The receiver publishes the initial states of the check photons so the
    # encoder can evaluate; only a transcript reads the disclosure back.
    if public.listening:
        states = Coded(labels[check_origins], STATE_TEXTS, keys=check_origins)
        public.announce("alice", "check_initial_states", states, stage="check")
    else:
        public.seq += 1
    error_rate, _mismatches = mc_check_round(
        labels,
        rows,
        chain.schedule(len(rows), m, rng),
        chain.reporter(receipt.photons),
        chain.agents,
        public,
    )
    # The check ops by position, rendered only if a transcript is written.
    disclosed = Coded(masks, OP_TEXTS, keys=positions)
    rates = [error_rate]
    aborted, order = decide_and_reveal(
        public, "bob", rates, config.error_threshold, receipt, ops=disclosed
    )
    if aborted[0]:
        return turn.outcome(receipt, rates, aborted, [], public)[0]

    # Controllers release their full records (fabricated ones included:
    # a colluder announces whatever it committed to during the check).
    records = {c: agent.release(chain.origins) for c, agent in enumerate(chain.agents)}
    if public.listening:
        for c, record in records.items():
            payload = Coded(record.ops, OP_TEXTS, keys=record.origins)
            public.announce(f"controller_{c}", "release", payload, stage="reveal")

    args = (labels, order, receipt.photons)
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
        decoded = release_and_reconstruct(*args, records, m, rng, public)
    return turn.outcome(receipt, rates, aborted, decoded, public)[0]
