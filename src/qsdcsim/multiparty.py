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
photons dance at once as array operations. An honest controller's answers
never depend on what it heard, so its record answers both rounds in one
gather of its ops. Any other agent listens: it answers the H round for an
array of origins, and the flip round turn by turn, each voice hearing the
parity of the voices before it.

Decoding requires every controller's full operation record; withholding
any single record provably reduces the receiver to coin-flip accuracy,
which is the control property the harness measures.

A controlled session runs on the two-party engine, ``protocol.run_sessions``,
over the ``Chain`` that ``McSessionConfig.route`` walks; ``run_mc_session``
is the batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ProtocolError
from .fabric import BASIS_TEXTS, ClassicalChannel, Coded, QuantumChannel, Transcript, json_texts
from .protocol import (
    OP_TEXTS,
    Receipt,
    Route,
    SessionConfig,
    SessionOutcome,
    decide_and_reveal,
    reveal_order_and_decode,
    row_rates,
    run_sessions,
    transmit_sequence,
)
from .quantum import (
    CANONICAL_LABELS,
    OP_MASK,
    OpLabel,
    RandomSource,
    measure,
)

if TYPE_CHECKING:
    from .attacks import Attack

#: The JSON texts of the initial states the receiver discloses for the
#: check, by code.
STATE_TEXTS = json_texts([{"basis": s.basis.value, "bit": s.bit} for s in CANONICAL_LABELS])

#: The op masks an honest controller's two announcements test for.
H_MASK, U_MASK = OP_MASK[OpLabel.H], OP_MASK[OpLabel.U]

#: The policy cap on the controller chain. Every controller adds a hop,
#: a private record of N ops and two announcements per check photon, so a
#: session's memory and transcript grow with N times the chain length.
MAX_CONTROLLERS = 64


@dataclass(frozen=True)
class McSessionConfig(SessionConfig):
    """Session configuration with a controller chain of length
    ``controllers`` between the preparer and the encoder."""

    controllers: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.controllers <= MAX_CONTROLLERS:
            raise ConfigError(
                f"controllers must be in [0, {MAX_CONTROLLERS}], got {self.controllers}"
            )

    def route(
        self,
        labels: np.ndarray,
        hops: Sequence[QuantumChannel],
        rng: RandomSource,
        public: ClassicalChannel,
    ) -> "Chain":
        """Walk the photons through the honest controller chain, hop by hop,
        with per-hop arrival announcements and private op records."""
        photons = labels
        origins = np.arange(len(photons))
        agents: list[Any] = []
        for c, hop in enumerate(hops):
            photons, alive = transmit_sequence(hop, photons, rng, public, "chain")
            origins = origins[alive]
            if c < len(hops) - 1:
                public.announce(f"controller_{c}", "arrived", public.column(origins), stage="chain")
                photons, ops = controller_pass(photons, rng)
                agents.append(ControllerRecord(origins, ops))
        public.announce("bob", "arrived_forward", public.column(origins), stage="chain")
        return Chain(labels, photons, origins, agents)


@dataclass(frozen=True)
class ControllerRecord:
    """One controller's private operations: ``ops[k]`` is the op mask it
    applied to the photon of prepared-order index ``origins[k]``. As an
    honest controller it answers each announcement round truthfully for an
    array of origins at once, and releases itself after a passing check.
    The dance reads a record's ops directly; the two announcements serve
    agents that wrap one."""

    origins: np.ndarray
    ops: np.ndarray

    def _ops(self, origins: np.ndarray) -> np.ndarray:
        return self.ops[self.origins.searchsorted(origins)]

    def announce_h(self, origins: np.ndarray) -> np.ndarray:
        return (self._ops(origins) == H_MASK).astype(np.uint8)

    def announce_flip(self, origins: np.ndarray, heard: np.ndarray, remaining: int) -> np.ndarray:
        return (self._ops(origins) == U_MASK).astype(np.uint8)

    def release(self, origins: np.ndarray) -> "ControllerRecord":
        return self


def announcement_orders(
    n_check: int, m: int, rng: RandomSource, fixed: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The controller orders of the check, one row per check photon: the
    (n_check, m) orders of its H round and of its flip round. Fresh
    uniform orderings, independent across photons and rounds, take one
    ``permuted`` draw per round, which shuffles row after row as
    ``n_check`` calls of ``permutation(m)`` would. ``fixed`` announces in
    chain order for every photon and draws nothing (the flawed variant:
    the last controller always speaks last, kept as a negative control)."""
    orders = np.tile(np.arange(m), (n_check, 1))
    if fixed:
        return orders, orders
    return rng.permuted(orders, axis=1), rng.permuted(orders, axis=1)


def controller_pass(photons: np.ndarray, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """Apply an independently uniform draw from {I, U, H} to each photon
    of a code sequence; returns the new codes and the op masks drawn,
    which the controller retains privately."""
    ops = rng.integers(0, 3, size=len(photons)).astype(np.uint8)
    return photons ^ ops, ops


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
class Chain(Route):
    """A controlled batch's forward leg: what the controller chain
    delivered to the encoder, and who speaks for it at the check.
    ``reporter`` is the receiver's check behavior, built on the returned
    photons, and ``fixed_order`` announces the check in chain order
    instead of a random order per photon (see ``announcement_orders``)."""

    reporter: type[HonestReporter] = HonestReporter
    fixed_order: bool = False

    def check(
        self, threshold: float, receipt: Receipt, rng: RandomSource, public: ClassicalChannel
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The announcement dance over every check photon of the batch, and
        the encoder's decision on each row."""
        labels, rows = self.labels, receipt.check_items
        positions, check_origins, masks = rows.T
        payload = {"positions": public.column(positions), "origins": public.column(check_origins)}
        public.announce("bob", "check_open", payload, stage="check")

        # The receiver publishes the initial states of the check photons so
        # the encoder can evaluate; only a transcript reads the disclosure back.
        if public.listening:
            states = Coded(labels[check_origins], STATE_TEXTS, keys=check_origins)
            public.announce("alice", "check_initial_states", states, stage="check")
        orders = announcement_orders(len(rows), len(self.agents), rng, self.fixed_order)
        reporter = self.reporter(labels, receipt.photons, rng)
        mismatches = mc_check_round(labels, rows, *orders, reporter, self.agents, public)
        error_rates = row_rates(receipt.starts, positions, mismatches)
        # The check ops by position, rendered only if a transcript is written.
        disclosed = Coded(masks, OP_TEXTS, keys=positions)
        return error_rates, *decide_and_reveal(public, "bob", error_rates, threshold, receipt, ops=disclosed)


def mc_check_round(
    labels: np.ndarray,
    rows: np.ndarray,
    h_orders: np.ndarray,
    iu_orders: np.ndarray,
    reporter: Any,
    agents: Sequence[Any],
    public: ClassicalChannel,
) -> np.ndarray:
    """Run the two-round announcement dance over every check photon at
    once and return whether each photon's report mismatched.

    ``rows`` are the check photons' (position, origin, op mask) rows, the
    op being the encoder's private check operation; ``labels`` is the
    receiver's preparation record, published for those origins.
    ``h_orders[i]`` and ``iu_orders[i]`` are the controller orders of
    photon i's H and flip rounds, each a (photons, m) array. An honest
    ``ControllerRecord`` answers by its ops, read once for every photon.
    Any other agent listens, and is called for each round: the H round in
    one call, since no H announcement depends on another, the flip round
    turn by turn, each voice hearing the parity of those before it, honest
    ones included: in each turn, every listener in chain order, for its
    photons of the turn in photon order.
    """
    k, m = len(rows), len(agents)
    if h_orders.shape != (k, m) or iu_orders.shape != (k, m):
        raise ProtocolError("schedule does not cover the check photons and the controllers")
    positions, origins, ops = rows.T
    # The op mask by controller; a listener's column stays I.
    held = np.zeros((k, m), dtype=np.uint8)
    listeners = []
    for c, agent in enumerate(agents):
        if type(agent) is ControllerRecord:
            held[:, c] = agent._ops(origins)
        else:
            listeners.append((c, agent))
    h_bits = (held == H_MASK).astype(np.uint8)
    for c, agent in listeners:
        h_bits[:, c] = agent.announce_h(origins)
    h_parity = np.bitwise_xor.reduce(h_bits, axis=1)
    bases, outcomes, reports = reporter.report(positions, origins, h_parity)
    flips = np.take_along_axis((held == U_MASK).astype(np.uint8), iu_orders, axis=1)
    for turn in range(m):
        for c, agent in listeners:
            spoken = np.flatnonzero(iu_orders[:, turn] == c)
            said = np.bitwise_xor.reduce(flips[spoken, :turn], axis=1)
            flips[spoken, turn] = agent.announce_flip(origins[spoken], said, m - turn - 1)
    heard = np.bitwise_xor.reduce(flips, axis=1)
    expected = (labels[origins] ^ (2 * h_parity + heard) ^ ops) & 1
    mismatches = reports != expected
    if public.listening:
        # One event for the whole dance, the bits by turn; its announcements
        # are numbered on from ``seq`` as if made one by one.
        h_turns = np.take_along_axis(h_bits, h_orders, axis=1)
        public.record("dance", "check", seq=public.seq, positions=positions,
                      h_order=h_orders, iu_order=iu_orders, h_bits=h_turns,
                      bases=Coded(bases, BASIS_TEXTS), outcomes=outcomes, reports=reports, flips=flips)
        public.seq += k * (2 * m + 1)
    return mismatches


def release_and_reconstruct(
    alice_labels: np.ndarray,
    message_order: np.ndarray,
    photons_by_position: np.ndarray,
    records: Mapping[int, ControllerRecord],
    n_controllers: int,
    rng: RandomSource,
    public: ClassicalChannel,
) -> np.ndarray:
    """Decode the message from the controllers' released records, keyed
    by controller index.

    Refuses outright when any controller's release is missing: the whole
    point of the control structure.
    """
    missing = set(range(n_controllers)) - set(records)
    if missing:
        raise ProtocolError(f"reconstruction refused: missing release from controllers {sorted(missing)}")
    chain = [records[c] for c in range(n_controllers)]
    return reveal_order_and_decode(
        alice_labels, message_order, photons_by_position, chain, rng, public
    )


def run_mc_session(
    config: McSessionConfig,
    attack: Attack | None = None,
    message: Sequence[int] | None = None,
    transcript: Transcript | None = None,
    withheld_controller: int | None = None,
) -> SessionOutcome:
    """Run one controlled session, seeded with ``config.seed``: the batch
    of one (see ``protocol.run_sessions`` for ``attack`` and
    ``withheld_controller``)."""
    rng = np.random.default_rng(config.seed)
    public = ClassicalChannel(transcript)
    return run_sessions(config, 1, rng, attack, message, public, withheld_controller)[0]
