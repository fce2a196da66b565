"""Two-party direct-communication protocol over rearranged single photons.

Roles: Alice prepares the photons and finally reads the message; Bob is
the sender, encoding his bits as identity / bit-flip operations before
returning the photons in a secret order.

One session walks the stages in order:

  prepare   Alice draws N states uniformly from the four-state alphabet
            and sends the sequence to Bob.
  encode    Bob picks a random check subset, applies random I/U to it,
            and writes his message on the rest (0 -> I, 1 -> U).
  shuffle   Bob applies a secret uniformly random permutation and sends
            the reordered sequence back.
  receipt   Alice confirms which positions arrived.
  check     Bob discloses the check positions, their origin within the
            original order, and his check operations; Alice measures each
            check photon in its preparation basis and evaluates the error
            rate against the configured threshold.
  reveal    Only after a passing check does Bob publish the order of the
            message positions, letting Alice measure and decode.

Lost photons are announced by the receiver after every transmission and
dropped from both parties' bookkeeping, so indices stay aligned under a
lossy channel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from .errors import ConfigError, ProtocolError
from .fabric import (
    ClassicalChannel,
    Lost,
    NoiseModel,
    QuantumChannel,
    Transcript,
    transmit,
)
from .quantum import (
    OpLabel,
    RandomSource,
    StateLabel,
    apply_op_symbolic,
    measure,
    random_labels,
)

if TYPE_CHECKING:
    from .attacks import Attack

#: Message-bit encoding: operation applied for bit 0 and bit 1.
OP_FOR_BIT = (OpLabel.I, OpLabel.U)


@dataclass(frozen=True)
class CheckSet:
    """Positions sacrificed to the eavesdropping check, within the
    sequence being encoded."""

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.positions) == 0:
            raise ConfigError("check set must be nonempty")
        if len(set(self.positions)) != len(self.positions):
            raise ProtocolError("check positions must be distinct")
        object.__setattr__(self, "positions", tuple(sorted(self.positions)))

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Permutation:
    """Bijection on sequence positions. ``mapping[j]`` is the source index
    of the element placed at position j."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ProtocolError(f"not a permutation of [0,{len(self.mapping)}): {self.mapping}")

    @classmethod
    def random(cls, n: int, rng: RandomSource) -> "Permutation":
        return cls(tuple(int(i) for i in rng.permutation(n)))

    def apply(self, items: Sequence[Any]) -> list[Any]:
        if len(items) != len(self.mapping):
            raise ProtocolError("sequence length does not match permutation size")
        return [items[src] for src in self.mapping]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for new_pos, src in enumerate(self.mapping):
            inv[src] = new_pos
        return Permutation(tuple(inv))


@dataclass(frozen=True)
class CheckAnnouncement:
    """Public disclosure opening the check: for every check photon its
    position in the returned sequence, its origin in the prepared order,
    and the encoder's operation on it."""

    positions: tuple[int, ...]
    origins: tuple[int, ...]
    ops: tuple[OpLabel, ...]

    def __post_init__(self) -> None:
        if not len(self.positions) == len(self.origins) == len(self.ops):
            raise ProtocolError("check announcement fields must align")
        if len(set(self.positions)) != len(self.positions):
            raise ProtocolError("check announcement repeats a position")


@dataclass(frozen=True)
class SessionConfig:
    """Everything that determines a session, together with the seed.

    ``check_count`` pins the check-set size exactly; when absent the size
    is ``round(check_fraction * n)`` for the sequence length n at selection
    time. The error threshold is a strict bound: the session aborts when
    the measured rate exceeds it.
    """

    n_photons: int
    check_fraction: float = 0.25
    check_count: int | None = None
    error_threshold: float = 0.05
    noise: NoiseModel = field(default_factory=NoiseModel.none)
    loss: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_photons < 1:
            raise ConfigError(f"n_photons must be >= 1, got {self.n_photons}")
        if not 0.0 < self.check_fraction < 1.0:
            raise ConfigError(f"check_fraction must be in (0,1), got {self.check_fraction}")
        if not 0.0 <= self.error_threshold <= 1.0:
            raise ConfigError(f"error_threshold must be in [0,1], got {self.error_threshold}")
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigError(f"loss must be in [0,1], got {self.loss}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        size = self.check_size(self.n_photons)
        if size < 1:
            raise ConfigError("configuration yields an empty check set")
        if self.n_photons - size < 1:
            raise ConfigError("configuration leaves no message positions")

    def check_size(self, n: int) -> int:
        if self.check_count is not None:
            if not 1 <= self.check_count <= self.n_photons - 1:
                raise ConfigError(f"check_count must be in [1, n_photons-1], got {self.check_count}")
            return self.check_count
        return int(round(self.check_fraction * n))


@dataclass
class SessionOutcome:
    """Result of one session. ``decoded_bits`` is present exactly when the
    session was not aborted; under loss it is the sent message restricted
    to surviving positions, with ``decoded_positions`` giving the indices
    into the sent message that each decoded bit corresponds to."""

    aborted: bool
    measured_error_rate: float
    message_sent: list[int]
    decoded_bits: list[int] | None
    decoded_positions: list[int] | None
    n_check: int
    transcript: Transcript | None

    def decode_hits(self) -> tuple[int, int]:
        """(hits, bits): how many decoded bits equal the sent bit they
        carry, out of all decoded bits; (0, 0) when nothing was decoded."""
        if self.decoded_bits is None:
            return 0, 0
        positions = self.decoded_positions or range(len(self.decoded_bits))
        sent = self.message_sent
        hits = sum(1 for bit, k in zip(self.decoded_bits, positions) if bit == sent[k])
        return hits, len(self.decoded_bits)


def decode_accuracy(outcome: SessionOutcome) -> float | None:
    """Fraction of decoded bits matching the sent message (None when the
    session aborted or decoded nothing)."""
    hits, bits = outcome.decode_hits()
    return hits / bits if bits else None


def prepare_p_sequence(n: int, rng: RandomSource) -> list[StateLabel]:
    """Draw n preparation labels independently and uniformly from the
    four-state alphabet. The labels are Alice's private preparation record
    and, as Pauli frames, the photons sent."""
    if n < 1:
        raise ConfigError(f"sequence length must be >= 1, got {n}")
    return random_labels(n, rng)


def select_check_set(n: int, fraction: float, rng: RandomSource) -> CheckSet:
    """Uniformly random check subset of size round(fraction * n)."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"check fraction must be in (0,1), got {fraction}")
    size = int(round(fraction * n))
    return select_check_positions(n, size, rng)


def select_check_positions(n: int, size: int, rng: RandomSource) -> CheckSet:
    """Uniformly random check subset of an explicit size."""
    if size < 1:
        raise ConfigError("check set would be empty")
    if size > n:
        raise ConfigError(f"check set size {size} exceeds sequence length {n}")
    positions = rng.choice(n, size=size, replace=False)
    return CheckSet(tuple(int(p) for p in positions))


def encode(
    photons: Sequence[StateLabel],
    check: CheckSet | None,
    message: Sequence[int],
    rng: RandomSource,
) -> tuple[list[StateLabel], list[OpLabel], dict[int, OpLabel]]:
    """Apply the encoder's operations position by position.

    Check positions receive an independently uniform draw from {I, U},
    recorded privately. The remaining positions carry the message bits in
    ascending position order (0 -> I, 1 -> U). Returns the transformed
    photons, the full operation list, and the private check-op record.
    """
    n = len(photons)
    check_positions = set(check.positions) if check is not None else set()
    if any(p >= n for p in check_positions):
        raise ProtocolError("check set references a position beyond the sequence")
    if len(message) != n - len(check_positions):
        raise ProtocolError(
            f"message length {len(message)} != {n} - {len(check_positions)} free positions"
        )
    ops: list[OpLabel] = []
    check_record: dict[int, OpLabel] = {}
    out: list[StateLabel] = []
    next_bit = iter(message)
    for pos in range(n):
        if pos in check_positions:
            op = OP_FOR_BIT[int(rng.integers(0, 2))]
            check_record[pos] = op
        else:
            bit = next(next_bit)
            if bit not in (0, 1):
                raise ProtocolError(f"message bits must be 0/1, got {bit!r}")
            op = OP_FOR_BIT[bit]
        ops.append(op)
        out.append(apply_op_symbolic(op, photons[pos]))
    return out, ops, check_record


def rearrange(
    photons: Sequence[StateLabel], rng: RandomSource
) -> tuple[list[StateLabel], Permutation]:
    """Reorder the sequence by a uniformly random secret permutation."""
    perm = Permutation.random(len(photons), rng)
    return perm.apply(photons), perm


def run_check(
    alice_labels: Sequence[StateLabel],
    announced: CheckAnnouncement,
    alice_measurements: Mapping[int, int],
) -> float:
    """Evaluate the eavesdropping check from public data plus Alice's
    preparation record and measurement outcomes.

    For each check photon the expected outcome is the initial bit XOR'd
    with the encoder's announced bit-flip. Returns the mismatch fraction.
    """
    if len(announced.positions) == 0:
        raise ProtocolError("check announcement is empty")
    if set(alice_measurements) != set(announced.positions):
        raise ProtocolError("measurements must cover exactly the announced check positions")
    errors = 0
    for pos, orig, op in zip(announced.positions, announced.origins, announced.ops):
        if not 0 <= orig < len(alice_labels):
            raise ProtocolError(f"check announcement references unknown origin {orig}")
        expected = alice_labels[orig].bit ^ (1 if op is OpLabel.U else 0)
        if alice_measurements[pos] != expected:
            errors += 1
    return errors / len(announced.positions)


def reveal_order_and_decode(
    alice_labels: Sequence[StateLabel],
    message_order: Sequence[tuple[int, int]],
    alice_measurements: Mapping[int, int],
    check_passed: bool,
) -> list[int]:
    """Decode the message once the secret order of the message positions
    is published.

    ``message_order`` pairs each returned-sequence position with its
    origin in the prepared order; measurements are keyed by the former.
    Bits come out in ascending origin order: 0 when the outcome equals the
    initial bit, 1 when it is flipped.
    """
    if not check_passed:
        raise ProtocolError("message order must not be consumed before the check decision")
    by_origin = sorted(message_order, key=lambda pair: pair[1])
    bits: list[int] = []
    for pos, orig in by_origin:
        if not 0 <= orig < len(alice_labels):
            raise ProtocolError(f"message order references unknown origin {orig}")
        if pos not in alice_measurements:
            raise ProtocolError(f"no measurement recorded for position {pos}")
        bits.append(alice_measurements[pos] ^ alice_labels[orig].bit)
    return bits


def transmit_sequence(
    channel: QuantumChannel,
    photons: Sequence[StateLabel],
    rng: RandomSource,
    public: ClassicalChannel,
    stage: str,
) -> tuple[list[StateLabel], list[int]]:
    """Send a whole sequence down a channel, logging the send and the set
    of arrived positions. Returns the photons that arrived and their
    positions in the sent sequence."""
    public.record("quantum_send", stage, leg=channel.name, count=len(photons))
    delivered = [transmit(channel, ph, rng) for ph in photons]
    arrived = [i for i, ph in enumerate(delivered) if not isinstance(ph, Lost)]
    public.record("quantum_deliver", stage, leg=channel.name, arrived=arrived)
    return [delivered[i] for i in arrived], arrived  # type: ignore[misc]


@dataclass(frozen=True)
class Receipt:
    """The returned sequence as the receiver holds it after the receipt:
    arrived photons by returned position, and the encoder's private split
    of those positions into check items (position, origin, check op) and
    the message order (position, origin), both in ascending position."""

    photons: dict[int, StateLabel]
    check_items: list[tuple[int, int, OpLabel]]
    message_order: list[tuple[int, int]]


@dataclass(frozen=True)
class EncoderTurn:
    """The encoder's private state once it has encoded and shuffled the
    photons it received; ``origins[i]`` is the prepared-order index of the
    i-th of them."""

    origins: list[int]
    message_bits: list[int]
    check: CheckSet
    check_record: dict[int, OpLabel]
    perm: Permutation
    shuffled: list[StateLabel]

    def send_back(
        self, back: QuantumChannel, rng: RandomSource, public: ClassicalChannel
    ) -> Receipt:
        """Return leg and receipt: the receiver confirms which returned
        positions arrived, and the encoder splits them into check photons
        and message photons."""
        returned, arrived = transmit_sequence(back, self.shuffled, rng, public, "return")
        public.announce("alice", "receipt", arrived, stage="receipt")
        check_items: list[tuple[int, int, OpLabel]] = []
        message_order: list[tuple[int, int]] = []
        for j in arrived:
            src = self.perm.mapping[j]
            if src in self.check_record:
                check_items.append((j, self.origins[src], self.check_record[src]))
            else:
                message_order.append((j, self.origins[src]))
        if not check_items:
            raise ProtocolError("no check photons survived the return transmission")
        return Receipt(dict(zip(arrived, returned)), check_items, message_order)

    def outcome(
        self,
        receipt: Receipt,
        error_rate: float,
        decoded: list[int] | None,
        public: ClassicalChannel,
    ) -> SessionOutcome:
        """Assemble the session result, with the transcript attached to
        ``public``; ``decoded`` is None exactly when the check aborted."""
        decoded_positions = None
        if decoded is not None:
            # Which sent-message indices did the decoded bits land on? Ranks
            # of the surviving message origins within all message origins.
            all_message_origins = sorted(
                orig for i, orig in enumerate(self.origins) if i not in self.check_record
            )
            rank = {orig: k for k, orig in enumerate(all_message_origins)}
            decoded_positions = sorted(rank[orig] for _pos, orig in receipt.message_order)
        return SessionOutcome(
            aborted=decoded is None,
            measured_error_rate=error_rate,
            message_sent=self.message_bits,
            decoded_bits=decoded,
            decoded_positions=decoded_positions,
            n_check=len(receipt.check_items),
            transcript=public._transcript,
        )


def encoder_turn(
    config: SessionConfig,
    photons: list[StateLabel],
    origins: list[int],
    message: Sequence[int] | None,
    rng: RandomSource,
    public: ClassicalChannel,
) -> EncoderTurn:
    """The encoder's turn: carve the check set out of the surviving
    photons, encode the message on the rest, and shuffle. ``message``
    fixes the bits (its length must match the free positions); by default
    random bits are drawn."""
    n_alive = len(photons)
    if n_alive < 2:
        raise ProtocolError("too few photons survived to form a check set and a message")
    size = config.check_size(n_alive)
    if size >= n_alive:
        raise ProtocolError("check set would leave no message positions after loss")
    check = select_check_positions(n_alive, size, rng)
    n_message = n_alive - len(check)
    if message is None:
        message_bits = [int(b) for b in rng.integers(0, 2, size=n_message)]
    else:
        if len(message) != n_message:
            raise ConfigError(f"message length {len(message)} != {n_message} free positions")
        message_bits = [int(b) for b in message]
    encoded, _ops, check_record = encode(photons, check, message_bits, rng)

    # Shuffle: the permutation exists only in Bob's head at this point.
    shuffled, perm = rearrange(encoded, rng)
    public.record("event", "shuffle", party="bob", count=len(shuffled))
    return EncoderTurn(origins, message_bits, check, check_record, perm, shuffled)


def decide_and_reveal(
    public: ClassicalChannel,
    sender: str,
    error_rate: float,
    threshold: float,
    receipt: Receipt,
    **payload: Any,
) -> bool:
    """Announce and record the check decision; only after a passing check
    does the encoder publish the order of the message positions. Returns
    whether the session aborted."""
    aborted = error_rate > threshold
    public.announce(
        sender,
        "check_decision",
        {"error_rate": error_rate, "aborted": aborted, **payload},
        stage="check",
    )
    public.record("decision", "check", error_rate=error_rate, threshold=threshold, aborted=aborted)
    if not aborted:
        public.announce(
            "bob",
            "message_order",
            [[pos, orig] for pos, orig in receipt.message_order],
            stage="reveal",
        )
    return aborted


def run_session(
    config: SessionConfig,
    attack: Attack | None = None,
    message: Sequence[int] | None = None,
    transcript: Transcript | None = None,
) -> SessionOutcome:
    """Run one full two-party session.

    ``message`` fixes the sender's bits (its length must match the free
    positions after the check set is carved out); by default random bits
    are drawn. An ``attack`` may install taps on either quantum leg before
    any photon flies.
    """
    rng = np.random.default_rng(config.seed)
    public = ClassicalChannel(transcript)
    forward = QuantumChannel(name="alice->bob", noise=config.noise, loss=config.loss)
    back = QuantumChannel(name="bob->alice", noise=config.noise, loss=config.loss)
    if attack is not None:
        attack.install(forward, back, public, rng)

    # Preparation: Alice's labels are her private record and the photons sent.
    labels = prepare_p_sequence(config.n_photons, rng)
    photons, origins = transmit_sequence(forward, labels, rng, public, "prepare")

    # Receiver announces arrivals; both sides drop lost positions.
    public.announce("bob", "arrived_forward", origins, stage="prepare")
    turn = encoder_turn(config, photons, origins, message, rng, public)

    # Experiment instrumentation: a strategy may ask for secrets that the
    # protocol itself never discloses, to isolate what each one protects.
    if attack is not None:
        attack.receive_secrets(turn.perm, origins, turn.check, labels)

    receipt = turn.send_back(back, rng, public)

    # Check disclosure: positions, their origins, and Bob's check ops --
    # but only for check photons, the message order stays secret.
    announced = CheckAnnouncement(*zip(*receipt.check_items))
    public.announce(
        "bob",
        "check_open",
        {
            "positions": list(announced.positions),
            "origins": list(announced.origins),
            "ops": [op.value for op in announced.ops],
        },
        stage="check",
    )

    # Alice measures every check photon in its preparation basis.
    check_measurements: dict[int, int] = {}
    for pos, orig, _op in receipt.check_items:
        basis = labels[orig].basis
        outcome = measure(receipt.photons[pos], basis, rng)
        public.measured("check", "alice", pos, basis, outcome)
        check_measurements[pos] = outcome
    error_rate = run_check(labels, announced, check_measurements)
    if decide_and_reveal(public, "alice", error_rate, config.error_threshold, receipt):
        return turn.outcome(receipt, error_rate, None, public)

    # Alice measures the message photons in their preparation bases.
    message_measurements: dict[int, int] = {}
    for pos, orig in receipt.message_order:
        basis = labels[orig].basis
        outcome = measure(receipt.photons[pos], basis, rng)
        public.measured("reveal", "alice", pos, basis, outcome)
        message_measurements[pos] = outcome
    decoded = reveal_order_and_decode(
        labels, receipt.message_order, message_measurements, check_passed=True
    )
    return turn.outcome(receipt, error_rate, decoded, public)
