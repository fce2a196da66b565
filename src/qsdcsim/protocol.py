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

Every stage works on a batch of T sessions (``run_sessions``; ``run_session``
is T = 1): one flat frame-code sequence (see ``quantum``) whose rows are the
sessions laid end to end, row r from flat position ``starts[r]`` on, so loss
leaves rows of different lengths without padding. Positions and origins are
flat indices over the batch. Each kind of random number is one draw for the
whole batch in ascending (row, position) order; only the check-set
``choice`` and the shuffle ``permutation`` are drawn row by row:

  1. the preparation codes of all T * N photons;
  2. the forward leg's draws, in the order the channel acts
     (see ``fabric.transmit``);
  3. one ``choice`` per row, the check set;
  4. the message bits of all rows;
  5. the check ops of all rows;
  6. one ``permutation`` per row, the shuffle;
  7. the return leg's draws;
  8. the check measurement, by ascending returned position;
  9. the reveal measurement of the rows that passed, likewise.

A transcript and a fixed message are accepted only for a single session.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .errors import ConfigError, ProtocolError
from .fabric import (
    ClassicalChannel,
    NoiseModel,
    QuantumChannel,
    Transcript,
    transmit,
)
from .quantum import (
    OP_NAMES,
    RandomSource,
    measure,
    random_codes,
)

if TYPE_CHECKING:
    from .attacks import Attack

#: A measurement record's entry at a position Alice did not measure.
UNMEASURED = 2

#: The policy cap on a session's photon count. A session peaks at about
#: 340 bytes per photon (measured at N = 2^19), so the cap keeps one
#: session within about 6 GB.
MAX_PHOTONS = 1 << 24


def row_of(starts: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The row of each flat index of a batch whose row r starts at
    ``starts[r]`` (empty rows included)."""
    return starts.searchsorted(index, side="right") - 1


def _counts(bounds: np.ndarray) -> np.ndarray:
    """The size of each row from its bounds, ``bounds[r + 1] - bounds[r]``."""
    return bounds[1:] - bounds[:-1]


def _each_row(sizes: list[int], draw: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """``draw(r, n)`` for every row r of n positions, each shifted onto its
    row's flat offset and laid end to end."""
    if len(sizes) == 1:
        return draw(0, sizes[0])
    offset, parts = 0, []
    for r, n in enumerate(sizes):
        parts.append(draw(r, n) + offset)
        offset += n
    return np.concatenate(parts)


@dataclass(frozen=True, eq=False)
class CheckSet:
    """Positions sacrificed to the eavesdropping check, ascending, within
    the sequence being encoded (flat over a batch's rows)."""

    positions: np.ndarray

    def __post_init__(self) -> None:
        positions = np.sort(np.asarray(self.positions, dtype=np.intp))
        if len(positions) == 0:
            raise ConfigError("check set must be nonempty")
        if np.count_nonzero(positions[1:] == positions[:-1]):
            raise ProtocolError("check positions must be distinct")
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)

    def mask(self, n: int) -> np.ndarray:
        """The check positions as a boolean mask over n positions."""
        mask = np.zeros(n, dtype=bool)
        mask[self.positions] = True
        return mask


@dataclass(frozen=True, eq=False)
class Permutation:
    """Bijection on sequence positions, an index array: ``mapping[j]`` is
    the source index of the element placed at position j."""

    mapping: np.ndarray

    def __post_init__(self) -> None:
        mapping = np.asarray(self.mapping, dtype=np.intp)
        hit = np.zeros(len(mapping), dtype=bool)
        hit[mapping[(mapping >= 0) & (mapping < len(mapping))]] = True
        if np.count_nonzero(hit) != len(hit):
            raise ProtocolError(f"not a permutation of [0,{len(mapping)}): {self.mapping}")
        object.__setattr__(self, "mapping", mapping)

    def apply(self, items: Sequence[Any]) -> np.ndarray:
        if len(items) != len(self.mapping):
            raise ProtocolError("sequence length does not match permutation size")
        return np.asarray(items)[self.mapping]

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.mapping)
        inv[self.mapping] = np.arange(len(self.mapping))
        return Permutation(inv)


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
        if not 1 <= self.n_photons <= MAX_PHOTONS:
            raise ConfigError(f"n_photons must be in [1, {MAX_PHOTONS}], got {self.n_photons}")
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


def prepare_p_sequence(n: int, rng: RandomSource) -> np.ndarray:
    """Draw n preparation states independently and uniformly from the
    four-state alphabet, as frame codes. The codes are Alice's private
    preparation record and, as Pauli frames, the photons sent."""
    if n < 1:
        raise ConfigError(f"sequence length must be >= 1, got {n}")
    return random_codes(n, rng)


def select_check_set(n: int, fraction: float, rng: RandomSource) -> CheckSet:
    """Uniformly random check subset of size round(fraction * n)."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"check fraction must be in (0,1), got {fraction}")
    size = int(round(fraction * n))
    return select_check_positions(n, size, rng)


def select_check_positions(
    n: int | Sequence[int], size: int | Sequence[int], rng: RandomSource
) -> CheckSet:
    """Uniformly random check subset of an explicit size. Over a batch,
    ``n`` and ``size`` hold one entry per row: row r gets ``size[r]`` of
    its ``n[r]`` positions from one ``choice`` draw, and the positions
    are flat over the rows laid end to end."""
    ns, sizes = (list(n), list(size)) if isinstance(n, Sequence) else ([n], [size])
    if min(sizes) < 1:
        raise ConfigError("check set would be empty")
    for k, m in zip(sizes, ns):
        if k > m:
            raise ConfigError(f"check set size {k} exceeds sequence length {m}")
    return CheckSet(_each_row(ns, lambda r, m: rng.choice(m, size=sizes[r], replace=False)))


def encode(
    photons: np.ndarray, check: CheckSet | None, message: Sequence[int], rng: RandomSource
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the encoder's operations to a code sequence.

    Check positions receive an independently uniform draw from {I, U},
    drawn in ascending position order and recorded privately. The
    remaining positions carry the message bits in ascending position
    order (0 -> I, 1 -> U). Returns the transformed codes and the op mask
    of every position (0 for I, 1 for U).
    """
    n = len(photons)
    n_check = 0 if check is None else len(check)
    if n_check and check.positions[-1] >= n:
        raise ProtocolError("check set references a position beyond the sequence")
    if len(message) != n - n_check:
        raise ProtocolError(f"message length {len(message)} != {n} - {n_check} free positions")
    bad = set(message) - {0, 1}
    if bad:
        raise ProtocolError(f"message bits must be 0/1, got {bad.pop()!r}")
    is_check = check.mask(n) if check is not None else np.zeros(n, dtype=bool)
    ops = np.zeros(n, dtype=np.uint8)
    ops[is_check] = rng.integers(0, 2, size=n_check)
    ops[~is_check] = message
    return photons ^ ops, ops


def rearrange(
    photons: np.ndarray, rng: RandomSource, sizes: Sequence[int] | None = None
) -> tuple[np.ndarray, Permutation]:
    """Reorder each row of the sequence by its own uniformly random secret
    permutation, one ``permutation`` draw per row; ``sizes`` are the row
    lengths (one row by default)."""
    sizes = [len(photons)] if sizes is None else sizes
    perm = Permutation(_each_row(sizes, lambda _r, n: rng.permutation(n)))
    return perm.apply(photons), perm


def run_check(
    alice_labels: np.ndarray,
    rows: np.ndarray,
    alice_measurements: np.ndarray,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate the eavesdropping check from the encoder's disclosed check
    rows (position, origin, op mask) plus Alice's preparation codes and
    her measurement record (outcome by returned position, ``UNMEASURED``
    where she did not measure).

    For each check photon the expected outcome is the initial bit XOR'd
    with the encoder's announced bit-flip. Returns the mismatch fraction
    of each session, a session's check photons being those returned into
    its row (row r starts at position ``starts[r]``; one row by default).
    """
    if len(rows) == 0:
        raise ProtocolError("check announcement is empty")
    positions, origins, ops = np.asarray(rows).T
    outcomes = _recorded(alice_measurements, positions)
    measured = len(alice_measurements) - np.count_nonzero(alice_measurements == UNMEASURED)
    if np.count_nonzero(outcomes == UNMEASURED) or measured != len(positions):
        raise ProtocolError("measurements must cover exactly the announced check positions")
    unknown = origins[(origins < 0) | (origins >= len(alice_labels))]
    if len(unknown):
        raise ProtocolError(f"check announcement references unknown origin {unknown[0]}")
    expected = (alice_labels[origins] ^ ops) & 1
    if starts is None:
        starts = np.array([0, len(alice_measurements)])
    row, n_rows = row_of(starts, positions), len(starts) - 1
    errors = np.bincount(row[outcomes != expected], minlength=n_rows)
    return errors / np.bincount(row, minlength=n_rows)


def _recorded(alice_measurements: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The outcomes of a measurement record at ``positions``: ``UNMEASURED``
    where nothing was measured, past the end of the record included."""
    return np.append(alice_measurements, UNMEASURED)[np.minimum(positions, len(alice_measurements))]


def by_origin(message_order: np.ndarray, n: int) -> np.ndarray:
    """The (position, origin) rows of a message order as two arrays, in
    ascending origin order (a counting sort over the n prepared origins)."""
    order = np.asarray(message_order, dtype=np.intp).reshape(-1, 2)
    unknown = order[(order[:, 1] < 0) | (order[:, 1] >= n), 1]
    if len(unknown):
        raise ProtocolError(f"message order references unknown origin {unknown[0]}")
    row = np.full(n, -1, dtype=np.intp)
    row[order[:, 1]] = np.arange(len(order))
    if np.count_nonzero(row >= 0) != len(order):
        raise ProtocolError("message order repeats an origin")
    return order[row[row >= 0]].T


def reveal_order_and_decode(
    alice_labels: np.ndarray,
    message_order: np.ndarray,
    alice_measurements: np.ndarray,
    check_passed: bool,
) -> list[int]:
    """Decode the message once the secret order of the message positions
    is published.

    ``message_order`` rows pair each returned-sequence position with its
    origin in the prepared order; the measurement record is indexed by
    the former (``UNMEASURED`` where Alice did not measure). Bits come out in
    ascending origin order: 0 when the outcome equals the initial bit, 1
    when it is flipped.
    """
    if not check_passed:
        raise ProtocolError("message order must not be consumed before the check decision")
    positions, origins = by_origin(message_order, len(alice_labels))
    outcomes = _recorded(alice_measurements, positions)
    missing = positions[outcomes == UNMEASURED]
    if len(missing):
        raise ProtocolError(f"no measurement recorded for position {missing[0]}")
    return (outcomes ^ (alice_labels[origins] & 1)).tolist()


def measure_at(
    photons: np.ndarray,
    positions: np.ndarray,
    bases: np.ndarray,
    rng: RandomSource,
    public: ClassicalChannel,
    stage: str,
) -> np.ndarray:
    """Alice measures the photons at ``positions``, in that order and in
    basis codes ``bases``, and logs each measurement. Returns her record
    by position: the outcome, or ``UNMEASURED`` where she did not measure."""
    outcomes = measure(photons[positions], bases, rng)
    public.measured(stage, "alice", positions, bases, outcomes)
    record = np.full(len(photons), UNMEASURED, dtype=np.uint8)
    record[positions] = outcomes
    return record


def transmit_sequence(
    channel: QuantumChannel,
    photons: np.ndarray,
    rng: RandomSource,
    public: ClassicalChannel,
    stage: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Send a whole code sequence down a channel, logging the send and
    the set of arrived positions. Returns the codes that arrived and their
    positions in the sent sequence."""
    public.record("quantum_send", stage, leg=channel.name, count=len(photons))
    arrived_photons, arrived = transmit(channel, photons, rng)
    public.record("quantum_deliver", stage, leg=channel.name, arrived=arrived.tolist())
    return arrived_photons, arrived


@dataclass(frozen=True)
class Receipt:
    """The returned sequence after the receipt: the codes by returned
    position (a lost one holds 0, never read), and the encoder's private
    split of the arrived positions into check rows (position, origin, op
    mask) and message-order rows (position, origin), by ascending position.
    ``starts`` is the batch's row layout of returned positions, and
    ``n_check[r]`` counts the check photons that came back in row r."""

    photons: np.ndarray
    check_items: np.ndarray
    message_order: np.ndarray
    starts: np.ndarray
    n_check: list[int]


@dataclass(frozen=True)
class EncoderTurn:
    """The encoder's private state once it has encoded and shuffled the
    photons it received: ``origins[i]`` (ascending, as legs keep the order)
    and ``ops[i]`` are the prepared-order index and op mask of the i-th.
    Row r of the batch holds the photons from ``starts[r]`` on, before and
    after the shuffle, and its message bits follow the row before it in
    ``message_bits``."""

    origins: np.ndarray
    message_bits: list[int]
    check: CheckSet
    ops: np.ndarray
    perm: Permutation
    shuffled: np.ndarray
    starts: np.ndarray

    def send_back(
        self, back: QuantumChannel, rng: RandomSource, public: ClassicalChannel
    ) -> Receipt:
        """Return leg and receipt: the receiver confirms which returned
        positions arrived, and the encoder splits them into check photons
        and message photons."""
        returned, arrived = transmit_sequence(back, self.shuffled, rng, public, "return")
        public.announce("alice", "receipt", arrived.tolist(), stage="receipt")
        src = self.perm.mapping[arrived]
        is_check = self.check.mask(len(self.shuffled))[src]
        n_check = _counts(arrived[is_check].searchsorted(self.starts)).tolist()
        if not all(n_check):
            raise ProtocolError("no check photons survived the return transmission")
        photons = np.zeros(len(self.shuffled), dtype=np.uint8)
        photons[arrived] = returned
        rows = np.column_stack((arrived, self.origins[src], self.ops[src]))
        return Receipt(photons, rows[is_check], rows[~is_check, :2], self.starts, n_check)

    def outcome(
        self,
        receipt: Receipt,
        error_rates: Sequence[float],
        aborted: Sequence[bool],
        decoded: list[int],
        public: ClassicalChannel,
    ) -> list[SessionOutcome]:
        """Assemble each session's result, with the transcript attached to
        ``public``; ``decoded`` holds the bits of the sessions that did not
        abort, session after session."""
        # Which sent-message indices did the decoded bits land on? Bit k of
        # a row rode on its k-th non-check photon: those that came back.
        back = np.zeros(len(self.shuffled), dtype=bool)
        back[self.perm.mapping[receipt.message_order[:, 0]]] = True
        landed = np.flatnonzero(back[~self.check.mask(len(back))])
        slots = self.starts - self.check.positions.searchsorted(self.starts)
        bounds = landed.searchsorted(slots)
        positions = (landed - slots[:-1].repeat(_counts(bounds))).tolist()
        slots, bounds = slots.tolist(), bounds.tolist()
        outcomes, used = [], 0
        for r, (rate, stop) in enumerate(zip(np.asarray(error_rates).tolist(), aborted)):
            lo, hi = bounds[r], bounds[r + 1]
            outcomes.append(SessionOutcome(
                aborted=stop,
                measured_error_rate=rate,
                message_sent=self.message_bits[slots[r]:slots[r + 1]],
                decoded_bits=None if stop else decoded[used:used + hi - lo],
                decoded_positions=None if stop else positions[lo:hi],
                n_check=receipt.n_check[r],
                transcript=public.transcript,
            ))
            used += 0 if stop else hi - lo
        return outcomes


def encoder_turn(
    config: SessionConfig,
    photons: np.ndarray,
    origins: np.ndarray,
    message: Sequence[int] | None,
    rng: RandomSource,
    public: ClassicalChannel,
    rows: int = 1,
) -> EncoderTurn:
    """The encoder's turn in each of a batch's ``rows`` sessions: carve the
    check set out of the session's surviving photons, encode its message
    on the rest, and shuffle. The ascending flat ``origins`` place each
    photon in its session, row r having prepared the origins from
    ``r * config.n_photons`` on. ``message`` fixes the bits (its length
    must match the free positions); by default random bits are drawn."""
    starts = origins.searchsorted(np.arange(0, (rows + 1) * config.n_photons, config.n_photons))
    n_alive = _counts(starts).tolist()
    sizes = []
    for n in n_alive:
        if n < 2:
            raise ProtocolError("too few photons survived to form a check set and a message")
        size = config.check_size(n)
        if size < 1:
            raise ProtocolError("too few photons survived to form a nonempty check set")
        if size >= n:
            raise ProtocolError("check set would leave no message positions after loss")
        sizes.append(size)
    check = select_check_positions(n_alive, sizes, rng)
    n_message = len(photons) - len(check)
    if message is None:
        message_bits = rng.integers(0, 2, size=n_message).tolist()
    else:
        if len(message) != n_message:
            raise ConfigError(f"message length {len(message)} != {n_message} free positions")
        message_bits = [int(b) for b in message]
    encoded, ops = encode(photons, check, message_bits, rng)

    # Shuffle: the permutation exists only in Bob's head at this point.
    shuffled, perm = rearrange(encoded, rng, n_alive)
    public.record("event", "shuffle", party="bob", count=len(shuffled))
    return EncoderTurn(origins, message_bits, check, ops, perm, shuffled, starts)


def decide_and_reveal(
    public: ClassicalChannel,
    sender: str,
    error_rates: Sequence[float],
    threshold: float,
    receipt: Receipt,
    **payload: Any,
) -> tuple[list[bool], np.ndarray]:
    """Announce and record each session's check decision; only after a
    passing check does the encoder publish the order of the message
    positions. Returns which sessions aborted and the order published:
    the message-order rows of the sessions that passed."""
    rates = np.asarray(error_rates).tolist()
    aborted = [rate > threshold for rate in rates]
    for rate, stop in zip(rates, aborted):
        decision = {"error_rate": rate, "aborted": stop, **payload}
        public.announce(sender, "check_decision", decision, stage="check")
        public.record("decision", "check", error_rate=rate, threshold=threshold, aborted=stop)
    order = receipt.message_order
    if all(aborted):
        return aborted, order[:0]
    if any(aborted):
        order = order[~np.array(aborted)[row_of(receipt.starts, order[:, 0])]]
    public.announce("bob", "message_order", order.tolist(), stage="reveal")
    return aborted, order


def run_sessions(
    config: SessionConfig,
    trials: int,
    rng: RandomSource,
    attack: Attack | None = None,
    message: Sequence[int] | None = None,
    public: ClassicalChannel | None = None,
) -> list[SessionOutcome]:
    """Run a batch of ``trials`` two-party sessions, drawing from ``rng``
    in the order the module describes (``config.seed`` is not read).

    ``message`` fixes the sender's bits (its length must match the free
    positions after the check set is carved out); by default random bits
    are drawn. An ``attack`` may install taps on either quantum leg before
    any photon flies; it serves the whole batch and reports on each row.
    A fixed message and a transcript on ``public`` need ``trials == 1``.
    """
    public = ClassicalChannel() if public is None else public
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if trials > 1 and (message is not None or public.listening):
        raise ConfigError("a fixed message or a transcript needs a single session")
    forward = QuantumChannel(name="alice->bob", noise=config.noise, loss=config.loss)
    back = QuantumChannel(name="bob->alice", noise=config.noise, loss=config.loss)
    if attack is not None:
        attack.install(forward, back, public, rng)

    # Preparation: Alice's codes are her private record and the photons sent.
    labels = prepare_p_sequence(trials * config.n_photons, rng)
    photons, origins = transmit_sequence(forward, labels, rng, public, "prepare")

    # Receiver announces arrivals; both sides drop lost positions.
    public.announce("bob", "arrived_forward", origins.tolist(), stage="prepare")
    turn = encoder_turn(config, photons, origins, message, rng, public, trials)

    # Experiment instrumentation: a strategy may ask for secrets that the
    # protocol itself never discloses, to isolate what each one protects.
    if attack is not None:
        attack.receive_secrets(turn, labels)

    receipt = turn.send_back(back, rng, public)

    # Check disclosure: positions, their origins, and Bob's check ops --
    # but only for check photons, the message order stays secret.
    photons, rows = receipt.photons, receipt.check_items
    positions, check_origins, ops = rows.T.tolist()
    public.announce(
        "bob",
        "check_open",
        {"positions": positions, "origins": check_origins, "ops": [OP_NAMES[op] for op in ops]},
        stage="check",
    )

    # Alice measures every check photon, then every message photon of the
    # sessions that passed, in its preparation basis.
    measured = measure_at(photons, rows[:, 0], labels[rows[:, 1]] >> 1, rng, public, "check")
    error_rates = run_check(labels, rows, measured, turn.starts)
    aborted, order = decide_and_reveal(public, "alice", error_rates, config.error_threshold, receipt)
    decoded: list[int] = []
    if not all(aborted):
        measured = measure_at(photons, order[:, 0], labels[order[:, 1]] >> 1, rng, public, "reveal")
        decoded = reveal_order_and_decode(labels, order, measured, check_passed=True)
    return turn.outcome(receipt, error_rates, aborted, decoded, public)


def run_session(
    config: SessionConfig,
    attack: Attack | None = None,
    message: Sequence[int] | None = None,
    transcript: Transcript | None = None,
) -> SessionOutcome:
    """Run one full two-party session, seeded with ``config.seed``: the
    batch of one (see ``run_sessions``)."""
    rng = np.random.default_rng(config.seed)
    return run_sessions(config, 1, rng, attack, message, ClassicalChannel(transcript))[0]
