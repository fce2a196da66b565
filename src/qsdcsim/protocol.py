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
whole batch in ascending (row, position) order:

  1. the preparation codes of all T * N photons;
  2. the forward leg's draws, in the order the channel acts
     (see ``fabric.transmit``);
  3. one ``permuted`` draw of T rows over the widest row's survivors, the
     check sets: row r's are the first ``size[r]`` of its entries below
     its own survivor count n_r, sorted;
  4. the message bits of all rows;
  5. the check ops of all rows;
  6. a second such ``permuted`` draw, the shuffles: row r keeps its
     entries below n_r, in the order drawn (for T = 1, ``permutation(n)``);
  7. the return leg's draws;
  8. the check measurement, by ascending returned position;
  9. the reveal measurement of the rows that passed, likewise.

A transcript and a fixed message are accepted only for a single session.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

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
#: The entry ``_recorded`` reads past the end of a record.
_UNMEASURED_ENTRY = np.array([UNMEASURED], dtype=np.uint8)

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


def _row_draw(sizes: np.ndarray, rng: RandomSource) -> tuple[np.ndarray, np.ndarray]:
    """One ``permuted`` draw of [0, width) per row size n, width the
    largest size, as a matrix with a row per size, and which entries each
    row keeps: those below its own n. A row's kept entries, in the order
    drawn, are a uniformly random order of [0, n): a uniform permutation
    restricted to [0, n) is a uniform permutation of [0, n), so ragged
    rows need no second draw. One row draws the numbers of
    ``permutation(n)``."""
    draw = rng.permuted(np.arange(sizes.max())[None].repeat(len(sizes), 0), axis=1)
    return draw, draw < sizes[:, None]


def _firsts(sizes: np.ndarray) -> np.ndarray:
    """The flat index of each row's first entry, rows of ``sizes`` laid
    end to end."""
    return sizes.cumsum() - sizes


@dataclass(frozen=True, eq=False)
class CheckSet:
    """Positions sacrificed to the eavesdropping check, ascending, within
    the sequence being encoded (flat over a batch's rows)."""

    positions: np.ndarray
    _mask: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        positions = np.array(self.positions, dtype=np.intp)
        positions.sort()
        if len(positions) == 0:
            raise ConfigError("check set must be nonempty")
        if np.count_nonzero(positions[1:] == positions[:-1]):
            raise ProtocolError("check positions must be distinct")
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.positions)

    def mask(self, n: int) -> np.ndarray:
        """The check positions as a boolean mask over n positions, built
        once per length and shared, read-only, by the stages."""
        mask = self._mask
        if mask is None or len(mask) != n:
            mask = np.zeros(n, dtype=bool)
            mask[self.positions] = True
            mask.flags.writeable = False
            object.__setattr__(self, "_mask", mask)
        return mask


@dataclass(frozen=True, eq=False)
class Permutation:
    """Bijection on sequence positions, an index array: ``mapping[j]`` is
    the source index of the element placed at position j."""

    mapping: np.ndarray

    def __post_init__(self) -> None:
        mapping = np.asarray(self.mapping, dtype=np.intp)
        n = len(mapping)
        # Mark each entry's slot; an entry out of [0, n), read unsigned,
        # marks the spare slot n instead.
        hit = np.zeros(n + 1, dtype=bool)
        hit[np.minimum(mapping.view(np.uintp), n).astype(np.intp)] = True
        if np.count_nonzero(hit[:n]) != n:
            raise ProtocolError(f"not a permutation of [0,{n}): {self.mapping}")
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

    def check_size(self, n: Any) -> Any:
        """The check-set size of a sequence of n photons, elementwise over
        an array of lengths."""
        if self.check_count is not None:
            if not 1 <= self.check_count <= self.n_photons - 1:
                raise ConfigError(f"check_count must be in [1, n_photons-1], got {self.check_count}")
            return 0 * n + self.check_count
        return np.rint(self.check_fraction * n).astype(np.intp)


@dataclass(frozen=True, eq=False)
class SessionBatch:
    """Results of a batch of sessions as columns, one entry per row:
    whether it aborted, its measured error rate, how many check photons
    came back, and how many decoded bits equal the sent bit they carry.
    The sent messages lie end to end in ``message_bits``, row r's from
    ``message_starts[r]`` on. The decoded bits, and each one's index into
    its row's sent message, are flat over the rows that did not abort,
    row r's from ``decoded_starts[r]`` on (an aborted row holds none).
    Indexing or iterating gives each row's ``SessionOutcome``."""

    aborted: np.ndarray
    error_rate: np.ndarray
    n_check: np.ndarray
    decode_hits: np.ndarray
    message_bits: np.ndarray
    message_starts: np.ndarray
    decoded_bits: np.ndarray
    decoded_positions: np.ndarray
    decoded_starts: np.ndarray
    transcript: Transcript | None

    @property
    def decode_bits(self) -> np.ndarray:
        """How many bits each row decoded (0 where it aborted)."""
        return _counts(self.decoded_starts)

    def __len__(self) -> int:
        return len(self.aborted)

    def __getitem__(self, row: int) -> "SessionOutcome":
        if not 0 <= row < len(self):
            raise IndexError(f"batch has no row {row}")
        return SessionOutcome(self, row)

    def __iter__(self) -> Iterator["SessionOutcome"]:
        return (SessionOutcome(self, row) for row in range(len(self)))


@dataclass(frozen=True, eq=False)
class SessionOutcome:
    """Result of one session, row ``row`` of its batch, read as plain
    values. ``decoded_bits`` is present exactly when the session was not
    aborted; under loss it is the sent message restricted to surviving
    positions, with ``decoded_positions`` giving the indices into the sent
    message that each decoded bit corresponds to."""

    batch: SessionBatch
    row: int

    #: The values a row reads, the fields of a session's result.
    FIELDS = ("aborted", "measured_error_rate", "message_sent", "decoded_bits",
              "decoded_positions", "n_check", "transcript")

    @property
    def aborted(self) -> bool:
        return bool(self.batch.aborted[self.row])

    @property
    def measured_error_rate(self) -> float:
        return float(self.batch.error_rate[self.row])

    @property
    def message_sent(self) -> list[int]:
        lo, hi = self.batch.message_starts[self.row:self.row + 2]
        return self.batch.message_bits[lo:hi].tolist()

    def _decoded(self, column: np.ndarray) -> list[int] | None:
        if self.aborted:
            return None
        lo, hi = self.batch.decoded_starts[self.row:self.row + 2]
        return column[lo:hi].tolist()

    @property
    def decoded_bits(self) -> list[int] | None:
        return self._decoded(self.batch.decoded_bits)

    @property
    def decoded_positions(self) -> list[int] | None:
        return self._decoded(self.batch.decoded_positions)

    @property
    def n_check(self) -> int:
        return int(self.batch.n_check[self.row])

    @property
    def transcript(self) -> Transcript | None:
        return self.batch.transcript

    def decode_hits(self) -> tuple[int, int]:
        """(hits, bits): how many decoded bits equal the sent bit they
        carry, out of all decoded bits; (0, 0) when nothing was decoded."""
        return int(self.batch.decode_hits[self.row]), int(self.batch.decode_bits[self.row])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SessionOutcome):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.FIELDS)


def prepare_p_sequence(n: int, rng: RandomSource) -> np.ndarray:
    """Draw n preparation states independently and uniformly from the
    four-state alphabet, as frame codes. The codes are Alice's private
    preparation record and, as Pauli frames, the photons sent."""
    if n < 1:
        raise ConfigError(f"sequence length must be >= 1, got {n}")
    return random_codes(n, rng)


def select_check_positions(
    n: int | Sequence[int], size: int | Sequence[int], rng: RandomSource
) -> CheckSet:
    """Uniformly random check subset of an explicit size. Over a batch,
    ``n`` and ``size`` hold one entry per row: row r gets the first
    ``size[r]`` entries of its order from one ``_row_draw``, and
    the positions, ascending, are flat over the rows laid end to end."""
    ns, sizes = np.array(n, ndmin=1), np.array(size, ndmin=1)
    bad = (sizes < 1) | (sizes > ns)
    row = bad.argmax()
    if bad[row]:
        k, m = sizes[row], ns[row]
        raise ConfigError(f"check set size {k} exceeds sequence length {m}" if k >= 1 else
                          "check set would be empty")
    draw, keep = _row_draw(ns, rng)
    take = keep & (keep.cumsum(axis=1) <= sizes[:, None])
    return CheckSet((draw + _firsts(ns)[:, None])[take])


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
    n_check = 0 if check is None else len(check.positions)
    if n_check and check.positions[-1] >= n:
        raise ProtocolError("check set references a position beyond the sequence")
    if len(message) != n - n_check:
        raise ProtocolError(f"message length {len(message)} != {n} - {n_check} free positions")
    bits = np.asarray(message)
    bad = bits[(bits != 0) & (bits != 1)].tolist()
    if bad:
        raise ProtocolError(f"message bits must be 0/1, got {bad[0]!r}")
    is_check = check.mask(n) if check is not None else np.zeros(n, dtype=bool)
    ops = np.zeros(n, dtype=np.uint8)
    ops[is_check] = rng.integers(0, 2, size=n_check)
    ops[~is_check] = bits
    return photons ^ ops, ops


def rearrange(
    photons: np.ndarray, rng: RandomSource, sizes: np.ndarray | None = None
) -> tuple[np.ndarray, Permutation]:
    """Reorder each row of the sequence by its own uniformly random secret
    permutation, all rows from one ``_row_draw``; ``sizes`` are
    the row lengths (one row by default)."""
    sizes = np.array([len(photons)]) if sizes is None else sizes
    draw, keep = _row_draw(sizes, rng)
    perm = Permutation((draw + _firsts(sizes)[:, None])[keep])
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
    n = len(alice_measurements)
    measured = n - np.count_nonzero(alice_measurements == UNMEASURED)
    if UNMEASURED in outcomes or measured != len(positions):
        raise ProtocolError("measurements must cover exactly the announced check positions")
    unknown = origins[(origins < 0) | (origins >= len(alice_labels))]
    if len(unknown):
        raise ProtocolError(f"check announcement references unknown origin {unknown[0]}")
    expected = (alice_labels[origins] ^ ops) & 1
    if starts is None:
        starts = np.array([0, n])
    row, n_rows = row_of(starts, positions), len(starts) - 1
    errors = np.bincount(row[outcomes != expected], minlength=n_rows)
    return errors / np.bincount(row, minlength=n_rows)


def _recorded(alice_measurements: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The outcomes of a measurement record at ``positions``: ``UNMEASURED``
    where nothing was measured, past the end of the record included."""
    padded = np.concatenate((alice_measurements, _UNMEASURED_ENTRY))
    return padded[np.minimum(positions, len(alice_measurements))]


def by_origin(message_order: np.ndarray, n: int) -> np.ndarray:
    """The (position, origin) rows of a message order as two arrays, in
    ascending origin order (a counting sort over the n prepared origins)."""
    order = np.asarray(message_order, dtype=np.intp).reshape(-1, 2)
    origins = order[:, 1]
    unknown = origins[(origins < 0) | (origins >= n)]
    if len(unknown):
        raise ProtocolError(f"message order references unknown origin {unknown[0]}")
    row = np.full(n, -1, dtype=np.intp)
    row[origins] = np.arange(len(order))
    row = row[row >= 0]
    if len(row) != len(order):
        raise ProtocolError("message order repeats an origin")
    return order.take(row, axis=0).T


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
    public.record("quantum_deliver", stage, leg=channel.name, arrived=public.column(arrived))
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
    n_check: np.ndarray


@dataclass(frozen=True)
class EncoderTurn:
    """The encoder's private state once it has encoded and shuffled the
    photons it received: ``origins[i]`` (ascending, as legs keep the order)
    and ``ops[i]`` are the prepared-order index and op mask of the i-th.
    Row r of the batch holds the photons from ``starts[r]`` on, before and
    after the shuffle, and its message bits follow the row before it in
    ``message_bits``."""

    origins: np.ndarray
    message_bits: np.ndarray
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
        public.announce("alice", "receipt", public.column(arrived), stage="receipt")
        src = self.perm.mapping[arrived]
        is_check = self.check.mask(len(self.shuffled))[src]
        columns = np.array((arrived, self.origins[src], self.ops[src]))
        check_items = columns.compress(is_check, axis=1).T
        n_check = _counts(check_items[:, 0].searchsorted(self.starts))
        if 0 in n_check:
            raise ProtocolError("no check photons survived the return transmission")
        photons = np.zeros(len(self.shuffled), dtype=np.uint8)
        photons[arrived] = returned
        message_order = columns[:2].compress(~is_check, axis=1).T
        return Receipt(photons, check_items, message_order, self.starts, n_check)

    def outcome(
        self,
        receipt: Receipt,
        error_rates: Sequence[float],
        aborted: np.ndarray,
        decoded: Sequence[int],
        public: ClassicalChannel,
    ) -> SessionBatch:
        """Assemble the batch's results, with the transcript attached to
        ``public``; ``decoded`` holds the bits of the sessions that did not
        abort, session after session."""
        # Which sent-message indices did the decoded bits land on? Bit k of
        # a row rode on its k-th non-check photon: those that came back.
        back = np.zeros(len(self.shuffled), dtype=bool)
        back[self.perm.mapping[receipt.message_order[:, 0]]] = True
        landed = back[~self.check.mask(len(back))].nonzero()[0]
        slots = self.starts - self.check.positions.searchsorted(self.starts)
        row = row_of(slots, landed)
        kept = ~aborted[row]
        landed, row = landed[kept], row[kept]
        decoded_bits = np.asarray(decoded, dtype=np.uint8)
        hit = decoded_bits == self.message_bits[landed]
        n_rows = len(aborted)
        return SessionBatch(
            aborted=aborted,
            error_rate=np.asarray(error_rates, dtype=np.float64),
            n_check=receipt.n_check,
            decode_hits=np.bincount(row[hit], minlength=n_rows),
            message_bits=self.message_bits,
            message_starts=slots,
            decoded_bits=decoded_bits,
            decoded_positions=landed - slots[row],
            decoded_starts=landed.searchsorted(slots),
            transcript=public.transcript,
        )


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
    n_alive = _counts(starts)
    sizes = config.check_size(n_alive)
    starved = (sizes < 1) | (sizes >= n_alive)
    row = starved.argmax()
    if starved[row]:
        if n_alive[row] < 2:
            raise ProtocolError("too few photons survived to form a check set and a message")
        if sizes[row] < 1:
            raise ProtocolError("too few photons survived to form a nonempty check set")
        raise ProtocolError("check set would leave no message positions after loss")
    check = select_check_positions(n_alive, sizes, rng)
    n_message = len(photons) - len(check.positions)
    if message is None:
        message = rng.integers(0, 2, size=n_message)
    elif len(message) != n_message:
        raise ConfigError(f"message length {len(message)} != {n_message} free positions")
    encoded, ops = encode(photons, check, message, rng)

    # Shuffle: the permutation exists only in Bob's head at this point.
    shuffled, perm = rearrange(encoded, rng, n_alive)
    public.record("event", "shuffle", party="bob", count=len(shuffled))
    message_bits = np.asarray(message, dtype=np.uint8)
    return EncoderTurn(origins, message_bits, check, ops, perm, shuffled, starts)


def decide_and_reveal(
    public: ClassicalChannel,
    sender: str,
    error_rates: Sequence[float],
    threshold: float,
    receipt: Receipt,
    **payload: Any,
) -> tuple[np.ndarray, np.ndarray]:
    """Announce and record each session's check decision; only after a
    passing check does the encoder publish the order of the message
    positions. Returns which sessions aborted and the order published:
    the message-order rows of the sessions that passed. The decisions
    are built one by one only for a transcript; unheard, they just take
    their sequence numbers."""
    rates = np.asarray(error_rates, dtype=np.float64)
    aborted = rates > threshold
    if public.listening:
        for rate, stop in zip(rates.tolist(), aborted.tolist()):
            decision = {"error_rate": rate, "aborted": stop, **payload}
            public.announce(sender, "check_decision", decision, stage="check")
            public.record("decision", "check", error_rate=rate, threshold=threshold, aborted=stop)
    else:
        public.seq += len(rates)
    order = receipt.message_order
    n_aborted = np.count_nonzero(aborted)
    if n_aborted == len(aborted):
        return aborted, order[:0]
    if n_aborted:
        order = order.compress(~aborted[row_of(receipt.starts, order[:, 0])], axis=0)
    public.announce("bob", "message_order", public.column(order), stage="reveal")
    return aborted, order


def run_sessions(
    config: SessionConfig,
    trials: int,
    rng: RandomSource,
    attack: Attack | None = None,
    message: Sequence[int] | None = None,
    public: ClassicalChannel | None = None,
) -> SessionBatch:
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
    public.announce("bob", "arrived_forward", public.column(origins), stage="prepare")
    turn = encoder_turn(config, photons, origins, message, rng, public, trials)

    # Experiment instrumentation: a strategy may ask for secrets that the
    # protocol itself never discloses, to isolate what each one protects.
    if attack is not None:
        attack.receive_secrets(turn, labels)

    receipt = turn.send_back(back, rng, public)

    # Check disclosure: positions, their origins, and Bob's check ops --
    # but only for check photons, the message order stays secret.
    photons, rows = receipt.photons, receipt.check_items
    positions, check_origins, ops = rows.T
    payload = {"positions": public.column(positions), "origins": public.column(check_origins),
               "ops": public.column(ops, OP_NAMES)}
    public.announce("bob", "check_open", payload, stage="check")

    # Alice measures every check photon, then every message photon of the
    # sessions that passed, in its preparation basis.
    measured = measure_at(photons, rows[:, 0], labels[rows[:, 1]] >> 1, rng, public, "check")
    error_rates = run_check(labels, rows, measured, turn.starts)
    aborted, order = decide_and_reveal(public, "alice", error_rates, config.error_threshold, receipt)
    decoded = np.zeros(0, dtype=np.uint8)
    if np.count_nonzero(aborted) < trials:
        measured = measure_at(photons, order[:, 0], labels[order[:, 1]] >> 1, rng, public, "reveal")
        # The published order, decoded in ascending origin order: each
        # outcome XOR the preparation bit (see reveal_order_and_decode).
        positions, origins = by_origin(order, len(labels))
        decoded = measured[positions] ^ (labels[origins] & 1)
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
