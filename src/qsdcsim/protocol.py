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
     (see ``fabric.transmit``); in a controlled session, each hop's
     draws and then its controller's ops, hop after hop;
  3. one ``permuted`` draw of T rows over the widest row's survivors, the
     check sets: row r's are the first ``size[r]`` of its entries below
     its own survivor count n_r;
  4. the message bits of all rows;
  5. the check ops of all rows;
  6. a second such ``permuted`` draw, the shuffles: row r keeps its
     entries below n_r, in the order drawn (for T = 1, ``permutation(n)``);
  7. the return leg's draws;
  8. the check measurement, by ascending returned position; in a
     controlled session, the dance's orders and then its measurement;
  9. the reveal measurement of the rows that passed, likewise.

A controlled session (``multiparty.McSessionConfig``) runs on the same
engine over its chain of ``controllers`` hops, a two-party config being
the chain of none; the config's ``route`` picks the check stage. A
transcript and a fixed message are accepted only for a single session.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, ClassVar, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ProtocolError
from .fabric import (
    ClassicalChannel,
    Coded,
    NoiseModel,
    QuantumChannel,
    Transcript,
    json_texts,
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

#: The JSON texts of the op names, by code.
OP_TEXTS = json_texts(OP_NAMES)

#: The policy cap on a session's photon count. A qsdc session peaks at
#: 277 bytes per photon and a controlled one (m = 3) at 342 (tracemalloc,
#: N = 2^16 and 2^18), so the cap keeps one session within about 6 GB.
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


@dataclass(frozen=True)
class SessionConfig:
    """Everything that determines a session, together with the seed.

    ``check_count`` pins the check-set size exactly; when absent the size
    is ``round(check_fraction * n)`` for the sequence length n at selection
    time. The error threshold is a strict bound: the session aborts when
    the measured rate exceeds it.
    """

    n_photons: int = 64
    check_fraction: float = 0.25
    check_count: int | None = None
    error_threshold: float = 0.05
    noise: NoiseModel = field(default_factory=NoiseModel.none)
    loss: float = 0.0
    seed: int = 0
    #: The length of the controller chain: none in a two-party session;
    #: ``McSessionConfig`` makes it a field.
    controllers: ClassVar[int] = 0

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
        if self.check_count is not None and not 1 <= self.check_count <= self.n_photons - 1:
            raise ConfigError(f"check_count must be in [1, n_photons-1], got {self.check_count}")
        size = self.check_size(self.n_photons)
        if size < 1:
            raise ConfigError("configuration yields an empty check set")
        if self.n_photons - size < 1:
            raise ConfigError("configuration leaves no message positions")

    def check_size(self, n: Any) -> Any:
        """The check-set size of a sequence of n photons, elementwise over
        an array of lengths."""
        if self.check_count is not None:
            return 0 * n + self.check_count
        return np.rint(self.check_fraction * n).astype(np.intp)

    def route(
        self,
        labels: np.ndarray,
        hops: Sequence[QuantumChannel],
        rng: RandomSource,
        public: ClassicalChannel,
    ) -> "Route":
        """The honest forward leg of a two-party session: the photons fly
        straight to the encoder, who announces which arrived."""
        photons, origins = transmit_sequence(hops[0], labels, rng, public, "prepare")
        public.announce("bob", "arrived_forward", public.column(origins), stage="prepare")
        return Route(labels, photons, origins)


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
        aborted = bool(self.aborted[row])
        lo, hi = self.message_starts[row:row + 2]
        decoded = None if aborted else slice(*self.decoded_starts[row:row + 2])
        return SessionOutcome(
            aborted, float(self.error_rate[row]), self.message_bits[lo:hi].tolist(),
            None if decoded is None else self.decoded_bits[decoded].tolist(),
            None if decoded is None else self.decoded_positions[decoded].tolist(),
            int(self.n_check[row]), self.transcript, self, row,
        )

    def __iter__(self) -> Iterator["SessionOutcome"]:
        return (self[row] for row in range(len(self)))


@dataclass(frozen=True)
class SessionOutcome:
    """Result of one session as plain values, built once from row ``row``
    of its batch. ``decoded_bits`` is present exactly when the session was
    not aborted; under loss it is the sent message restricted to surviving
    positions, with ``decoded_positions`` giving the indices into the sent
    message that each decoded bit corresponds to."""

    aborted: bool
    measured_error_rate: float
    message_sent: list[int]
    decoded_bits: list[int] | None
    decoded_positions: list[int] | None
    n_check: int
    transcript: Transcript | None
    batch: SessionBatch = field(compare=False, repr=False)
    row: int = field(compare=False)

    def decode_hits(self) -> tuple[int, int]:
        """(hits, bits): how many decoded bits equal the sent bit they
        carry, out of all decoded bits; (0, 0) when nothing was decoded."""
        return int(self.batch.decode_hits[self.row]), int(self.batch.decode_bits[self.row])


def prepare_p_sequence(n: int, rng: RandomSource) -> np.ndarray:
    """Draw n preparation states independently and uniformly from the
    four-state alphabet, as frame codes. The codes are Alice's private
    preparation record and, as Pauli frames, the photons sent."""
    if n < 1:
        raise ConfigError(f"sequence length must be >= 1, got {n}")
    return random_codes(n, rng)


def select_check_positions(
    n: int | Sequence[int], size: int | Sequence[int], rng: RandomSource
) -> np.ndarray:
    """Uniformly random check subset of an explicit size, as a read-only
    mask over the sequence. Over a batch, ``n`` and ``size`` hold one
    entry per row: row r checks the first ``size[r]`` entries of its
    order from one ``_row_draw``, and the mask is flat over the rows laid
    end to end."""
    ns, sizes = np.array(n, ndmin=1), np.array(size, ndmin=1)
    bad = (sizes < 1) | (sizes > ns)
    row = bad.argmax()
    if bad[row]:
        k, m = sizes[row], ns[row]
        raise ConfigError(f"check set size {k} exceeds sequence length {m}" if k >= 1 else
                          "check set would be empty")
    draw, keep = _row_draw(ns, rng)
    take = keep & (keep.cumsum(axis=1) <= sizes[:, None])
    is_check = np.zeros(ns.sum(), dtype=bool)
    is_check[(draw + _firsts(ns)[:, None])[take]] = True
    is_check.flags.writeable = False
    return is_check


def encode(
    photons: np.ndarray, is_check: np.ndarray, message: Sequence[int], rng: RandomSource
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the encoder's operations to a code sequence.

    Check positions, those the mask ``is_check`` marks, receive an
    independently uniform draw from {I, U}, drawn in ascending position
    order and recorded privately. The remaining positions carry the
    message bits in ascending position order (0 -> I, 1 -> U). Returns the
    transformed codes and the op mask of every position (0 for I, 1 for U).
    """
    n = len(photons)
    is_check = np.asarray(is_check, dtype=bool)
    if len(is_check) != n:
        raise ProtocolError(f"check mask of {len(is_check)} positions != sequence of {n}")
    n_check = np.count_nonzero(is_check)
    if len(message) != n - n_check:
        raise ProtocolError(f"message length {len(message)} != {n} - {n_check} free positions")
    bits = np.asarray(message)
    bad = bits[(bits != 0) & (bits != 1)].tolist()
    if bad:
        raise ProtocolError(f"message bits must be 0/1, got {bad[0]!r}")
    ops = np.zeros(n, dtype=np.uint8)
    ops[is_check] = rng.integers(0, 2, size=n_check)
    ops[~is_check] = bits
    return photons ^ ops, ops


def rearrange(
    photons: np.ndarray, rng: RandomSource, sizes: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Reorder each row of the sequence by its own uniformly random secret
    permutation, all rows from one ``_row_draw``; ``sizes`` are
    the row lengths (one row by default). Returns the reordered sequence
    and the read-only ``mapping``: ``mapping[j]`` is the index of the
    photon placed at position j."""
    sizes = np.array([len(photons)]) if sizes is None else sizes
    if sizes.sum() != len(photons):
        raise ProtocolError(f"sequence of {len(photons)} != rows of {sizes.sum()} photons")
    draw, keep = _row_draw(sizes, rng)
    mapping = (draw + _firsts(sizes)[:, None])[keep]
    mapping.flags.writeable = False
    return np.asarray(photons)[mapping], mapping


def run_check(
    alice_labels: np.ndarray,
    rows: np.ndarray,
    outcomes: np.ndarray,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate the eavesdropping check from the encoder's disclosed check
    rows (position, origin, op mask) plus Alice's preparation codes and
    her outcome for each row's photon.

    For each check photon the expected outcome is the initial bit XOR'd
    with the encoder's announced bit-flip. Returns the mismatch fraction
    of each session, a session's check photons being those returned into
    its row (row r starts at position ``starts[r]``; one row by default).
    """
    if len(rows) == 0:
        raise ProtocolError("check announcement is empty")
    positions, origins, ops = np.asarray(rows).T
    if len(outcomes) != len(positions):
        raise ProtocolError("outcomes must align with the announced check rows")
    unknown = origins[(origins < 0) | (origins >= len(alice_labels))]
    if len(unknown):
        raise ProtocolError(f"check announcement references unknown origin {unknown[0]}")
    expected = (alice_labels[origins] ^ ops) & 1
    starts = np.array([0, positions.max() + 1]) if starts is None else starts
    return row_rates(starts, positions, outcomes != expected)


def row_rates(starts: np.ndarray, positions: np.ndarray, mismatches: np.ndarray) -> np.ndarray:
    """The mismatch fraction of each row's check photons, a photon's row
    read from its returned position (row r starts at ``starts[r]``)."""
    row, n_rows = row_of(starts, positions), len(starts) - 1
    return np.bincount(row[mismatches], minlength=n_rows) / np.bincount(row, minlength=n_rows)


def origin_rank(origins: np.ndarray, n: int) -> np.ndarray:
    """The indices of a message order's ``origins`` in ascending origin
    order (a counting sort over the n prepared origins)."""
    unknown = origins[(origins < 0) | (origins >= n)]
    if len(unknown):
        raise ProtocolError(f"message order references unknown origin {unknown[0]}")
    row = np.full(n, -1, dtype=np.intp)
    row[origins] = np.arange(len(origins))
    row = row[row >= 0]
    if len(row) != len(origins):
        raise ProtocolError("message order repeats an origin")
    return row


def transmit_sequence(
    channel: QuantumChannel,
    photons: np.ndarray,
    rng: RandomSource,
    public: ClassicalChannel,
    stage: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Send a whole code sequence down a channel, logging how many photons
    were sent and arrived (which ones, the receiver announces next). Returns
    the codes that arrived and their positions in the sent sequence."""
    public.record("quantum_send", stage, leg=channel.name, count=len(photons))
    arrived_photons, arrived = transmit(channel, photons, rng)
    public.record("quantum_deliver", stage, leg=channel.name, count=len(arrived))
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
    photons it received: ``origins[i]`` (ascending, as legs keep the order),
    ``is_check[i]`` and ``ops[i]`` are the prepared-order index, check mark
    and op mask of the i-th, and ``shuffled[j]`` is the ``mapping[j]``-th.
    Row r of the batch holds the photons from ``starts[r]`` on, before and
    after the shuffle, and its message bits follow the row before it in
    ``message_bits``."""

    origins: np.ndarray
    message_bits: np.ndarray
    is_check: np.ndarray
    ops: np.ndarray
    mapping: np.ndarray
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
        src = self.mapping[arrived]
        is_check = self.is_check[src]
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
        back[self.mapping[receipt.message_order[:, 0]]] = True
        landed = back[~self.is_check].nonzero()[0]
        slots = self.starts - np.flatnonzero(self.is_check).searchsorted(self.starts)
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
    is_check = select_check_positions(n_alive, sizes, rng)
    n_message = len(photons) - int(sizes.sum())
    if message is None:
        message = rng.integers(0, 2, size=n_message)
    elif len(message) != n_message:
        raise ConfigError(f"message length {len(message)} != {n_message} free positions")
    encoded, ops = encode(photons, is_check, message, rng)

    # Shuffle: the permutation exists only in Bob's head at this point.
    shuffled, mapping = rearrange(encoded, rng, n_alive)
    public.record("event", "shuffle", party="bob", count=len(shuffled))
    message_bits = np.asarray(message, dtype=np.uint8)
    return EncoderTurn(origins, message_bits, is_check, ops, mapping, shuffled, starts)


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
    are built one by one only for a transcript."""
    rates = np.asarray(error_rates, dtype=np.float64)
    aborted = rates > threshold
    if public.listening:
        for rate, stop in zip(rates.tolist(), aborted.tolist()):
            decision = {"error_rate": rate, "aborted": stop, **payload}
            public.announce(sender, "check_decision", decision, stage="check")
            public.record("decision", "check", error_rate=rate, threshold=threshold, aborted=stop)
    order = receipt.message_order
    n_aborted = np.count_nonzero(aborted)
    if n_aborted == len(aborted):
        return aborted, order[:0]
    if n_aborted:
        order = order.compress(~aborted[row_of(receipt.starts, order[:, 0])], axis=0)
    public.announce("bob", "message_order", public.column(order), stage="reveal")
    return aborted, order


def reveal_order_and_decode(
    labels: np.ndarray,
    message_order: np.ndarray,
    photons_by_position: np.ndarray,
    records: Sequence[Any],
    rng: RandomSource,
    public: ClassicalChannel,
) -> np.ndarray:
    """Decode the message once the order of the message positions is
    published, for both protocols, bits in ascending origin order: the
    receiver XORs the op masks of the controller ``records`` into each
    message photon's preparation code, measures the photons in the order
    published (ascending returned position) in the basis of the result,
    and strips its bit. With no records it is the preparation-basis decode."""
    positions, origins = np.asarray(message_order, dtype=np.intp).reshape(-1, 2).T
    rank = origin_rank(origins, len(labels))
    frames = labels.copy() if records else labels
    for record in records:
        frames[record.origins] ^= record.ops
    codes = frames[origins]
    bases = codes >> 1
    outcomes = measure(photons_by_position[positions], bases, rng)
    public.measured("reveal", "alice", positions, bases, outcomes)
    return (outcomes ^ (codes & 1))[rank]


@dataclass
class Route:
    """A batch's forward leg as the engine sees it: Alice's preparation
    codes ``labels``, the codes ``photons`` of the survivors in arrival
    order and their prepared-order ``origins``, and ``agents``, one per
    controller the photons passed (none on the two-party route), each able
    to ``release`` its record. ``bypassed`` marks photons that never met
    the controllers. Its ``check`` is the two-party check;
    ``multiparty.Chain`` swaps in the announcement dance."""

    labels: np.ndarray
    photons: np.ndarray
    origins: np.ndarray
    agents: list[Any] = field(default_factory=list)
    bypassed: bool = False

    def check(
        self, threshold: float, receipt: Receipt, rng: RandomSource, public: ClassicalChannel
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bob opens the check photons; Alice measures each in its
        preparation basis and decides. Returns each row's error rate, which
        rows aborted and the message order published."""
        # Only the check photons are opened: the message order stays secret.
        rows = receipt.check_items
        positions, origins, ops = rows.T
        payload = {"positions": public.column(positions), "origins": public.column(origins),
                   "ops": public.column(ops, OP_NAMES)}
        public.announce("bob", "check_open", payload, stage="check")
        bases = self.labels[origins] >> 1
        outcomes = measure(receipt.photons[positions], bases, rng)
        public.measured("check", "alice", positions, bases, outcomes)
        error_rates = run_check(self.labels, rows, outcomes, receipt.starts)
        return error_rates, *decide_and_reveal(public, "alice", error_rates, threshold, receipt)

    def release(self, withheld: int | None, public: ClassicalChannel) -> list[Any]:
        """After a passing check every controller releases its full record
        (a colluder a fabricated one, consistent with what it announced);
        returns the records the receiver decodes through."""
        records = [agent.release(self.origins) for agent in self.agents]
        if public.listening:
            for c, record in enumerate(records):
                payload = Coded(record.ops, OP_TEXTS, keys=record.origins)
                public.announce(f"controller_{c}", "release", payload, stage="reveal")
        if self.bypassed:
            # The corrupt receiver ignores the releases: the photons she holds
            # never met the controllers, so the preparation basis decodes them.
            return []
        # Decoding without a withheld record guesses identity for it; any
        # fixed guess scores the same, the withheld op being uniform.
        return [record for c, record in enumerate(records) if c != withheld]


@lru_cache(maxsize=None)
def _hop_names(m: int) -> tuple[str, ...]:
    """The names of the forward legs through a chain of m controllers,
    kept for each m a config allows (at most ``multiparty.MAX_CONTROLLERS``)."""
    nodes = ["alice", *(f"controller_{c}" for c in range(m)), "bob"]
    return tuple(f"{a}->{b}" for a, b in zip(nodes, nodes[1:]))


def run_sessions(
    config: SessionConfig,
    trials: int,
    rng: RandomSource,
    attack: Attack | None = None,
    message: Sequence[int] | None = None,
    public: ClassicalChannel | None = None,
    withheld_controller: int | None = None,
) -> SessionBatch:
    """Run a batch of ``trials`` sessions of either protocol, drawing from
    ``rng`` in the order the module describes (``config.seed`` is not
    read). The config's type picks the route: a ``SessionConfig`` runs
    two-party sessions, a ``multiparty.McSessionConfig`` controlled ones.

    ``message`` fixes the sender's bits (its length must match the free
    positions after the check set is carved out); by default random bits
    are drawn. An ``attack`` may install taps on the first and return legs
    before any photon flies, or reroute a controller chain; it serves the
    whole batch and reports on each row. ``withheld_controller`` decodes a
    controlled batch with that controller's release withheld, measuring
    the control property. A fixed message and a transcript on ``public``
    need ``trials == 1``.
    """
    public = ClassicalChannel() if public is None else public
    m = config.controllers
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if trials > 1 and (message is not None or public.listening):
        raise ConfigError("a fixed message or a transcript needs a single session")
    if withheld_controller is not None and not 0 <= withheld_controller < m:
        raise ConfigError(f"withheld controller {withheld_controller} out of range for m={m}")
    hops = [QuantumChannel(name=name, noise=config.noise, loss=config.loss) for name in _hop_names(m)]
    back = QuantumChannel(name="bob->alice", noise=config.noise, loss=config.loss)
    if attack is not None:
        attack.check_config(config)
        attack.install(hops[0], back, public, rng)

    # Preparation: Alice's codes are her private record and the photons sent.
    labels = prepare_p_sequence(trials * config.n_photons, rng)
    route = None if attack is None else attack.reroute(config, labels, hops, rng, public)
    route = config.route(labels, hops, rng, public) if route is None else route
    turn = encoder_turn(config, route.photons, route.origins, message, rng, public, trials)

    # Experiment instrumentation: a strategy may ask for secrets that the
    # protocol itself never discloses, to isolate what each one protects.
    if attack is not None:
        attack.receive_secrets(turn, labels)

    receipt = turn.send_back(back, rng, public)
    error_rates, aborted, order = route.check(config.error_threshold, receipt, rng, public)
    decoded = np.zeros(0, dtype=np.uint8)
    if np.count_nonzero(aborted) < trials:
        records = route.release(withheld_controller, public)
        decoded = reveal_order_and_decode(labels, order, receipt.photons, records, rng, public)
    return turn.outcome(receipt, error_rates, aborted, decoded, public)


def run_session(
    config: SessionConfig,
    attack: Attack | None = None,
    message: Sequence[int] | None = None,
    transcript: Transcript | None = None,
) -> SessionOutcome:
    """Run one full session, seeded with ``config.seed``: the batch of one
    (see ``run_sessions``)."""
    rng = np.random.default_rng(config.seed)
    return run_sessions(config, 1, rng, attack, message, ClassicalChannel(transcript))[0]
