"""Simulated transmission fabric: quantum channels with taps, loss and
noise, a broadcast classical channel, and the session transcript.

A quantum channel carries a whole frame-code sequence (see ``quantum``)
at once: ``transmit`` hands it to each tap in registration order, then
rolls loss, then noise over the photons that survived. Taps receive the
codes and must return replacements; the original is never delivered
alongside the copy, which is how the no-cloning rule is enforced
structurally. Loss is reported as the positions that arrived, never as a
silent drop.

The transcript writes each event as one line of canonical JSON. Its bulk
fields, the measurements, the check dance and the integer payloads, are
columns, written as bytes when every value is a digit or every text has
one width, else from a bounded table of decimal strings.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Any, Protocol, Sequence

import numpy as np

from .errors import ConfigError
from .quantum import BASES, RandomSource, random_codes


class NoiseKind(Enum):
    NONE = "none"
    BIT_FLIP = "bit_flip"
    DEPOLARIZING = "depolarizing"


@dataclass(frozen=True)
class NoiseModel:
    """Per-transmission noise. ``bit_flip`` applies the Pauli-X matrix
    [[0,1],[1,0]] with probability p, which flips the bit of a Z-basis
    photon and only rephases an X-basis one; ``depolarizing`` replaces the
    state with a uniformly random canonical state with probability p."""

    kind: NoiseKind = NoiseKind.NONE
    p: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ConfigError(f"noise probability must be in [0,1], got {self.p}")
        if self.kind is NoiseKind.NONE and self.p != 0.0:
            raise ConfigError("noise kind 'none' requires p = 0")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(NoiseKind.NONE, 0.0)

    @classmethod
    def bit_flip(cls, p: float) -> "NoiseModel":
        return cls(NoiseKind.BIT_FLIP, p)

    @classmethod
    def depolarizing(cls, p: float) -> "NoiseModel":
        return cls(NoiseKind.DEPOLARIZING, p)


# A loss marker no channel returns; it stays because perfbench compares
# ``transmit`` results with it.
LOST = object()


class Tap(Protocol):
    """An adversary hook sitting on a quantum channel.

    ``relay`` takes ownership of the whole code sequence and returns the
    codes that continue down the line, leaving its input unwritten. There
    is no copy operation: whatever the tap keeps, the line does not carry.
    """

    def relay(self, codes: np.ndarray, rng: RandomSource) -> np.ndarray: ...


@dataclass
class QuantumChannel:
    """One directed quantum leg between two parties."""

    name: str = ""
    noise: NoiseModel = field(default_factory=NoiseModel.none)
    loss: float = 0.0
    taps: list[Tap] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigError(f"loss must be in [0,1], got {self.loss}")


def transmit(
    channel: QuantumChannel, codes: np.ndarray, rng: RandomSource
) -> tuple[np.ndarray, np.ndarray]:
    """Send a code sequence down a channel: taps, then loss, then noise.
    Returns the codes that arrived and their positions in ``codes``, which
    is never written into.

    The draws follow the channel's action, each kind as one batch: every
    tap's draws in registration order, one loss coin per photon, one noise
    coin per survivor, and a uniform code for each photon depolarized. An
    effect that is not configured draws nothing, so an identity channel
    consumes no randomness.
    """
    for tap in channel.taps:
        codes = tap.relay(codes, rng)
    arrived = np.arange(len(codes))
    if channel.loss > 0.0:
        arrived = np.flatnonzero(rng.random(len(codes)) >= channel.loss)
        codes = codes[arrived]
    noise = channel.noise
    if noise.kind is NoiseKind.NONE or noise.p == 0.0:
        return codes, arrived
    hit = rng.random(len(codes)) < noise.p
    if noise.kind is NoiseKind.BIT_FLIP:
        # Pauli X flips a Z-basis bit and only rephases an X eigenstate.
        return codes ^ (hit & (codes < 2)), arrived
    codes = codes.copy()
    codes[hit] = random_codes(np.count_nonzero(hit), rng)
    return codes, arrived


#: ``json.dumps`` with sorted keys and no spaces, skipping the cycle check.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode

#: The decimal strings of 0, 1, 2, ..., grown to the next power of two
#: above the largest value asked for, up to ``DECIMAL_CAP`` entries; larger
#: values are written with ``str``. ``n_photons`` reaches 2^24, and a table
#: that large would hold about a gigabyte of strings. The table is a cache:
#: no output depends on its size.
DECIMAL_CAP = 1 << 16
_decimal_table = np.array([str(i) for i in range(1024)], dtype=object)


def _decimals(values: np.ndarray, low: int, top: int) -> np.ndarray:
    """The decimal strings of a non-empty integer array, least and greatest
    values ``low`` and ``top``, as an object array of the same shape."""
    global _decimal_table
    values = np.asarray(values, dtype=np.int64)
    size = len(_decimal_table)
    if size <= top and size < DECIMAL_CAP:
        size = min(DECIMAL_CAP, 1 << top.bit_length())
        _decimal_table = np.array([str(i) for i in range(size)], dtype=object)
    if top < size and low >= 0:
        return _decimal_table[values]
    out = np.empty(values.shape, dtype=object)
    small = (values >= 0) & (values < size)
    out[small] = _decimal_table[values[small]]
    out[~small] = [str(v) for v in values[~small].tolist()]
    return out


def _int_json(values: np.ndarray) -> str:
    """An integer array as JSON, a list or (2-D) a list of lists: as bytes
    when every value is one digit, else in one join of its decimal strings."""
    if values.size == 0:
        return "[" + ",".join(["[]"] * len(values) if values.ndim == 2 else []) + "]"
    low, top = int(values.min()), int(values.max())
    if low >= 0 and top <= 9:  # each row "[", its digits between commas, "]" and ","
        grid = np.atleast_2d(values)
        cells = np.full((len(grid), 2 * grid.shape[1] + 2), ord(","), dtype=np.uint8)
        cells[:, 0], cells[:, -2], cells[:, 1:-2:2] = ord("["), ord("]"), grid + ord("0")
        text = cells.ravel()[:-1].tobytes().decode()
        return text if values.ndim == 1 else "[" + text + "]"
    if values.ndim == 1:
        return "[" + ",".join(_decimals(values, low, top).tolist()) + "]"
    rows, width = values.shape
    cells = np.full((rows, 2 * width), ",", dtype=object)
    cells[:, 0::2] = _decimals(values, low, top)
    cells[:, -1] = "],["
    return "[[" + "".join(cells.ravel()[:-1].tolist()) + "]]"


def json_texts(values: Sequence[Any]) -> tuple[str, ...]:
    """The canonical JSON text of each value."""
    return tuple(_canonical(value) for value in values)


#: The JSON texts of a basis, by code.
BASIS_TEXTS = json_texts([basis.value for basis in BASES])


@lru_cache(maxsize=16)
def _text_table(texts: tuple[str, ...]) -> np.ndarray | None:
    """The texts, each followed by a comma, as the rows of a byte table;
    None unless they are all of one width."""
    encoded = [text.encode() + b"," for text in texts]
    if len({len(row) for row in encoded}) != 1:
        return None
    return np.frombuffer(b"".join(encoded), dtype=np.uint8).reshape(len(encoded), -1)


class Coded:
    """Integer codes written as the JSON texts ``texts[code]``: a list in
    the codes' order or, given integer ``keys`` (distinct, one per code),
    ``{"keys": [...], "values": [...]}``, the keys ascending and each value
    at its key's index. An event field holding one is rendered in place by
    ``Transcript.to_jsonl``."""

    def __init__(self, codes: np.ndarray, texts: tuple[str, ...], keys: np.ndarray | None = None):
        self.codes = codes
        self.texts = texts
        self.keys = keys

    def render(self) -> str:
        if self.keys is None:
            table = _text_table(self.texts)
            if table is None:
                return "[" + ",".join(np.array(self.texts, dtype=object)[self.codes].tolist()) + "]"
            return "[" + table[self.codes].ravel()[:-1].tobytes().decode() + "]"
        order = np.argsort(self.keys)
        values = Coded(self.codes[order], self.texts).render()
        return '{"keys":' + _int_json(self.keys[order]) + ',"values":' + values + "}"


#: What ``json.dumps`` writes for a string.
_string = json.encoder.encode_basestring_ascii


def _render_json(value: Any) -> str:
    """Canonical JSON of an event value, equal to ``_canonical`` of it,
    with integer arrays (see ``_int_json``) and ``Coded`` columns rendered
    in place. Strings and integers, the common leaves, are written here
    directly, as ``json.dumps`` writes them."""
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        items = [_string(key) + ":" + _render_json(value[key]) for key in sorted(value)]
        return "{" + ",".join(items) + "}"
    if kind is np.ndarray:
        return _int_json(value)
    if kind is Coded:
        return value.render()
    return _canonical(value)


class Transcript:
    """Append-only event log of a session.

    Events have a ``kind`` (quantum_send, quantum_deliver, announcement,
    measurement, dance, decision, and the shuffle's ``event``) and a
    ``stage``; ``record`` appends one as a dict. A leg logs photon counts,
    and the receiver's announcement after it which photons arrived. Bulk
    fields may be integer arrays or ``Coded`` columns, kept as they are
    until written. ``to_jsonl`` writes canonical JSON Lines, one line per
    event, equal to ``_canonical`` of the event with its columns as lists,
    so identically seeded sessions give byte-identical transcripts.
    ``events`` is a read-only view: a fresh list of every event dict,
    parsed back.
    """

    def __init__(self) -> None:
        self._events: list[dict[str, Any]] = []

    def record(self, kind: str, stage: str, **fields: Any) -> None:
        self._events.append({"kind": kind, "stage": stage, **fields})

    def to_jsonl(self) -> str:
        return "\n".join([_render_json(event) for event in self._events])

    @property
    def events(self) -> list[dict[str, Any]]:
        return [json.loads(line) for line in self.to_jsonl().splitlines()]


def _no_record(kind: str, stage: str, **fields: Any) -> None:
    """The event sink of a channel with no transcript attached."""


class ClassicalChannel:
    """Authenticated broadcast channel: append-only, identical order for
    every observer, readable by the adversary. It keeps the sequence
    number of the next announcement and the latest payload under each
    label, which is all any observer reads back.

    It is also the session's one event sink. ``record(kind, stage,
    **fields)`` is bound once, to the attached transcript's ``record`` or
    to a no-op, so stage code logs without asking whether anyone listens.
    What only a transcript reads back (the check's dance, one event with
    an announcement per photon and turn, the initial states disclosed for
    the check, the check decisions and the controllers' releases) is
    built, and numbered, only when ``listening``; ``column`` gives an
    integer payload the form its reader takes.
    """

    def __init__(self, transcript: Transcript | None = None) -> None:
        self.transcript = transcript
        self.listening = transcript is not None
        self.record = _no_record if transcript is None else transcript.record
        self.seq = 0
        self.latest: dict[str, Any] = {}

    def announce(self, sender: str, label: str, payload: Any, stage: str = "") -> None:
        self.latest[label] = payload
        self.record(
            "announcement", stage, seq=self.seq, sender=sender, label=label, payload=payload
        )
        self.seq += 1

    def measured(
        self, stage: str, party: str, positions: np.ndarray, bases: np.ndarray, outcomes: np.ndarray
    ) -> None:
        """Log one party's measurements in a stage as one event of aligned
        columns: positions, bases (codes, written as names) and outcomes.
        Builds nothing when no transcript listens."""
        if self.listening:
            self.record("measurement", stage, party=party, positions=positions,
                        bases=Coded(bases, BASIS_TEXTS), outcomes=outcomes)

    def column(self, values: np.ndarray, names: Sequence[str] | None = None) -> Any:
        """An announced integer array as an event field, or its codes as
        the ``names`` they stand for: for a transcript the array itself or a
        ``Coded`` column, rendered when the transcript is written; unheard,
        plain lists. (Unheard announcements keep paying for those lists: the
        saving waits on ROADMAP item 1, since a faster session reads as a
        larger one in the benchmark's peak memory.)"""
        if self.listening:
            return values if names is None else Coded(values, json_texts(names))
        return values.tolist() if names is None else [names[v] for v in values.tolist()]
