"""Simulated transmission fabric: quantum channels with taps, loss and
noise, a broadcast classical channel, and the session transcript.

A quantum channel carries a whole frame-code sequence (see ``quantum``)
at once: ``transmit`` hands it to each tap in registration order, then
rolls loss, then noise over the photons that survived. Taps receive the
codes and must return replacements; the original is never delivered
alongside the copy, which is how the no-cloning rule is enforced
structurally. Loss is reported as the positions that arrived, never as a
silent drop.

The transcript writes its bulk entries, the measurement and dance batches
and the integer payloads, through one renderer: a ``Shape`` is a line
template split once into literal parts, filled from an integer matrix
with decimal strings from a bounded table, and a batch is one
``"".join``.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Any, NamedTuple, Protocol, Sequence

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


class Lost:
    """The loss marker of single-photon delivery. No channel delivers it
    any more (``transmit`` reports the positions that arrived); it stays
    because ``perfbench/tracing.py`` compares ``transmit`` results with
    ``LOST``."""

    _instance: "Lost | None" = None

    def __new__(cls) -> "Lost":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "LOST"


LOST = Lost()


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

#: The holes of a line shape. ``json.dumps`` escapes every control
#: character, so none can stand in the literal text it writes. ``_HOLE``
#: writes a decimal string; the other markers write from a table of JSON
#: texts given with the shape. The newline that joins lines is no marker.
_HOLE = "\0"
_MARKERS = re.compile("([\0-\x08])")
_BIT, _BASIS, _VOICE, _ORDER = "\1", "\2", "\3", "\4"

#: A shape's (marker, JSON texts by code) pairs.
_Tables = tuple[tuple[str, tuple[str, ...]], ...]

#: The decimal strings of 0, 1, 2, ..., grown to the next power of two
#: above the largest value asked for, up to ``DECIMAL_CAP`` entries; larger
#: values are written with ``str``. ``n_photons`` reaches 2^24, and a table
#: that large would hold about a gigabyte of strings. The table is a cache:
#: no output depends on its size.
DECIMAL_CAP = 1 << 16
_decimal_table = np.array([str(i) for i in range(1024)], dtype=object)


def _decimals(values: np.ndarray) -> np.ndarray:
    """The decimal strings of an integer array, as an object array of the
    same shape."""
    global _decimal_table
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return np.empty(values.shape, dtype=object)
    top, size = int(values.max()), len(_decimal_table)
    if size <= top and size < DECIMAL_CAP:
        size = min(DECIMAL_CAP, 1 << top.bit_length())
        _decimal_table = np.array([str(i) for i in range(size)], dtype=object)
    if top < size and values.min() >= 0:
        return _decimal_table[values]
    out = np.empty(values.shape, dtype=object)
    small = (values >= 0) & (values < size)
    out[small] = _decimal_table[values[small]]
    out[~small] = [str(v) for v in values[~small].tolist()]
    return out


class Shape:
    """A line shape: its text with a marker for each integer a line
    writes, split once into the cells of a line. ``fill`` writes one line
    per row of an integer matrix, a column per marker in text order, the
    lines joined by ``sep``, in one ``"".join``. ``_HOLE`` writes the
    decimal string of its entry, another marker the JSON text
    ``table[entry]`` of its table in ``tables``, (marker, table) pairs.
    A table takes in the literal text around its marker, so that a line
    has fewer cells to join."""

    def __init__(self, text: str, sep: str = "\n", tables: _Tables = ()):
        named = dict(tables)
        parts = _MARKERS.split(text + sep)
        cells: list[Any] = []  # literal texts, decimal holes, and (hole, texts) of a table
        pending = parts[0]
        for hole, (marker, after) in enumerate(zip(parts[1::2], parts[2::2])):
            if marker == _HOLE:
                cells += [pending, hole] if pending else [hole]
                pending = after
            else:
                cells.append((hole, [pending + name + after for name in named[marker]]))
                pending = ""
        if pending:
            cells.append(pending)
        self._width, self._sep = len(cells), len(sep)  # the last cell ends in sep

        def kind(of: type) -> list[int]:
            return [i for i, cell in enumerate(cells) if isinstance(cell, of)]

        self._literal_cells, self._decimal_cells = kind(str), kind(int)
        self._table_cells = kind(tuple)
        self._literals = np.array([cells[i] for i in self._literal_cells], dtype=object)
        self._decimal_holes = [cells[i] for i in self._decimal_cells]
        self._table_holes = [cells[i][0] for i in self._table_cells]
        texts = [cells[i][1] for i in self._table_cells]
        self._offsets = np.cumsum([0] + [len(t) for t in texts], dtype=np.int64)[:-1]
        self._texts = np.array([name for t in texts for name in t], dtype=object)

    def fill(self, values: np.ndarray) -> str:
        if len(values) == 0:
            return ""
        values = np.asarray(values)
        cells = np.empty((len(values), self._width), dtype=object)
        cells[:, self._literal_cells] = self._literals
        cells[:, self._decimal_cells] = _decimals(values[:, self._decimal_holes])
        cells[:, self._table_cells] = self._texts[values[:, self._table_holes] + self._offsets]
        if self._sep:
            cells[-1, -1] = cells[-1, -1][:-self._sep]
        return "".join(cells.ravel().tolist())


@lru_cache(maxsize=256)
def _shape(text: str, sep: str = "\n", tables: _Tables = ()) -> Shape:
    """The ``Shape`` of a text, split once and kept."""
    return Shape(text, sep, tables)


def _holes(n: int, marker: str = _HOLE) -> str:
    return ",".join([marker] * n)


def _int_json(values: np.ndarray) -> str:
    """An integer array as JSON: a list, or a list of lists of a 2-D array."""
    if values.ndim == 1:
        return "[" + ",".join(_decimals(values).tolist()) + "]"
    if len(values) == 0:
        return "[]"
    return "[[" + _shape(_holes(values.shape[1]), "],[").fill(values) + "]]"


#: The powers of ten that separate decimal lengths.
_TENS = 10 ** np.arange(1, 19, dtype=np.int64)


def _string_order(keys: np.ndarray) -> np.ndarray:
    """The order in which ``json.dumps`` sorts the decimal strings of
    nonnegative integer keys, where "10" comes before "9": by the digits
    padded with zeros to one length, and a prefix before what extends it.
    ``keys`` is not empty."""
    keys = np.asarray(keys, dtype=np.int64)
    digits = _TENS.searchsorted(keys, side="right")
    return np.lexsort((digits, keys * 10 ** (digits.max() - digits)))


def json_texts(values: Sequence[Any]) -> tuple[str, ...]:
    """The canonical JSON text of each value."""
    return tuple(_canonical(value) for value in values)


class Coded:
    """Integer codes written as the JSON texts ``texts[code]``: a list in
    the codes' order or, given integer ``keys``, an object with one entry
    per key, keyed by its decimal string (the keys distinct). An event
    field holding one is rendered in place by ``Transcript.to_jsonl``."""

    def __init__(self, codes: np.ndarray, texts: tuple[str, ...], keys: np.ndarray | None = None):
        self.codes = codes
        self.texts = texts
        self.keys = keys

    def render(self) -> str:
        if self.keys is None:
            return "[" + ",".join(np.array(self.texts, dtype=object)[self.codes].tolist()) + "]"
        if len(self.keys) == 0:
            return "{}"
        order = _string_order(self.keys)
        entries = np.column_stack((self.keys[order], self.codes[order]))
        return '{"' + _shape(f'{_HOLE}":{_BIT}', ',"', ((_BIT, self.texts),)).fill(entries) + "}"


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


#: The JSON texts of a bit and of a basis, by code.
_BITS = ("0", "1")
_BASIS_TEXTS = json_texts([basis.value for basis in BASES])


def _measurement_text(stage: str, party: str) -> str:
    """A measurement line; its holes are the basis, outcome and position."""
    return (f'{{"basis":{_BASIS},"kind":"measurement","outcome":{_BIT},"party":{_string(party)},'
            f'"position":{_HOLE},"stage":{_string(stage)}}}')


@lru_cache(maxsize=64)
def _measurement_shape(stage: str, party: str) -> Shape:
    return Shape(_measurement_text(stage, party), tables=((_BASIS, _BASIS_TEXTS), (_BIT, _BITS)))


class MeasurementBatch(NamedTuple):
    """One party's measurements in one stage, as aligned columns."""

    stage: str
    party: str
    positions: np.ndarray
    bases: np.ndarray
    outcomes: np.ndarray

    def render(self) -> str:
        rows = np.column_stack((self.bases, self.outcomes, self.positions))
        return _measurement_shape(self.stage, self.party).fill(rows)


def _announcement_text(sender: str, label: str, payload: str) -> str:
    return (f'{{"kind":"announcement","label":"{label}","payload":{{{payload}}},'
            f'"sender":{sender},"seq":{_HOLE},"stage":"check"}}')


@lru_cache(maxsize=None)
def _dance_shape(m: int) -> Shape:
    """A check photon's lines among m controllers. Its holes: the H order,
    the flip order and the position; (bit, position, controller, seq) of
    each H announcement; basis, outcome and position of the measurement;
    (outcome, position, seq) of the report; then each flip announcement
    as the H ones."""
    schedule = (f'{{"h_order":[{_holes(m, _ORDER)}],"iu_order":[{_holes(m, _ORDER)}],'
                f'"kind":"schedule","position":{_HOLE},"stage":"check"}}')
    h = _announcement_text(_VOICE, "h_announce", f'"h":{_BIT},"position":{_HOLE}')
    report = _announcement_text('"alice"', "check_report", f'"outcome":{_BIT},"position":{_HOLE}')
    flip = _announcement_text(_VOICE, "flip_announce", f'"flip":{_BIT},"position":{_HOLE}')
    lines = [schedule, *[h] * m, _measurement_text("check", "alice"), report, *[flip] * m]
    tables = (
        (_ORDER, tuple(map(str, range(m)))),
        (_VOICE, json_texts([f"controller_{c}" for c in range(m)])),
        (_BIT, _BITS),
        (_BASIS, _BASIS_TEXTS),
    )
    return Shape("\n".join(lines), tables=tables)


class DanceBatch(NamedTuple):
    """A controlled check's announcement dance as columns, one row per
    check photon (H bits by controller, flips by turn). A photon's lines:
    its schedule, its H round, Alice's measurement and report, its flip
    round; 2m + 1 announcements, numbered on from ``seq``."""

    seq: int
    positions: np.ndarray
    h_orders: np.ndarray
    iu_orders: np.ndarray
    h_bits: np.ndarray
    bases: np.ndarray
    outcomes: np.ndarray
    reports: np.ndarray
    flips: np.ndarray

    def render(self) -> str:
        k = len(self.positions)
        if k == 0:
            return ""
        h_orders = np.reshape(self.h_orders, (k, -1))
        m = h_orders.shape[1]
        iu_orders = np.reshape(self.iu_orders, (k, m))
        position = np.reshape(self.positions, (k, 1))
        first = self.seq + (2 * m + 1) * np.arange(k)[:, None]  # each photon's first seq
        rows = np.empty((k, 10 * m + 7), dtype=np.int64)  # the holes of _dance_shape(m)

        def round_at(start: int, bits: Any, order: np.ndarray, seq: np.ndarray) -> None:
            """A round's announcements, turn by turn: bit, position, controller, seq."""
            for hole, column in enumerate((bits, position, order, seq + np.arange(m))):
                rows[:, start + hole:start + 4 * m:4] = column

        rows[:, :m], rows[:, m:2 * m], rows[:, 2 * m] = h_orders, iu_orders, self.positions
        h_bits = np.take_along_axis(np.reshape(self.h_bits, (k, m)), h_orders, axis=1)
        round_at(2 * m + 1, h_bits, h_orders, first)
        middle = (self.bases, self.outcomes, self.positions,  # the measurement
                  self.reports, self.positions, first[:, 0] + m)  # the report
        for hole, column in enumerate(middle, start=6 * m + 1):
            rows[:, hole] = column
        round_at(6 * m + 7, self.flips, iu_orders, first + m + 1)
        return _dance_shape(m).fill(rows)


class Transcript:
    """Append-only event log of a session.

    Events have a ``kind`` (quantum_send, quantum_deliver, announcement,
    measurement, decision, schedule, and the shuffle's ``event``) and a
    ``stage``. ``record`` appends an event dict; ``add`` appends a batch,
    a run of similar events as columns that ``render`` fills into a
    ``Shape``. An event's bulk fields may be integer arrays or ``Coded``
    columns, written from the same decimal table. ``to_jsonl`` writes
    canonical JSON Lines, one text chunk per entry, each line equal to
    ``_canonical`` of its event, so identically seeded sessions give
    byte-identical transcripts. ``events`` is a read-only view: a fresh
    list of every event dict, parsed back.
    """

    def __init__(self) -> None:
        self._entries: list[Any] = []  # event dicts and batches, in order

    def record(self, kind: str, stage: str, **fields: Any) -> None:
        self._entries.append({"kind": kind, "stage": stage, **fields})

    def add(self, batch: Any) -> None:
        self._entries.append(batch)

    def to_jsonl(self) -> str:
        chunks = (_render_json(e) if type(e) is dict else e.render() for e in self._entries)
        return "\n".join([chunk for chunk in chunks if chunk])

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
    What only a transcript reads back (the check's dance, one batch with
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
        """Log measurements, one batch per call, from aligned positions,
        basis codes and outcomes; builds nothing when no transcript listens."""
        if self.listening:
            self.transcript.add(MeasurementBatch(stage, party, positions, bases, outcomes))

    def column(self, values: np.ndarray, names: Sequence[str] | None = None) -> Any:
        """An integer array as an event field, or its codes as the
        ``names`` they stand for: for a transcript the array itself or a
        ``Coded`` column, rendered when the transcript is written; unheard,
        plain lists. (Unheard sessions keep paying for those lists: the
        saving waits on ROADMAP item 1, since a faster session reads as a
        larger one in the benchmark's peak memory.)"""
        if self.listening:
            return values if names is None else Coded(values, json_texts(names))
        return values.tolist() if names is None else [names[v] for v in values.tolist()]
