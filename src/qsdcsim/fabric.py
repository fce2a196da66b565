"""Simulated transmission fabric: quantum channels with taps, loss and
noise, a broadcast classical channel, and the session transcript.

A quantum channel carries a whole frame-code sequence (see ``quantum``)
at once: ``transmit`` hands it to each tap in registration order, then
rolls loss, then noise over the photons that survived. Taps receive the
codes and must return replacements; the original is never delivered
alongside the copy, which is how the no-cloning rule is enforced
structurally. Loss is reported as the positions that arrived, never as a
silent drop.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Any, NamedTuple, Protocol

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


class MeasurementBatch(NamedTuple):
    """One party's measurements in one stage, as aligned columns."""

    stage: str
    party: str
    positions: list[int]
    bases: list[int]
    outcomes: list[int]

    def lines(self) -> list[str]:
        party, stage = json.dumps(self.party), json.dumps(self.stage)
        head = '{"basis":"%s","kind":"measurement","outcome":%d,"party":%s,"position":'
        heads = [head % (b.value, bit, party) for b in BASES for bit in (0, 1)]
        rows = zip(self.positions, self.bases, self.outcomes)
        return [f'{heads[2 * basis + bit]}{pos},"stage":{stage}}}' for pos, basis, bit in rows]


#: The dance's line templates; an announcement takes (bit, position, controller, seq).
H_ANNOUNCE = ('{"kind":"announcement","label":"h_announce","payload":{"h":%d,"position":%d},'
              '"sender":"controller_%d","seq":%d,"stage":"check"}')
FLIP_ANNOUNCE = ('{"kind":"announcement","label":"flip_announce","payload":'
                 '{"flip":%d,"position":%d},"sender":"controller_%d","seq":%d,"stage":"check"}')
CHECK_REPORT = ('{"kind":"announcement","label":"check_report","payload":'
                '{"outcome":%d,"position":%d},"sender":"alice","seq":%d,"stage":"check"}')
SCHEDULE = '{"h_order":%s,"iu_order":%s,"kind":"schedule","position":%d,"stage":"check"}'


class DanceBatch(NamedTuple):
    """A controlled check's announcement dance as columns, one row per
    check photon (H bits by controller, flips by turn). A photon's lines:
    its schedule, its H round, Alice's measurement and report, its flip
    round; 2m + 1 announcements, numbered on from ``seq``."""

    seq: int
    positions: list[int]
    h_orders: list[list[int]]
    iu_orders: list[list[int]]
    h_bits: list[list[int]]
    bases: list[int]
    outcomes: list[int]
    reports: list[int]
    flips: list[list[int]]

    def lines(self) -> list[str]:
        measured = MeasurementBatch("check", "alice", self.positions, self.bases, self.outcomes)
        rows = zip(self.positions, self.h_orders, self.iu_orders, self.h_bits, measured.lines(),
                   self.reports, self.flips)
        seq, out = count(self.seq), []
        for pos, h_order, iu_order, h, measurement, report, flips in rows:
            out.append((SCHEDULE % (h_order, iu_order, pos)).replace(" ", ""))
            out += [H_ANNOUNCE % (h[c], pos, c, next(seq)) for c in h_order]
            out += [measurement, CHECK_REPORT % (report, pos, next(seq))]
            out += [FLIP_ANNOUNCE % (flip, pos, c, next(seq)) for c, flip in zip(iu_order, flips)]
        return out


class Transcript:
    """Append-only event log of a session.

    Events have a ``kind`` (quantum_send, quantum_deliver, announcement,
    measurement, decision, plus scheduling events) and a ``stage``.
    ``record`` appends a one-off event dict; ``add`` appends a batch, a run
    of similar events as columns of plain values whose ``lines()`` fill
    fixed templates. ``to_jsonl`` writes canonical JSON Lines, each
    template line equal to ``_canonical`` of its event, so identically
    seeded sessions give byte-identical transcripts. ``events`` is a
    read-only view: a fresh list of every event dict, parsed back.
    """

    def __init__(self) -> None:
        self._entries: list[Any] = []  # event dicts and batches, in order

    def record(self, kind: str, stage: str, **fields: Any) -> None:
        self._entries.append({"kind": kind, "stage": stage, **fields})

    def add(self, batch: Any) -> None:
        self._entries.append(batch)

    def to_jsonl(self) -> str:
        lines: list[str] = []
        for entry in self._entries:
            if isinstance(entry, dict):
                lines.append(_canonical(entry))
            else:
                lines += entry.lines()
        return "\n".join(lines)

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
    an announcement per photon and turn, and the controllers' releases)
    is built only when ``listening``.
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
            columns = (positions.tolist(), bases.tolist(), outcomes.tolist())
            self.transcript.add(MeasurementBatch(stage, party, *columns))
