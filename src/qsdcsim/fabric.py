"""Simulated transmission fabric: quantum channels with taps, loss and
noise, a broadcast classical channel, and the session transcript.

A quantum channel hands each photon to its taps in registration order,
then rolls loss, then noise. Taps receive the state and must return a
replacement; the original is never delivered alongside the copy, which is
how the no-cloning rule is enforced structurally.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Protocol, Sequence, Union

import numpy as np

from .errors import ConfigError
from .quantum import (
    BASES,
    CANONICAL_LABELS,
    Basis,
    RandomSource,
    StateLabel,
    random_label,
)


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
    """Marker delivered in place of a photon absorbed in transit."""

    _instance: "Lost | None" = None

    def __new__(cls) -> "Lost":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "LOST"


LOST = Lost()

Delivered = Union[StateLabel, Lost]


class Tap(Protocol):
    """An adversary hook sitting on a quantum channel.

    ``relay`` takes ownership of the photon and returns the state that
    continues down the line. There is no copy operation: whatever the tap
    keeps, the line does not carry.
    """

    def relay(self, photon: StateLabel, rng: RandomSource) -> StateLabel: ...


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


def transmit(channel: QuantumChannel, photon: StateLabel, rng: RandomSource) -> Delivered:
    """Send one photon down a channel: taps, then loss, then noise.

    Loss yields the explicit ``LOST`` marker, never a silent drop. Draws
    from ``rng`` only for effects that are actually configured, so an
    identity channel consumes no randomness.
    """
    for tap in channel.taps:
        photon = tap.relay(photon, rng)
    if channel.loss > 0.0 and rng.random() < channel.loss:
        return LOST
    noise = channel.noise
    if noise.kind is NoiseKind.BIT_FLIP and noise.p > 0.0:
        if rng.random() < noise.p and photon.basis is Basis.Z:
            photon = CANONICAL_LABELS[photon.code ^ 1]
    elif noise.kind is NoiseKind.DEPOLARIZING and noise.p > 0.0:
        if rng.random() < noise.p:
            photon = random_label(rng)
    return photon


def transmit_codes(
    channel: QuantumChannel, codes: np.ndarray, rng: RandomSource
) -> tuple[np.ndarray, np.ndarray]:
    """``transmit`` over a code sequence: the codes that arrived and their
    positions. Where the draws depend on the photons (taps, depolarization,
    noise behind loss) it loops; otherwise it draws the loss coins, or the
    bit-flip coins of a lossless leg, in one batch of the same numbers."""
    noise = channel.noise
    noisy = noise.kind is not NoiseKind.NONE and noise.p > 0.0
    if channel.taps or (noisy and (noise.kind is NoiseKind.DEPOLARIZING or channel.loss > 0.0)):
        delivered = [transmit(channel, CANONICAL_LABELS[c], rng) for c in codes.tolist()]
        arrived = [i for i, photon in enumerate(delivered) if photon is not LOST]
        out = [delivered[i].code for i in arrived]  # type: ignore[union-attr]
        return np.array(out, dtype=np.uint8), np.array(arrived, dtype=np.intp)
    arrived = np.arange(len(codes))
    if channel.loss > 0.0:
        arrived = np.flatnonzero(rng.random(len(codes)) >= channel.loss)
        codes = codes[arrived]
    elif noisy:
        codes = codes ^ ((rng.random(len(codes)) < noise.p) & (codes < 2))
    return codes, arrived


class Transcript:
    """Append-only event log of a session.

    Events are plain dicts with a ``kind`` key (quantum_send,
    quantum_deliver, announcement, measurement, decision, plus scheduling
    events) and a ``stage`` key naming the protocol step. Serialization is
    canonical JSON Lines, so two identically seeded sessions produce
    byte-identical transcripts.
    """

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def record(self, kind: str, stage: str, **fields: Any) -> None:
        event: dict[str, Any] = {"kind": kind, "stage": stage}
        event.update(fields)
        self.events.append(event)

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(ev, sort_keys=True, separators=(",", ":")) for ev in self.events
        )


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
    Announcements that only a transcript reads back (one per photon and
    turn of the check, the controllers' releases) are made only when
    ``listening``.
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
        self,
        stage: str,
        party: str,
        positions: Sequence[int],
        bases: Sequence[int],
        outcomes: Sequence[int],
    ) -> None:
        """Log measurements, one event each, from aligned positions, basis
        codes and outcomes; builds nothing when no transcript is attached."""
        if not self.listening:
            return
        for position, basis, outcome in zip(positions, bases, outcomes):
            self.record(
                "measurement", stage, party=party, position=int(position),
                basis=BASES[basis].value, outcome=int(outcome),
            )


def label_payload(label: StateLabel) -> dict[str, Any]:
    """JSON form of a state label, used in public initial-state disclosures."""
    return {"basis": label.basis.value, "bit": label.bit}
