"""Single-qubit physics kernel.

Photons are in one of the four conjugate-basis states, an alphabet closed
under the three protocol unitaries (identity, the bit-flip ``i*sigma_y``,
the Hadamard), Pauli-X noise, depolarization and measure-and-resend. So a
photon is exactly its Pauli frame (basis, bit): the unitaries act on the
frame, and a measurement returns the bit in the photon's own basis and a
fair coin in the conjugate one.

A sequence of photons is a ``uint8`` array of frame codes
``2 * basis + bit`` (Z = 0, X = 1). U is ``code ^ 1`` and H is
``code ^ 2``: an operation is its 2-bit mask, a chain of them composes by
XOR, and a whole sequence is encoded, passed through a controller, sent or
measured by array operations. The kernel's random draws, ``measure`` and
``random_codes``, each take one batch per sequence. ``StateLabel`` names
one frame, ``CANONICAL_LABELS[code]``, for the symbolic operations, the
self-test and the oracle.

The frame model is the implementation; exact two-amplitude state vectors
(``PhotonState``, ``apply_op``) are its independent oracle. They must
agree up to a global phase for every operation sequence, which the
self-test sweeps exhaustively.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

RandomSource = np.random.Generator

SQRT_HALF = 1.0 / math.sqrt(2.0)

#: Absolute tolerance for amplitude comparisons. All protocol-relevant
#: amplitudes are 0, +-1, +-1/sqrt(2), so error stays many orders below this.
ATOL = 1e-12


class Basis(Enum):
    """The two conjugate measurement bases."""

    Z = "Z"  # eigenstates |0>, |1>  (horizontal / vertical polarization)
    X = "X"  # eigenstates |+>, |->  (diagonal / anti-diagonal)

    def conjugate(self) -> "Basis":
        return Basis.X if self is Basis.Z else Basis.Z


class OpLabel(Enum):
    """The three unitaries parties may apply to a photon."""

    I = "I"  # identity
    U = "U"  # i*sigma_y: flips the bit value in both bases
    H = "H"  # Hadamard: swaps the Z and X bases, preserving the bit value


class PhotonState(NamedTuple):
    """Amplitudes (alpha, beta) over the computational basis |0>, |1>.

    Normalized: |alpha|^2 + |beta|^2 = 1 within ``ATOL``. Instances are
    immutable values; operations return fresh states.
    """

    alpha: complex
    beta: complex


@dataclass(frozen=True)
class StateLabel:
    """Symbolic name of one of the four canonical states: a basis and a bit.

    (Z,0) <-> |0>, (Z,1) <-> |1>, (X,0) <-> |+>, (X,1) <-> |->.
    """

    basis: Basis
    bit: int

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")

    @property
    def code(self) -> int:
        """The frame code ``2 * basis + bit`` (Z = 0, X = 1)."""
        return 2 * (self.basis is Basis.X) + self.bit


#: The operations, and their names, by frame mask: U flips the bit, H
#: swaps the basis.
OPS: tuple[OpLabel, ...] = (OpLabel.I, OpLabel.U, OpLabel.H)
OP_NAMES: tuple[str, ...] = tuple(op.value for op in OPS)
OP_MASK: dict[OpLabel, int] = {op: mask for mask, op in enumerate(OPS)}

#: The bases by basis code, the high bit of a frame code.
BASES: tuple[Basis, ...] = (Basis.Z, Basis.X)

#: All four canonical labels, indexed by frame code. Frame operations
#: return these instances rather than build new ones.
CANONICAL_LABELS: tuple[StateLabel, ...] = (
    StateLabel(Basis.Z, 0),
    StateLabel(Basis.Z, 1),
    StateLabel(Basis.X, 0),
    StateLabel(Basis.X, 1),
)


def state_from_label(label: StateLabel) -> PhotonState:
    """Canonical amplitude vector for a state label.

    The global phase is fixed by making the first nonzero amplitude real
    and positive.
    """
    if label.basis is Basis.Z:
        return PhotonState(1.0 + 0j, 0j) if label.bit == 0 else PhotonState(0j, 1.0 + 0j)
    sign = 1.0 if label.bit == 0 else -1.0
    return PhotonState(complex(SQRT_HALF), complex(sign * SQRT_HALF))


def unitary_matrix(op: OpLabel) -> np.ndarray:
    """2x2 complex matrix of an operation (reference form, used by the
    self-test's independent matrix-multiplication path)."""
    if op is OpLabel.I:
        return np.eye(2, dtype=complex)
    if op is OpLabel.U:
        return np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    return np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]], dtype=complex)


def apply_op(op: OpLabel, state: PhotonState) -> PhotonState:
    """Apply one unitary to a state, exactly."""
    a, b = state
    if op is OpLabel.I:
        return state
    if op is OpLabel.U:
        return PhotonState(b, -a)
    return PhotonState(SQRT_HALF * (a + b), SQRT_HALF * (a - b))


def apply_op_symbolic(op: OpLabel, label: StateLabel) -> StateLabel:
    """Apply one unitary in the symbolic model: U flips the bit, H swaps
    the basis, I does nothing. Global phases are not represented."""
    return CANONICAL_LABELS[label.code ^ OP_MASK[op]]


def compose_effects(ops: Iterable[OpLabel]) -> int:
    """The frame mask of an op sequence, the XOR of its op masks: a code
    ``c`` ends as ``c ^ compose_effects(ops)``. The empty sequence
    composes to the identity mask 0."""
    mask = 0
    for op in ops:
        mask ^= OP_MASK[op]
    return mask


def measure(codes: np.ndarray, bases: np.ndarray, rng: RandomSource) -> np.ndarray:
    """Projective measurement of a code sequence, photon i in basis code
    ``bases[i]``. In the photon's own basis the outcome is its bit; in the
    conjugate basis it is a fair coin (Born probability 1/2). Draws one
    uniform double per photon, in one batch, whichever basis it is read in."""
    r = rng.random(len(codes))
    return np.where((codes >> 1) == bases, codes & 1, r >= 0.5)


def random_codes(n: int, rng: RandomSource) -> np.ndarray:
    """n frame codes drawn independently and uniformly, one vectorized draw."""
    return rng.integers(0, 4, size=n).astype(np.uint8)
