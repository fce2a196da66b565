"""The amplitude oracle's test-side helpers, and its bridge to the frame
model: tests that build an input by evolving amplitudes convert the result
here, so the input stays independent of the frame rules under test."""
import pytest

from qsdcsim.quantum import (
    ATOL,
    CANONICAL_LABELS,
    PhotonState,
    StateLabel,
    state_from_label,
)


def norm_sq(state: PhotonState) -> float:
    return abs(state.alpha) ** 2 + abs(state.beta) ** 2


def overlap(lhs: PhotonState, rhs: PhotonState) -> float:
    """|<lhs|rhs>|: 1 when the states are equal up to a global phase."""
    return abs(lhs.alpha.conjugate() * rhs.alpha + lhs.beta.conjugate() * rhs.beta)


def is_canonical(state: PhotonState, atol: float = ATOL) -> bool:
    """True when the state matches one of the four canonical states up to
    a global phase (the state alphabet is closed under I, U, H)."""
    return any(
        abs(overlap(state, state_from_label(lbl)) - 1.0) < atol for lbl in CANONICAL_LABELS
    )


def label_of(state: PhotonState) -> StateLabel:
    """The canonical label equal to ``state`` up to a global phase; fails
    the test when ``state`` is none of the four canonical states."""
    for label in CANONICAL_LABELS:
        if abs(overlap(state, state_from_label(label)) - 1.0) < ATOL:
            return label
    pytest.fail(f"{state} is not a canonical state")
