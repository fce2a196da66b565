"""Test-side bridge from the amplitude oracle to the frame model: tests
that build an input by evolving amplitudes convert the result here, so
the input stays independent of the frame rules under test."""
import pytest

from qsdcsim.quantum import (
    ATOL,
    CANONICAL_LABELS,
    PhotonState,
    StateLabel,
    overlap,
    state_from_label,
)


def label_of(state: PhotonState) -> StateLabel:
    """The canonical label equal to ``state`` up to a global phase; fails
    the test when ``state`` is none of the four canonical states."""
    for label in CANONICAL_LABELS:
        if abs(overlap(state, state_from_label(label)) - 1.0) < ATOL:
            return label
    pytest.fail(f"{state} is not a canonical state")
