"""Test-side conversions between the single-photon name (``StateLabel``)
and the session's sequence type (frame-code arrays), and between a
position -> outcome mapping and a measurement record."""
import numpy as np

from qsdcsim.protocol import UNMEASURED
from qsdcsim.quantum import CANONICAL_LABELS


def codes(labels) -> np.ndarray:
    """The frame codes of a list of labels."""
    return np.array([label.code for label in labels], dtype=np.uint8)


def as_labels(codes) -> list:
    """The canonical labels of a code sequence."""
    return [CANONICAL_LABELS[code] for code in np.asarray(codes).tolist()]


def record(outcomes: dict) -> np.ndarray:
    """A measurement record by position: the outcome at each key of
    ``outcomes``, ``UNMEASURED`` everywhere else."""
    out = np.full(max(outcomes) + 1, UNMEASURED, dtype=np.uint8)
    out[list(outcomes)] = list(outcomes.values())
    return out
