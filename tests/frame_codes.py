"""Test-side conversions between the single-photon name (``StateLabel``)
and the session's sequence type (frame-code arrays)."""
import numpy as np

from qsdcsim.quantum import CANONICAL_LABELS


def codes(labels) -> np.ndarray:
    """The frame codes of a list of labels."""
    return np.array([label.code for label in labels], dtype=np.uint8)


def as_labels(codes) -> list:
    """The canonical labels of a code sequence."""
    return [CANONICAL_LABELS[code] for code in np.asarray(codes).tolist()]
