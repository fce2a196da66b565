"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of the same code can change by a factor of two
within seconds, as other tenants come and go. Every timed operation is
therefore bracketed by runs of one fixed unit of interpreter work, and
its time is divided by the unit's time around it (the mean of the
samples just before and just after it) and multiplied by
``REFERENCE_S``; wider neighbourhoods tracked the speed less closely. A
reported time is the time the operation would take on a machine that
runs the unit in exactly ``REFERENCE_S`` seconds. The unit does not
touch qsdcsim, so a change to the program cannot change it.

Interpreter start-up does not follow the unit's speed, so set-up time is
calibrated the same way against a reference start instead: a fresh
interpreter importing numpy, qsdcsim's one heavy dependency, timed right
after each start of the workload.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Reference time of one calibration unit.
REFERENCE_S = 1e-3
#: The reference start, and its reference time.
START_CODE = "import time, numpy\nprint(time.perf_counter())\n"
START_REFERENCE_S = 0.1
SQRT_HALF = 0.5**0.5
PHOTONS = 256


class _Amplitudes(NamedTuple):
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class _Label:
    basis: int
    bit: int


_LABELS = tuple(_Label(basis, bit) for basis in (0, 1) for bit in (0, 1))


class Calibration:
    """Calibration samples in time order: one before the first timed
    operation and one after each."""

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        self.samples: list[float] = []

    def _unit(self) -> list[tuple[int, int]]:
        # A miniature of the program's per-photon work, kept here so that
        # no change to qsdcsim changes it: frozen-dataclass labels,
        # NamedTuple amplitudes, complex arithmetic, a permutation, one
        # uniform draw per photon, a dict and a sort. Of the units tried,
        # this one tracked the three workloads' speed most closely.
        rng = self._rng
        labels = [_LABELS[int(i)] for i in rng.integers(0, 4, size=PHOTONS)]
        states = [_Amplitudes(complex(lbl.bit), complex(1 - lbl.bit)) for lbl in labels]
        shuffled = [states[int(j)] for j in rng.permutation(PHOTONS)]
        outcomes = {}
        for k, (a, b) in enumerate(shuffled):
            state = _Amplitudes(SQRT_HALF * (a + b), SQRT_HALF * (a - b)) if k & 1 else _Amplitudes(b, -a)
            outcomes[k] = 0 if rng.random() < abs(state.alpha) ** 2 else 1
        return sorted(outcomes.items(), key=lambda item: item[1])

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._unit()
        self.samples.append(time.perf_counter() - t0)

    def scale(self, index: int) -> float:
        """Factor turning the raw time of operation ``index``, which ran
        between ``samples[index]`` and ``samples[index + 1]``, into
        reference time."""
        before, after = self.samples[index : index + 2]
        return 2 * REFERENCE_S / (before + after)

    def window_scale(self) -> float:
        """Factor for all operations of the window together."""
        return REFERENCE_S / statistics.median(self.samples)
