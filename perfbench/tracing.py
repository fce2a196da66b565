"""Per-layer tracing from outside the program.

The traced run wraps public functions and methods of qsdcsim's modules.
Every call records a span (name, start, end, parent span) in flat arrays
kept in memory; the spans are aggregated, and written out, after the
traced window ends. A function is replaced under every module attribute
that refers to it, because modules import each other's functions by
name (``measure`` is a global of ``protocol``, ``multiparty``,
``attacks`` and ``harness``). The wrappers draw no randomness and pass
arguments and results through unchanged.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qsdcsim import attacks, cli, fabric, harness, multiparty, protocol, quantum

LAYERS = ("quantum", "fabric", "protocol", "multiparty", "attacks", "harness", "cli")

#: (module, function name, span name) for every traced function.
FUNCTIONS = (
    (quantum, "apply_op", "quantum.apply_op"),
    (quantum, "measure", "quantum.measure"),
    (quantum, "state_from_label", "quantum.state_from_label"),
    (fabric, "transmit", "fabric.transmit"),
    (protocol, "prepare_p_sequence", "protocol.prepare_p_sequence"),
    (protocol, "select_check_positions", "protocol.select_check_positions"),
    (protocol, "encode", "protocol.encode"),
    (protocol, "rearrange", "protocol.rearrange"),
    (protocol, "transmit_sequence", "protocol.transmit_sequence"),
    (protocol, "run_check", "protocol.run_check"),
    (protocol, "reveal_order_and_decode", "protocol.reveal_order_and_decode"),
    (protocol, "run_session", "protocol.run_session"),
    (multiparty, "controller_pass", "multiparty.controller_pass"),
    (multiparty, "release_and_reconstruct", "multiparty.release_and_reconstruct"),
    (multiparty, "mc_check_round", "multiparty.mc_check_round"),
    (multiparty, "run_mc_session", "multiparty.run_mc_session"),
    (attacks, "build_attack", "attacks.build_attack"),
    (harness, "run_trial", "harness.run_trial"),
    (harness, "derive_seed", "harness.derive_seed"),
    (harness, "aggregate_trials", "harness.aggregate_trials"),
    (harness, "sweep_csv", "harness.sweep_csv"),
    (cli, "main", "cli.main"),
    (harness, "load_config", "cli.load_config"),
)

#: (class, method name, span name) for every traced method.
METHODS = (
    (attacks.MeasureResendTap, "relay", "attacks.relay"),
    (fabric.ClassicalChannel, "announce", "fabric.announce"),
    (fabric.Transcript, "record", "fabric.transcript.record"),
    (fabric.Transcript, "to_jsonl", "fabric.transcript.to_jsonl"),
    *((cls, "report", "attacks.report") for cls in attacks.ATTACK_REGISTRY.values()),
)


class Tracer:
    """Span recorder. ``install`` patches qsdcsim, ``uninstall`` restores
    every original, ``summary`` aggregates the recorded spans."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, fn: Callable, span: str, after: Callable[[Any], None] | None) -> Callable:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.span_names)
            self.span_names.append(span)
        name_id = self._name_ids[span]
        start, end, parent, names, stack = self.start, self.end, self.parent, self.name, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1])
            names.append(name_id)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        counters = self.counters

        def count_lost(delivered: Any) -> None:
            counters["fabric.lost"] += delivered is fabric.LOST

        def count_detected(report: attacks.AttackReport) -> None:
            counters["attacks.detected"] += report.detected

        def count_bytes(jsonl: str) -> None:
            counters["fabric.transcript.bytes"] += len(jsonl.encode())

        after = {
            "fabric.transmit": count_lost,
            "attacks.report": count_detected,
            "fabric.transcript.to_jsonl": count_bytes,
        }
        modules = [m for n, m in sys.modules.items() if n == "qsdcsim" or n.startswith("qsdcsim.")]
        for module, attr, span in FUNCTIONS:
            original = getattr(module, attr)
            traced = self._wrap(original, span, after.get(span))
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, traced)
        for cls, attr, span in METHODS:
            self._set(cls, attr, self._wrap(cls.__dict__[attr], span, after.get(span)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.uint16),
        }

    def write(self, path: Path) -> None:
        """Write the raw spans: arrays indexed by span id, plus the names."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.span_names), **self._arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, and self seconds
        (inclusive minus the time covered by child spans)."""
        spans = self._arrays()
        n_names = len(self.span_names)
        duration = spans["end"] - spans["start"]
        parent, name = spans["parent"], spans["name"]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        calls = np.bincount(name, minlength=n_names)
        inclusive = np.bincount(name, weights=duration, minlength=n_names)
        exclusive = np.bincount(name, weights=duration - child_time, minlength=n_names)
        return {
            span: {"calls": float(calls[i]), "s": float(inclusive[i]), "self_s": float(exclusive[i])}
            for i, span in enumerate(self.span_names)
        }

    def calls_within(self, span: str, parent_span: str) -> int:
        """Calls of ``span`` made directly from ``parent_span``."""
        if span not in self._name_ids or parent_span not in self._name_ids:
            return 0
        spans = self._arrays()
        parent, name = spans["parent"], spans["name"]
        mine = parent[name == self._name_ids[span]]
        mine = mine[mine >= 0]
        return int(np.sum(name[mine] == self._name_ids[parent_span]))
