"""Replay a session transcript (JSON Lines) against the staging rules of
the check, with no code from the modules that enforce them: it reads
the events and nothing else. ``audit(jsonl)`` lists the violations.

A controlled session (one that discloses ``check_initial_states``)
writes its check as one ``dance`` event of columns, a row per check
photon: its position, the controller orders of its two rounds
(``h_order``, ``iu_order``), the bits announced turn by turn (``h_bits``,
``flips``), Alice's basis, outcome and report.

The rules:

  dance       In a controlled session the check is a ``dance``, and no
              check ``measurement`` comes outside it. Each row of
              ``h_order`` and ``iu_order`` is a permutation of the
              controllers, and every column has a row per position, each
              as wide as the controller orders.
  coverage    The check measures every ``check_open`` position exactly
              once and nothing else; a controlled session's dance covers
              each of them exactly once. The decode measures each
              ``message_order`` position exactly once, after that order.
  staging     ``message_order`` and ``release`` come only after a
              ``check_decision`` with ``aborted: false``.
  disclosure  The check ops disclosed cover only check positions.
  delivery    Each ``quantum_deliver`` count equals the length of the
              arrival list announced next: ``arrived`` or
              ``arrived_forward`` after a forward hop, the ``receipt``
              after the return leg. Every delivery is followed by one.
  sequence    Announcements carry ``seq`` 0, 1, 2, ... in event order. A
              dance of k photons among m controllers carries the ``seq``
              of its first announcement and stands for k(2m + 1) of them.
"""
from __future__ import annotations

import json

ROWS = ("h_order", "iu_order", "h_bits", "flips")
COLUMNS = ("positions", "bases", "outcomes", "reports")
ARRIVALS = ("arrived", "arrived_forward", "receipt")


def _controllers(dance: dict) -> int:
    """The number of controllers a dance speaks for: its orders' width."""
    return len(dance["h_order"][0]) if dance["h_order"] else 0


def _dance_problems(ev: dict) -> list[str]:
    """What breaks the dance rule in one dance event."""
    k, m = len(ev["positions"]), _controllers(ev)
    problems = []
    if any(len(ev[name]) != k for name in COLUMNS + ROWS) or any(
        len(row) != m for name in ROWS for row in ev[name]
    ):
        problems.append("dance columns do not align")
    for name in ("h_order", "iu_order"):
        if any(sorted(row) != list(range(m)) for row in ev[name]):
            problems.append(f"an {name} row is no permutation of the controllers")
    return problems


def audit(jsonl: str) -> list[str]:
    """The violations of the staging rules in a transcript, in event
    order; empty when it keeps every rule."""
    events = [json.loads(line) for line in jsonl.splitlines() if line.strip()]
    controlled = any(ev.get("label") == "check_initial_states" for ev in events)
    problems: list[str] = []
    check_positions: list[int] | None = None
    message_positions: list[int] | None = None
    passed = False
    danced: list[int] = []
    check_measured: list[int] = []
    reveal_measured: list[int] = []
    announced = 0
    delivered: list[tuple[int, int]] = []  # (event, count) awaiting their arrival list
    for i, ev in enumerate(events):
        kind, label, payload = ev["kind"], ev.get("label"), ev.get("payload")
        if kind == "quantum_deliver":
            delivered.append((i, ev["count"]))
        elif label in ARRIVALS:
            problems += [
                f"event {j}: {count} photons delivered where {label} lists {len(payload)}"
                for j, count in delivered if count != len(payload)
            ]
            delivered = []
        if kind == "dance":
            problems += [f"event {i}: {problem}" for problem in _dance_problems(ev)]
            if ev["seq"] != announced:
                problems.append(f"event {i}: dance seq {ev['seq']} where {announced} is due")
            announced += len(ev["positions"]) * (2 * _controllers(ev) + 1)
            danced += ev["positions"]
            check_measured += ev["positions"]
        elif kind == "measurement" and ev["stage"] == "check":
            if controlled:
                problems.append(f"event {i}: check measurement outside the dance")
            check_measured += ev["positions"]
        elif kind == "measurement" and ev["stage"] == "reveal":
            if message_positions is None:
                problems.append(f"event {i}: reveal measurement before the message order")
            reveal_measured += ev["positions"]
        elif label == "check_open":
            check_positions = payload["positions"]
            if len(payload.get("ops", check_positions)) != len(check_positions):
                problems.append(f"event {i}: check ops do not align with the check positions")
        elif label == "check_decision":
            passed = not payload["aborted"]
            stray = set(payload.get("ops", {}).get("keys", ())) - set(check_positions or ())
            if stray:
                problems.append(f"event {i}: ops disclosed for non-check positions {sorted(stray)}")
        elif label in ("message_order", "release"):
            if not passed:
                problems.append(f"event {i}: {label} before a passing check decision")
            if label == "message_order":
                message_positions = [row[0] for row in payload]
        if kind == "announcement":
            if ev["seq"] != announced:
                problems.append(f"event {i}: seq {ev['seq']} where {announced} is due")
            announced += 1
    problems += [f"event {j}: delivery with no arrival list after it" for j, _ in delivered]
    if check_positions is not None:
        if sorted(check_measured) != sorted(check_positions):
            problems.append("check measurements do not cover the check positions exactly once")
        if controlled and sorted(danced) != sorted(check_positions):
            problems.append("the dance does not cover the check positions exactly once")
    if message_positions is not None and sorted(reveal_measured) != sorted(message_positions):
        problems.append("decode measurements do not cover the message positions exactly once")
    return problems
