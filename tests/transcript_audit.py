"""Replay a session transcript (JSON Lines) against the staging rules of
the check, with no code from the modules that enforce them: it reads
the events and nothing else. ``audit(jsonl)`` lists the violations.

The rules:

  dance       In a controlled session (one that discloses
              ``check_initial_states``) each check photon's ``schedule``
              event comes first. Then come its ``h_announce`` events from
              the controllers of its ``h_order``, in that order, exactly
              one Alice check ``measurement`` at its position, its
              ``check_report``, and its ``flip_announce`` events in
              ``iu_order``. No other event comes in between, so no
              photon's turns interleave with another's, and no dance
              event comes outside its photon's turns.
  coverage    The check measures every ``check_open`` position exactly
              once and nothing else; a controlled session schedules each
              of them exactly once. The decode measures each
              ``message_order`` position exactly once, after that order.
  staging     ``message_order`` and ``release`` come only after a
              ``check_decision`` with ``aborted: false``.
  disclosure  The check ops disclosed cover only check positions.
  sequence    Announcements carry ``seq`` 0, 1, 2, ... in event order.
"""
from __future__ import annotations

import json

DANCE_LABELS = ("h_announce", "check_report", "flip_announce")


def _turn(event: dict) -> tuple | None:
    """What a dance turn is matched on: kind, label or stage, speaker,
    position. None for an event that is no dance turn."""
    if event["kind"] == "announcement" and event["label"] in DANCE_LABELS:
        return ("announcement", event["label"], event["sender"], event["payload"]["position"])
    if event["kind"] == "measurement" and event["stage"] == "check":
        return ("measurement", "check", event["party"], event["position"])
    return None


def _turns(schedule: dict) -> list[tuple]:
    """Every turn of one check photon, in the order its schedule sets."""
    pos = schedule["position"]
    return [
        *(("announcement", "h_announce", f"controller_{c}", pos) for c in schedule["h_order"]),
        ("measurement", "check", "alice", pos),
        ("announcement", "check_report", "alice", pos),
        *(("announcement", "flip_announce", f"controller_{c}", pos) for c in schedule["iu_order"]),
    ]


def audit(jsonl: str) -> list[str]:
    """The violations of the staging rules in a transcript, in event
    order; empty when it keeps every rule."""
    events = [json.loads(line) for line in jsonl.splitlines() if line.strip()]
    controlled = any(ev.get("label") == "check_initial_states" for ev in events)
    problems: list[str] = []
    pending: list[tuple] = []  # turns still due from the photon on the floor
    check_positions: list[int] | None = None
    message_positions: list[int] | None = None
    passed = False
    scheduled: list[int] = []
    check_measured: list[int] = []
    reveal_measured: list[int] = []
    announced = 0
    for i, ev in enumerate(events):
        kind, label, payload = ev["kind"], ev.get("label"), ev.get("payload")
        if pending and _turn(ev) != pending[0]:
            problems.append(f"event {i}: expected {pending[0]}, got {_turn(ev) or kind}")
            pending = []
        if pending:
            pending.pop(0)
            if kind == "measurement":
                check_measured.append(ev["position"])
        elif kind == "schedule":
            scheduled.append(ev["position"])
            pending = _turns(ev)
        elif label in DANCE_LABELS:
            problems.append(f"event {i}: {label} outside its photon's scheduled turns")
        elif kind == "measurement" and ev["stage"] == "check":
            if controlled:
                problems.append(f"event {i}: check measurement outside its photon's turns")
            check_measured.append(ev["position"])
        elif kind == "measurement" and ev["stage"] == "reveal":
            if message_positions is None:
                problems.append(f"event {i}: reveal measurement before the message order")
            reveal_measured.append(ev["position"])
        elif label == "check_open":
            check_positions = payload["positions"]
            if len(payload.get("ops", check_positions)) != len(check_positions):
                problems.append(f"event {i}: check ops do not align with the check positions")
        elif label == "check_decision":
            passed = not payload["aborted"]
            stray = set(map(int, payload.get("ops", {}))) - set(check_positions or ())
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
    if pending:
        problems.append(f"transcript ends with turns still due: {pending[0]}")
    if check_positions is not None:
        if sorted(check_measured) != sorted(check_positions):
            problems.append("check measurements do not cover the check positions exactly once")
        if controlled and sorted(scheduled) != sorted(check_positions):
            problems.append("schedules do not cover the check positions exactly once")
    if message_positions is not None and sorted(reveal_measured) != sorted(message_positions):
        problems.append("decode measurements do not cover the message positions exactly once")
    return problems
