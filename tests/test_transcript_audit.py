"""The transcript audit: every transcript the simulator writes keeps the
check's staging rules, and tampered copies are refused. The audit shares
no code with the modules that run the check, so it is an independent
check of the turn order that the dance no longer enforces as it runs."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import RUNS
from transcript_audit import audit
from qsdcsim.attacks import ATTACK_REGISTRY
from qsdcsim.fabric import Transcript
from qsdcsim.harness import ExperimentConfig, run_report
from qsdcsim.multiparty import McSessionConfig, run_mc_session

FIXED = {"schedule_variant": "fixed_order"}
ATTACKS = [
    pytest.param(protocol, {"name": name}, id=f"{protocol}-{name}")
    for name, cls in sorted(ATTACK_REGISTRY.items())
    for protocol in cls.protocols
] + [pytest.param("mcqsdc", {"name": "collusion", "params": FIXED}, id="mcqsdc-collusion-fixed")]


def report_transcript(raw: dict) -> str:
    transcript = Transcript()
    run_report(ExperimentConfig.from_dict(raw), transcript=transcript)
    return transcript.to_jsonl()


def controlled_transcript() -> list[dict]:
    """The events of a passing controlled session with three controllers."""
    config = McSessionConfig(n_photons=24, check_count=4, controllers=3, seed=2)
    out = run_mc_session(config, transcript=Transcript())
    assert not out.aborted
    return [dict(ev) for ev in out.transcript.events]


def to_jsonl(events: list[dict]) -> str:
    return "\n".join(json.dumps(ev, sort_keys=True) for ev in events)


def find(events: list[dict], label: str, nth: int = 0) -> int:
    """Index of the nth announcement under ``label``."""
    hits = [i for i, ev in enumerate(events) if ev.get("label") == label]
    return hits[nth]


def move(events: list[dict], src: int, dst: int) -> list[dict]:
    """A copy of ``events`` with the event at ``src`` moved to ``dst``."""
    out = list(events)
    out.insert(dst, out.pop(src))
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_transcripts_pass(name):
    assert audit(report_transcript(RUNS[name])) == []


@pytest.mark.parametrize("protocol,attack", ATTACKS)
def test_every_attack_passes(protocol, attack):
    raw = {"protocol": protocol, "n_photons": 40, "check_count": 10, "attack": attack}
    if protocol == "mcqsdc":
        raw["controllers"] = 3
    for threshold in (0.0, 1.0):  # an aborted session and a decoded one
        assert audit(report_transcript(dict(raw, error_threshold=threshold))) == []


def test_withheld_controller_run_passes():
    config = McSessionConfig(n_photons=40, controllers=3, error_threshold=0.0, seed=16)
    out = run_mc_session(config, transcript=Transcript(), withheld_controller=1)
    assert not out.aborted
    assert audit(out.transcript.to_jsonl()) == []


def test_untampered_copy_passes():
    assert audit(to_jsonl(controlled_transcript())) == []


def dance_of(events: list[dict]) -> dict:
    """The dance event of a controlled transcript."""
    (dance,) = [ev for ev in events if ev["kind"] == "dance"]
    return dance


def test_non_permutation_row_rejected():
    events = controlled_transcript()
    dance_of(events)["iu_order"][1] = [0, 0, 2]
    assert audit(to_jsonl(events)) == [
        f"event {events.index(dance_of(events))}: an iu_order row is no permutation of the controllers"
    ]


def test_missing_check_position_rejected():
    events = controlled_transcript()
    dance = dance_of(events)
    for name in ("positions", "h_order", "iu_order", "h_bits", "bases", "outcomes", "reports", "flips"):
        dance[name].pop()
    assert "the dance does not cover the check positions exactly once" in audit(to_jsonl(events))


def test_misaligned_columns_rejected():
    events = controlled_transcript()
    dance_of(events)["reports"].pop()
    assert "dance columns do not align" in audit(to_jsonl(events))[0]


def test_dance_seq_off_by_one_rejected():
    events = controlled_transcript()
    dance_of(events)["seq"] += 1
    (problem,) = audit(to_jsonl(events))
    assert "dance seq" in problem and "is due" in problem


def test_delivery_count_off_by_one_rejected():
    """Every hop of the chain and the return leg: a count that is not the
    length of the arrival list announced after it is refused."""
    events = controlled_transcript()
    deliveries = [i for i, ev in enumerate(events) if ev["kind"] == "quantum_deliver"]
    assert len(deliveries) == 5
    for i in deliveries:
        tampered = list(events)
        tampered[i] = dict(events[i], count=events[i]["count"] + 1)
        (problem,) = audit(to_jsonl(tampered))
        assert problem.startswith(f"event {i}: ") and "photons delivered where" in problem


def test_delivery_without_arrival_list_rejected():
    events = controlled_transcript()
    last = max(i for i, ev in enumerate(events) if ev["kind"] == "quantum_deliver")
    assert audit(to_jsonl(events[: last + 1])) == [
        f"event {last}: delivery with no arrival list after it"
    ]


def test_message_order_before_decision_rejected():
    events = controlled_transcript()
    tampered = move(events, find(events, "message_order"), find(events, "check_decision"))
    problems = audit(to_jsonl(tampered))
    assert any("message_order before a passing check decision" in p for p in problems)


def test_ops_disclosed_for_message_position_rejected():
    events = controlled_transcript()
    ops = events[find(events, "check_decision")]["payload"]["ops"]
    message_position = events[find(events, "message_order")]["payload"][0][0]
    ops["keys"].append(message_position)
    ops["values"].append("I")
    assert "non-check positions" in audit(to_jsonl(events))[0]


def test_swapped_seq_rejected():
    events = controlled_transcript()
    first, second = find(events, "check_open"), find(events, "check_initial_states")
    events[first]["seq"], events[second]["seq"] = events[second]["seq"], events[first]["seq"]
    problems = audit(to_jsonl(events))
    assert [p.split(":")[0] for p in problems] == [f"event {first}", f"event {second}"]
    assert all("is due" in p for p in problems)


def test_audit_imports_no_protocol_code():
    tests = Path(__file__).resolve().parent
    code = (
        "import sys, transcript_audit; "
        "sys.exit(any(m.startswith('qsdcsim') for m in sys.modules))"
    )
    assert subprocess.run([sys.executable, "-c", code], cwd=tests).returncode == 0
