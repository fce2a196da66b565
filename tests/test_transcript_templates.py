"""The transcript's renderer against ``json.dumps``. For random field
values every line a batch or a bulk event field writes must equal the
canonical JSON of the event it stands for, built here field by field as
one event per call, and the ``events`` view must give those events back.
Real sessions of every protocol and attack must write only canonical
lines."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcsim.attacks import ATTACK_REGISTRY
from qsdcsim.errors import ConfigError
from qsdcsim.fabric import (
    DECIMAL_CAP,
    ClassicalChannel,
    Coded,
    DanceBatch,
    MeasurementBatch,
    Transcript,
    json_texts,
)
from qsdcsim.harness import ExperimentConfig, run_report
from qsdcsim.multiparty import MAX_CONTROLLERS
from qsdcsim.quantum import OP_NAMES

positions = st.integers(0, 10**6)
bits = st.integers(0, 1)
BASIS_NAMES = ("Z", "X")
#: Stage and party text, with the characters a template could trip on.
texts = st.text(st.characters() | st.sampled_from('%{}"\\\n\0\1'))
#: Integers past the decimal table's bound, up to the photon cap.
ints = st.integers(0, 8) | st.integers(0, 1 << 24) | st.integers(DECIMAL_CAP - 2, DECIMAL_CAP + 2)
#: Keys across digit lengths, so that "10" and "9" sort as strings.
keys = st.sets(st.integers(0, 12) | st.integers(90, 110) | st.integers(990, 1010) | ints)


def canonical(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def measurement(stage, party, position, basis, outcome):
    return {
        "kind": "measurement", "stage": stage, "party": party,
        "position": position, "basis": BASIS_NAMES[basis], "outcome": outcome,
    }


def announcement(seq, sender, label, payload, stage="check"):
    return {
        "kind": "announcement", "stage": stage, "seq": seq,
        "sender": sender, "label": label, "payload": payload,
    }


def dance_events(seq, photons):
    """The dance one event at a time: schedule, H round, measurement,
    report, flip round, photon after photon. H bits are by controller,
    flips by turn."""
    events = []
    for pos, h_order, iu_order, h_bits, basis, outcome, report, flips in photons:
        events.append(
            {"kind": "schedule", "stage": "check", "position": pos,
             "h_order": h_order, "iu_order": iu_order}
        )
        for c in h_order:
            payload = {"position": pos, "h": h_bits[c]}
            events.append(announcement(seq, f"controller_{c}", "h_announce", payload))
            seq += 1
        events.append(measurement("check", "alice", pos, basis, outcome))
        payload = {"position": pos, "outcome": report}
        events.append(announcement(seq, "alice", "check_report", payload))
        seq += 1
        for c, flip in zip(iu_order, flips):
            payload = {"position": pos, "flip": flip}
            events.append(announcement(seq, f"controller_{c}", "flip_announce", payload))
            seq += 1
    return events


@st.composite
def dances(draw):
    """A first seq and the rows of k check photons among m controllers,
    m = 0 (empty orders) and the cap included."""
    m = draw(st.integers(0, 4) | st.integers(0, MAX_CONTROLLERS))
    order = st.permutations(range(m))
    voices = st.lists(bits, min_size=m, max_size=m)
    row = st.tuples(positions, order, order, voices, bits, bits, bits, voices)
    return draw(st.integers(0, 10**6)), draw(st.lists(row, max_size=6))


def assert_stands_for(transcript, events):
    assert transcript.to_jsonl() == "\n".join(canonical(ev) for ev in events)
    assert transcript.events == events


def batch_transcript(batch):
    transcript = Transcript()
    transcript.add(batch)
    return transcript


@settings(max_examples=300, deadline=None)
@given(texts, texts, st.lists(st.tuples(positions, bits, bits), max_size=24))
def test_measurement_template(stage, party, rows):
    columns = [np.array([row[i] for row in rows], dtype=np.int64) for i in range(3)]
    events = [measurement(stage, party, *row) for row in rows]
    assert_stands_for(batch_transcript(MeasurementBatch(stage, party, *columns)), events)


@settings(max_examples=300, deadline=None)
@given(dances())
def test_dance_templates(dance):
    seq, photons = dance
    columns = [[photon[i] for photon in photons] for i in range(8)]
    batch = DanceBatch(seq, *(np.array(column, dtype=np.int64) for column in columns))
    assert_stands_for(batch_transcript(batch), dance_events(seq, photons))


@settings(max_examples=300, deadline=None)
@given(st.lists(ints, max_size=40), st.lists(st.tuples(ints, ints), max_size=20), texts)
def test_int_list_payloads(values, pairs, stage):
    """The arrival lists, the receipt and the message order: a 1-D and a
    2-D integer array, empty and single ones included."""
    transcript = Transcript()
    public = ClassicalChannel(transcript)
    array = np.array(values, dtype=np.int64)
    order = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    public.record("quantum_deliver", stage, leg="alice->bob", arrived=public.column(array))
    public.announce("alice", "receipt", public.column(array), stage=stage)
    public.announce("bob", "message_order", public.column(order), stage=stage)
    events = [
        {"kind": "quantum_deliver", "stage": stage, "leg": "alice->bob", "arrived": values},
        announcement(0, "alice", "receipt", values, stage),
        announcement(1, "bob", "message_order", [list(pair) for pair in pairs], stage),
    ]
    assert_stands_for(transcript, events)


@settings(max_examples=300, deadline=None)
@given(keys, st.data())
def test_keyed_payloads(key_set, data):
    """Payloads keyed by decimal strings, the releases, the initial states
    and the decision's ops, keys in ``json.dumps``'s string order."""
    key_list = data.draw(st.permutations(sorted(key_set)))
    codes = data.draw(st.lists(st.integers(0, 3), min_size=len(key_list), max_size=len(key_list)))
    states = [{"basis": b, "bit": bit} for b in BASIS_NAMES for bit in (0, 1)]
    transcript = Transcript()
    public = ClassicalChannel(transcript)
    key_array, code_array = np.array(key_list, dtype=np.int64), np.array(codes, dtype=np.uint8)
    ops = Coded(code_array % 3, json_texts(OP_NAMES), keys=key_array)
    initial = Coded(code_array, json_texts(states), keys=key_array)
    public.announce("alice", "check_initial_states", initial)
    public.announce("bob", "check_decision", {"error_rate": 0.25, "aborted": False, "ops": ops})
    public.announce("bob", "check_open", {"ops": public.column(code_array % 3, OP_NAMES)})
    events = [
        announcement(0, "alice", "check_initial_states",
                     {str(k): states[c] for k, c in zip(key_list, codes)}, ""),
        announcement(1, "bob", "check_decision",
                     {"error_rate": 0.25, "aborted": False,
                      "ops": {str(k): OP_NAMES[c % 3] for k, c in zip(key_list, codes)}}, ""),
        announcement(2, "bob", "check_open", {"ops": [OP_NAMES[c % 3] for c in codes]}, ""),
    ]
    assert_stands_for(transcript, events)


def test_unheard_columns_are_plain_lists():
    public = ClassicalChannel()
    assert public.column(np.array([3, 1])) == [3, 1]
    assert public.column(np.array([[1, 2]])) == [[1, 2]]
    assert public.column(np.array([0, 2]), OP_NAMES) == [OP_NAMES[0], OP_NAMES[2]]


def test_batches_keep_their_place_among_one_off_events():
    transcript = Transcript()
    transcript.record("quantum_send", "prepare", leg="alice->bob", count=2)
    transcript.add(MeasurementBatch("check", "alice", [4, 1], [0, 1], [1, 0]))
    transcript.add(MeasurementBatch("reveal", "alice", [], [], []))
    transcript.add(DanceBatch(7, *[np.zeros((0, 2), dtype=np.int64)] * 8))
    transcript.record("decision", "check", error_rate=0.5, threshold=0.05, aborted=True)
    events = [
        {"kind": "quantum_send", "stage": "prepare", "leg": "alice->bob", "count": 2},
        measurement("check", "alice", 4, 0, 1),
        measurement("check", "alice", 1, 1, 0),
        {"kind": "decision", "stage": "check", "error_rate": 0.5, "threshold": 0.05,
         "aborted": True},
    ]
    assert_stands_for(transcript, events)
    transcript.events.clear()
    assert len(transcript.events) == 4


def test_empty_transcript_writes_nothing():
    transcript = Transcript()
    transcript.add(MeasurementBatch("reveal", "alice", [], [], []))
    assert transcript.to_jsonl() == ""
    assert transcript.events == []


FIXED = {"schedule_variant": "fixed_order"}
SESSIONS = [
    pytest.param(protocol, {"name": name}, id=f"{protocol}-{name}")
    for name, cls in sorted(ATTACK_REGISTRY.items())
    for protocol in cls.protocols
] + [
    pytest.param("mcqsdc", {"name": "collusion", "params": FIXED}, id="mcqsdc-collusion-fixed"),
    pytest.param("qsdc", {"name": "return_leg_tap", "params": {"disclose_permutation": True}},
                 id="qsdc-return_leg_tap-disclosed"),
]


@pytest.mark.parametrize("protocol,attack", SESSIONS)
def test_session_lines_are_canonical(protocol, attack):
    """Every line of a real session is ``json.dumps`` of what it parses
    to. N = 120, so origins and positions cross 9 -> 10 and 99 -> 100; a
    key written in numeric rather than string order fails here. A config
    the attack refuses (loss, too few controllers) is not a session."""
    written = 0
    for m in ((0,) if protocol == "qsdc" else (0, 1, 3)):
        for loss in (0.0, 0.3):
            for seed, threshold in ((1, 1.0), (2, 1.0), (3, 0.05)):
                raw = {"protocol": protocol, "n_photons": 120, "loss": loss, "seed": seed,
                       "error_threshold": threshold, "attack": attack}
                if protocol == "mcqsdc":
                    raw["controllers"] = m
                transcript = Transcript()
                try:
                    run_report(ExperimentConfig.from_dict(raw), transcript=transcript)
                except ConfigError:
                    continue
                lines = transcript.to_jsonl().split("\n")
                assert all(line == canonical(json.loads(line)) for line in lines)
                written += len(lines)
    assert written > 0
