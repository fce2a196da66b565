"""The transcript's renderer against ``json.dumps``. Every entry is one
line: for random field values the line an event writes must equal the
canonical JSON of its plain form, built here with its columns as lists,
and the ``events`` view must give those events back. The dance line must
also give back, field for field, the announcements it stands for. Real
sessions of every protocol and attack must write only canonical lines."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcsim.attacks import ATTACK_REGISTRY
from qsdcsim.errors import ConfigError
from qsdcsim.fabric import DECIMAL_CAP, ClassicalChannel, Coded, Transcript, json_texts
from qsdcsim.harness import ExperimentConfig, run_report
from qsdcsim.multiparty import MAX_CONTROLLERS, mc_check_round
from qsdcsim.quantum import OP_NAMES

positions = st.integers(0, 10**6)
bits = st.integers(0, 1)
BASIS_NAMES = ("Z", "X")
#: Stage and party text, with the characters a template could trip on.
texts = st.text(st.characters() | st.sampled_from('%{}"\\\n\0\1'))
#: Integers past the decimal table's bound, up to the photon cap.
ints = st.integers(0, 8) | st.integers(0, 1 << 24) | st.integers(DECIMAL_CAP - 2, DECIMAL_CAP + 2)
#: Keys across digit lengths, so that "10" and "9" would sort apart as strings.
keys = st.sets(st.integers(0, 12) | st.integers(90, 110) | st.integers(990, 1010) | ints)


def canonical(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def announcement(seq, sender, label, payload, stage="check"):
    return {
        "kind": "announcement", "stage": stage, "seq": seq,
        "sender": sender, "label": label, "payload": payload,
    }


def dance_events(seq, photons):
    """The dance one event at a time, as it was written before it became
    one line: schedule, H round, measurement, report, flip round, photon
    after photon. H bits are by controller, flips by turn."""
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
        events.append({"kind": "measurement", "stage": "check", "party": "alice",
                       "position": pos, "basis": BASIS_NAMES[basis], "outcome": outcome})
        payload = {"position": pos, "outcome": report}
        events.append(announcement(seq, "alice", "check_report", payload))
        seq += 1
        for c, flip in zip(iu_order, flips):
            payload = {"position": pos, "flip": flip}
            events.append(announcement(seq, f"controller_{c}", "flip_announce", payload))
            seq += 1
    return events


def unfold(dance):
    """The per-event form rebuilt from a parsed dance line, by the
    numbering rule: announcement i of photon j has seq + j(2m + 1) + i."""
    m = len(dance["h_order"][0]) if dance["h_order"] else 0
    photons = []
    for j, pos in enumerate(dance["positions"]):
        h_order, h_turns = dance["h_order"][j], dance["h_bits"][j]
        by_controller = [h_turns[h_order.index(c)] for c in range(m)]
        photons.append((pos, h_order, dance["iu_order"][j], by_controller,
                        BASIS_NAMES.index(dance["bases"][j]), dance["outcomes"][j],
                        dance["reports"][j], dance["flips"][j]))
    return dance_events(dance["seq"], photons)


@st.composite
def dances(draw):
    """A first seq and the rows of k check photons among m controllers,
    m = 0 (empty orders) and the cap included."""
    m = draw(st.integers(0, 4) | st.integers(0, MAX_CONTROLLERS))
    order = st.permutations(range(m))
    voices = st.lists(bits, min_size=m, max_size=m)
    row = st.tuples(positions, order, order, voices, bits, bits, bits, voices)
    return m, draw(st.integers(0, 10**6)), draw(st.lists(row, max_size=6))


class Scripted:
    """A controller or the reporter of a dance, speaking given bits. A
    row's origin is its index."""

    def __init__(self, h=None, flips=None, report=None):
        self._h, self._flips, self._report = h, flips, report

    def announce_h(self, origins):
        return self._h[origins]

    def announce_flip(self, origins, heard, remaining):
        return self._flips[origins]

    def report(self, positions, origins, h_parity):
        return self._report


def assert_stands_for(transcript, events):
    assert transcript.to_jsonl() == "\n".join(canonical(ev) for ev in events)
    assert transcript.events == events


@settings(max_examples=300, deadline=None)
@given(texts, texts, st.lists(st.tuples(positions, bits, bits), max_size=24))
def test_measurement_line(stage, party, rows):
    """One party's measurements in a stage are one line of columns."""
    columns = [np.array([row[i] for row in rows], dtype=np.int64) for i in range(3)]
    transcript = Transcript()
    ClassicalChannel(transcript).measured(stage, party, *columns)
    event = {"kind": "measurement", "stage": stage, "party": party,
             "positions": [row[0] for row in rows],
             "bases": [BASIS_NAMES[row[1]] for row in rows],
             "outcomes": [row[2] for row in rows]}
    assert_stands_for(transcript, [event])


@settings(max_examples=300, deadline=None)
@given(dances())
def test_dance_line(dance):
    """``mc_check_round`` writes the whole dance as one line, the bits by
    turn, numbered from the channel's ``seq``, which it advances by
    k(2m + 1); the line gives back every field of every announcement."""
    m, seq, photons = dance
    k = len(photons)
    pos, bases, outcomes, reports = (
        np.array([photon[i] for photon in photons], dtype=np.int64) for i in (0, 4, 5, 6)
    )
    h_orders, iu_orders, h_bits, flips = (
        np.array([photon[i] for photon in photons], dtype=np.int64).reshape(k, m)
        for i in (1, 2, 3, 7)
    )
    by_controller = np.zeros((k, m), dtype=np.uint8)
    np.put_along_axis(by_controller, iu_orders, flips, axis=1)
    agents = [Scripted(h=h_bits[:, c], flips=by_controller[:, c]) for c in range(m)]
    reporter = Scripted(report=(bases, outcomes, reports))
    rows = np.column_stack((pos, np.arange(k), np.zeros(k, dtype=np.int64)))
    transcript = Transcript()
    public = ClassicalChannel(transcript)
    public.seq = seq
    mc_check_round(np.zeros(k, dtype=np.uint8), rows, h_orders, iu_orders, reporter, agents, public)
    assert public.seq == seq + k * (2 * m + 1)
    event = {
        "kind": "dance", "stage": "check", "seq": seq,
        "positions": [photon[0] for photon in photons],
        "h_order": [photon[1] for photon in photons],
        "iu_order": [photon[2] for photon in photons],
        "h_bits": [[photon[3][c] for c in photon[1]] for photon in photons],
        "bases": [BASIS_NAMES[photon[4]] for photon in photons],
        "outcomes": [photon[5] for photon in photons],
        "reports": [photon[6] for photon in photons],
        "flips": [photon[7] for photon in photons],
    }
    assert_stands_for(transcript, [event])
    assert unfold(transcript.events[0]) == dance_events(seq, photons)


#: Values crossing 9 -> 10, 99 -> 100, the decimal table's bound and up to
#: the photon cap.
WIDE_VALUES = np.array([*range(13), 99, 100, DECIMAL_CAP - 1, DECIMAL_CAP, DECIMAL_CAP + 1, 1 << 24])


@st.composite
def int_arrays(draw, ndim):
    """An integer array: 1-D, or 2-D up to the controller cap wide, as the
    dance's (k, m) columns are; its values all single digits (then
    perhaps uint8) or of mixed widths; perhaps a non-contiguous view, a
    column of a wider array as ``rows.T`` gives."""
    if ndim == 1:
        shape = (draw(st.integers(0, 40)),)
    else:
        shape = (draw(st.integers(0, 12)), draw(st.integers(0, 4) | st.integers(0, MAX_CONTROLLERS)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        array = gen.integers(0, 10, size=shape).astype(draw(st.sampled_from([np.int64, np.uint8])))
    else:
        array = gen.choice(WIDE_VALUES, size=shape)
    if draw(st.booleans()):
        array = np.stack([array + 1, array, array], axis=-1)[..., 1]
    return array


@settings(max_examples=300, deadline=None)
@given(int_arrays(1), int_arrays(2), st.lists(st.tuples(ints, ints), max_size=20), texts)
def test_int_list_payloads(array, grid, pairs, stage):
    """A leg's delivered count, the receipt, the message order and a
    dance column: 1-D and 2-D integer arrays, empty and single ones,
    single-digit and non-contiguous ones included."""
    transcript = Transcript()
    public = ClassicalChannel(transcript)
    order = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    public.record("quantum_deliver", stage, leg="alice->bob", count=len(array))
    public.announce("alice", "receipt", public.column(array), stage=stage)
    public.announce("bob", "message_order", public.column(order), stage=stage)
    public.record("dance", stage, flips=grid)
    events = [
        {"kind": "quantum_deliver", "stage": stage, "leg": "alice->bob", "count": len(array)},
        announcement(0, "alice", "receipt", array.tolist(), stage),
        announcement(1, "bob", "message_order", [list(pair) for pair in pairs], stage),
        {"kind": "dance", "stage": stage, "flips": grid.tolist()},
    ]
    assert_stands_for(transcript, events)


@settings(max_examples=300, deadline=None)
@given(keys, st.lists(st.text(), min_size=4, max_size=4), st.data())
def test_keyed_payloads(key_set, words, data):
    """Keyed payloads, the releases, the initial states and the decision's
    ops, are aligned key and value arrays, the keys ascending; codes stand
    for texts of one width or, here as ``words``, of several."""
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
    public.announce("bob", "words", {"keyed": Coded(code_array, json_texts(words), keys=key_array),
                                     "listed": public.column(code_array, words)})
    by_key = sorted(zip(key_list, codes))
    events = [
        announcement(0, "alice", "check_initial_states",
                     {"keys": [k for k, _ in by_key], "values": [states[c] for _, c in by_key]}, ""),
        announcement(1, "bob", "check_decision",
                     {"error_rate": 0.25, "aborted": False,
                      "ops": {"keys": [k for k, _ in by_key],
                              "values": [OP_NAMES[c % 3] for _, c in by_key]}}, ""),
        announcement(2, "bob", "check_open", {"ops": [OP_NAMES[c % 3] for c in codes]}, ""),
        announcement(3, "bob", "words",
                     {"keyed": {"keys": [k for k, _ in by_key], "values": [words[c] for _, c in by_key]},
                      "listed": [words[c] for c in codes]}, ""),
    ]
    assert_stands_for(transcript, events)


def test_unheard_columns_are_plain_lists():
    public = ClassicalChannel()
    assert public.column(np.array([3, 1])) == [3, 1]
    assert public.column(np.array([[1, 2]])) == [[1, 2]]
    assert public.column(np.array([0, 2]), OP_NAMES) == [OP_NAMES[0], OP_NAMES[2]]


def test_every_entry_is_one_line_in_its_place():
    """An empty batch of measurements is a line of empty columns, kept
    among the one-off events; the ``events`` view is a fresh copy."""
    transcript = Transcript()
    public = ClassicalChannel(transcript)
    transcript.record("quantum_send", "prepare", leg="alice->bob", count=2)
    public.measured("check", "alice", np.array([4, 1]), np.array([0, 1]), np.array([1, 0]))
    public.measured("reveal", "alice", *[np.zeros(0, dtype=np.int64)] * 3)
    transcript.record("decision", "check", error_rate=0.5, threshold=0.05, aborted=True)
    events = [
        {"kind": "quantum_send", "stage": "prepare", "leg": "alice->bob", "count": 2},
        {"kind": "measurement", "stage": "check", "party": "alice",
         "positions": [4, 1], "bases": ["Z", "X"], "outcomes": [1, 0]},
        {"kind": "measurement", "stage": "reveal", "party": "alice",
         "positions": [], "bases": [], "outcomes": []},
        {"kind": "decision", "stage": "check", "error_rate": 0.5, "threshold": 0.05,
         "aborted": True},
    ]
    assert_stands_for(transcript, events)
    transcript.events.clear()
    assert len(transcript.events) == 4


def test_empty_transcript_writes_nothing():
    transcript = Transcript()
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
    keyed payload whose keys are not ascending fails here. A config the
    attack refuses (loss, too few controllers) is not a session."""
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
                for event in map(json.loads, lines):
                    payload = event.get("payload")
                    if isinstance(payload, dict) and "keys" in payload:
                        assert payload["keys"] == sorted(set(payload["keys"]))
                written += len(lines)
    assert written > 0
