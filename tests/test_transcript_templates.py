"""The transcript's line templates against ``json.dumps``. For random
field values every line a batch writes must equal the canonical JSON of
the event it stands for, built here field by field as one event per
call, and the ``events`` view must give those events back."""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcsim.fabric import DanceBatch, MeasurementBatch, Transcript

positions = st.integers(0, 10**6)
bits = st.integers(0, 1)
BASIS_NAMES = ("Z", "X")


def canonical(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def measurement(stage, party, position, basis, outcome):
    return {
        "kind": "measurement", "stage": stage, "party": party,
        "position": position, "basis": BASIS_NAMES[basis], "outcome": outcome,
    }


def announcement(seq, sender, label, payload):
    return {
        "kind": "announcement", "stage": "check", "seq": seq,
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
    m = 0 (empty orders) included."""
    m = draw(st.integers(0, 4))
    order = st.permutations(range(m))
    voices = st.lists(bits, min_size=m, max_size=m)
    row = st.tuples(positions, order, order, voices, bits, bits, bits, voices)
    return draw(st.integers(0, 10**6)), draw(st.lists(row, max_size=6))


def assert_stands_for(batch, events):
    assert batch.lines() == [canonical(ev) for ev in events]
    transcript = Transcript()
    transcript.add(batch)
    assert transcript.to_jsonl() == "\n".join(canonical(ev) for ev in events)
    assert transcript.events == events


@settings(max_examples=300, deadline=None)
@given(st.text(), st.text(), st.lists(st.tuples(positions, bits, bits), max_size=24))
def test_measurement_template(stage, party, rows):
    columns = [[row[i] for row in rows] for i in range(3)]
    events = [measurement(stage, party, *row) for row in rows]
    assert_stands_for(MeasurementBatch(stage, party, *columns), events)


@settings(max_examples=300, deadline=None)
@given(dances())
def test_dance_templates(dance):
    seq, photons = dance
    columns = [[photon[i] for photon in photons] for i in range(8)]
    assert_stands_for(DanceBatch(seq, *columns), dance_events(seq, photons))


def test_batches_keep_their_place_among_one_off_events():
    transcript = Transcript()
    transcript.record("quantum_send", "prepare", leg="alice->bob", count=2)
    transcript.add(MeasurementBatch("check", "alice", [4, 1], [0, 1], [1, 0]))
    transcript.add(MeasurementBatch("reveal", "alice", [], [], []))
    transcript.record("decision", "check", error_rate=0.5, threshold=0.05, aborted=True)
    events = [
        {"kind": "quantum_send", "stage": "prepare", "leg": "alice->bob", "count": 2},
        measurement("check", "alice", 4, 0, 1),
        measurement("check", "alice", 1, 1, 0),
        {"kind": "decision", "stage": "check", "error_rate": 0.5, "threshold": 0.05,
         "aborted": True},
    ]
    assert transcript.to_jsonl() == "\n".join(canonical(ev) for ev in events)
    assert transcript.events == events
    transcript.events.clear()
    assert len(transcript.events) == 4
