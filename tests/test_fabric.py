"""Channel, noise, loss, broadcast, and transcript behavior."""
import dataclasses
import inspect
import json

import numpy as np
import pytest

from amplitude_oracle import label_of
from qsdcsim import attacks, multiparty, protocol
from qsdcsim.errors import ConfigError
from qsdcsim.fabric import (
    ClassicalChannel,
    NoiseKind,
    NoiseModel,
    QuantumChannel,
    Transcript,
    transmit,
)
from qsdcsim.protocol import SessionConfig, run_session
from qsdcsim.quantum import (
    CANONICAL_LABELS,
    Basis,
    PhotonState,
    StateLabel,
    state_from_label,
)


def repeated(label, n):
    """A sequence of n photons, each in the state ``label``."""
    return np.full(n, label.code, dtype=np.uint8)


class TestNoiseModel:
    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            NoiseModel.bit_flip(1.5)
        with pytest.raises(ConfigError):
            NoiseModel.bit_flip(-0.1)

    def test_none_requires_zero_p(self):
        with pytest.raises(ConfigError):
            NoiseModel(NoiseKind.NONE, 0.3)

    def test_none_equals_zero_bitflip(self):
        """An identity channel and a BitFlip(0) channel act identically,
        including their randomness consumption."""
        psi = StateLabel(Basis.X, 1)
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(4)
        chan_none = QuantumChannel(name="a", noise=NoiseModel.none())
        chan_zero = QuantumChannel(name="b", noise=NoiseModel.bit_flip(0.0))
        for _ in range(50):
            out_a, arrived_a = transmit(chan_none, repeated(psi, 3), rng_a)
            out_b, arrived_b = transmit(chan_zero, repeated(psi, 3), rng_b)
            assert out_a.tolist() == out_b.tolist() == [psi.code] * 3
            assert arrived_a.tolist() == arrived_b.tolist() == [0, 1, 2]
        assert rng_a.integers(0, 2**30) == rng_b.integers(0, 2**30)


class TestTransmit:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        chan = QuantumChannel(name="leg")
        codes = np.array([label.code for label in CANONICAL_LABELS], dtype=np.uint8)
        out, arrived = transmit(chan, codes, rng)
        assert arrived.tolist() == [0, 1, 2, 3]
        assert [CANONICAL_LABELS[c] for c in out.tolist()] == list(CANONICAL_LABELS)

    def test_total_loss(self):
        rng = np.random.default_rng(1)
        chan = QuantumChannel(name="leg", loss=1.0)
        out, arrived = transmit(chan, repeated(CANONICAL_LABELS[0], 20), rng)
        assert arrived.tolist() == [] and out.tolist() == []

    def test_forced_bit_flip(self):
        """Pauli X flips the Z-basis bits and only rephases the X
        eigenstates: each label goes to the label of the amplitude oracle
        X(alpha, beta) = (beta, alpha)."""
        rng = np.random.default_rng(2)
        chan = QuantumChannel(name="leg", noise=NoiseModel.bit_flip(1.0))
        codes = np.array([label.code for label in CANONICAL_LABELS], dtype=np.uint8)
        out, _arrived = transmit(chan, codes, rng)
        for label, code in zip(CANONICAL_LABELS, out.tolist()):
            st = state_from_label(label)
            assert CANONICAL_LABELS[code] == label_of(PhotonState(st.beta, st.alpha))

    def test_loss_rate_matches_configuration(self):
        rng = np.random.default_rng(3)
        chan = QuantumChannel(name="leg", loss=0.3)
        n = 100_000
        _out, arrived = transmit(chan, repeated(CANONICAL_LABELS[0], n), rng)
        assert abs((n - len(arrived)) / n - 0.3) < 0.01

    def test_depolarizing_replaces_with_canonical(self):
        rng = np.random.default_rng(5)
        chan = QuantumChannel(name="leg", noise=NoiseModel.depolarizing(1.0))
        n = 40_000
        out, arrived = transmit(chan, repeated(StateLabel(Basis.Z, 0), n), rng)
        assert len(arrived) == n
        counts = np.bincount(out, minlength=4)
        assert len(counts) == 4 and counts.sum() == n
        for label in CANONICAL_LABELS:
            assert abs(counts[label.code] / n - 0.25) < 0.02

    def test_tap_replacement_is_delivered(self):
        """The line carries what the tap returns, not the original, and the
        sender's sequence is left as it was."""

        class Swapper:
            def relay(self, codes, rng):
                return np.full(len(codes), StateLabel(Basis.Z, 1).code, dtype=np.uint8)

        rng = np.random.default_rng(6)
        chan = QuantumChannel(name="leg", taps=[Swapper()])
        original = repeated(StateLabel(Basis.Z, 0), 4)
        out, _arrived = transmit(chan, original, rng)
        assert out is not original
        assert out.tolist() == [StateLabel(Basis.Z, 1).code] * 4
        assert original.tolist() == [StateLabel(Basis.Z, 0).code] * 4

    def test_bad_loss_rejected(self):
        with pytest.raises(ConfigError):
            QuantumChannel(name="leg", loss=2.0)


class TestClassicalChannel:
    def test_broadcast_appends_in_order(self):
        tr = Transcript()
        chan = ClassicalChannel(tr)
        chan.announce("bob", "check_positions", [2, 5, 7])
        chan.announce("alice", "receipt", [0, 1])
        assert [ev["sender"] for ev in tr.events] == ["bob", "alice"]
        assert [ev["seq"] for ev in tr.events] == [0, 1]
        assert chan.seq == 2

    def test_adversary_sees_identical_payload(self):
        chan = ClassicalChannel()
        payload = {"positions": [2, 5, 7]}
        chan.announce("bob", "check_positions", payload)
        assert chan.latest["check_positions"] == payload


class TestTranscript:
    def test_jsonl_shape(self):
        tr = Transcript()
        tr.record("quantum_send", "prepare", leg="alice->bob", count=3)
        tr.record("decision", "check", error_rate=0.0, aborted=False, threshold=0.05)
        lines = tr.to_jsonl().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "quantum_send" and first["stage"] == "prepare"

    def test_session_transcripts_byte_identical(self):
        config = SessionConfig(n_photons=24, check_fraction=0.25, loss=0.1, seed=99)
        first = run_session(config, transcript=Transcript()).transcript
        second = run_session(config, transcript=Transcript()).transcript
        assert first.to_jsonl() == second.to_jsonl()

    def test_announcements_reach_transcript(self):
        tr = Transcript()
        chan = ClassicalChannel(tr)
        chan.announce("bob", "check_positions", [1], stage="check")
        assert tr.events[0]["kind"] == "announcement"
        assert tr.events[0]["sender"] == "bob"

    def test_only_sessions_take_a_transcript(self):
        """Stages log through the public channel; a transcript enters a
        session at ``run_session``/``run_mc_session`` and nowhere else.
        ``SessionOutcome`` carries it as a result field, not a stage
        parameter, so generated dataclass constructors are not stages."""
        functions = {}
        for module in (protocol, multiparty, attacks):
            for name, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    functions[f"{module.__name__}.{name}"] = obj
                elif inspect.isclass(obj):
                    for member, fn in vars(obj).items():
                        generated = member == "__init__" and dataclasses.is_dataclass(obj)
                        if inspect.isfunction(fn) and not generated:
                            functions[f"{module.__name__}.{name}.{member}"] = fn
        assert "qsdcsim.multiparty.HonestReporter.__init__" in functions
        assert "qsdcsim.protocol.EncoderTurn.send_back" in functions
        takers = [
            name
            for name, fn in functions.items()
            if "transcript" in inspect.signature(fn).parameters
        ]
        assert sorted(takers) == [
            "qsdcsim.multiparty.run_mc_session",
            "qsdcsim.protocol.run_session",
        ]
