"""Two-party protocol: operation contracts, round-trip correctness,
loss handling, order secrecy, and check soundness under noise."""
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplitude_oracle import label_of
from frame_codes import as_labels, codes
from qsdcsim.attacks import build_attack
from qsdcsim.errors import ConfigError, ProtocolError
from qsdcsim.fabric import ClassicalChannel, NoiseModel, Transcript
from qsdcsim.multiparty import McSessionConfig, run_mc_session
from qsdcsim.protocol import (
    SessionConfig,
    encode,
    prepare_p_sequence,
    rearrange,
    reveal_order_and_decode,
    run_check,
    run_session,
    select_check_positions,
)
from qsdcsim.quantum import (
    CANONICAL_LABELS,
    OP_MASK,
    OPS,
    Basis,
    OpLabel,
    StateLabel,
    apply_op,
    state_from_label,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPrepare:
    def test_reproducible_and_in_alphabet(self):
        seq = as_labels(prepare_p_sequence(4, rng(11)))
        again = as_labels(prepare_p_sequence(4, rng(11)))
        assert seq == again
        assert all(lbl in CANONICAL_LABELS for lbl in seq)

    def test_single_photon_sequence(self):
        seq = prepare_p_sequence(1, rng(1))
        assert len(seq) == 1

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            prepare_p_sequence(0, rng(1))

    def test_states_match_labels(self):
        seq = as_labels(prepare_p_sequence(64, rng(3)))
        assert all(isinstance(photon, StateLabel) for photon in seq)

    def test_label_frequencies(self):
        seq = as_labels(prepare_p_sequence(100_000, rng(8)))
        for target in CANONICAL_LABELS:
            freq = sum(1 for lbl in seq if lbl == target) / len(seq)
            assert abs(freq - 0.25) < 0.01


class TestCheckSet:
    def test_requested_size(self):
        is_check = select_check_positions(10, 3, rng(0))
        assert is_check.dtype == bool and len(is_check) == 10
        assert np.count_nonzero(is_check) == 3

    def test_boundary_single_position(self):
        is_check = select_check_positions(2, 1, rng(0))
        assert np.count_nonzero(is_check) == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            select_check_positions(10, 0, rng(0))

    def test_fraction_bounds(self):
        """A check set takes a fraction of its sequence in (0, 1]: a size
        beyond the length is refused, row by row over a batch."""
        with pytest.raises(ConfigError):
            select_check_positions(10, 11, rng(0))
        with pytest.raises(ConfigError):
            select_check_positions([10, 4], [3, 5], rng(0))
        assert np.count_nonzero(select_check_positions(10, 10, rng(0))) == 10

    def test_uniform_coverage(self):
        counts = np.zeros(10)
        draws = 20_000
        r = rng(17)
        for _ in range(draws):
            counts += select_check_positions(10, 3, r)
        for c in counts:
            assert abs(c / draws - 0.3) < 0.02


def no_check(n):
    return np.zeros(n, dtype=bool)


class TestEncode:
    def test_bit_one_flips_plus_to_minus(self):
        photons = [StateLabel(Basis.X, 0)]
        out, ops = encode(codes(photons), no_check(1), [1], rng(0))
        assert [OPS[op] for op in ops] == [OpLabel.U]
        assert as_labels(out)[0] == StateLabel(Basis.X, 1)

    def test_bit_zero_leaves_state(self):
        for label in CANONICAL_LABELS:
            photons = [label]
            out, _ops = encode(codes(photons), no_check(1), [0], rng(0))
            assert as_labels(out)[0] == photons[0]

    def test_all_zero_message_without_check_is_identity(self):
        photons = list(CANONICAL_LABELS)
        out, ops = encode(codes(photons), no_check(4), [0, 0, 0, 0], rng(0))
        assert as_labels(out) == photons
        assert [OPS[op] for op in ops] == [OpLabel.I] * 4

    def test_check_positions_get_recorded_ops(self):
        photons = [CANONICAL_LABELS[0]] * 6
        is_check = np.array([False, True, False, False, True, False])
        _out, masks = encode(codes(photons), is_check, [0, 1, 0, 1], rng(2))
        ops = [OPS[op] for op in masks]
        assert all(ops[p] in (OpLabel.I, OpLabel.U) for p in (1, 4))
        # message ops follow the bits in ascending free-position order
        assert [ops[i] for i in (0, 2, 3, 5)] == [
            OpLabel.I,
            OpLabel.U,
            OpLabel.I,
            OpLabel.U,
        ]

    def test_length_mismatch_rejected(self):
        photons = codes([CANONICAL_LABELS[0]] * 4)
        with pytest.raises(ProtocolError):
            encode(photons, np.array([True, False, False, False]), [1, 0], rng(0))
        with pytest.raises(ProtocolError):
            encode(photons, np.array([True, False, False]), [1, 0, 1], rng(0))

    def test_closure_under_encoding(self):
        seq = prepare_p_sequence(40, rng(5))
        is_check = select_check_positions(40, 10, rng(6))
        bits = [int(b) for b in rng(7).integers(0, 2, size=30)]
        out, ops = encode(seq, is_check, bits, rng(8))
        for photon, op, encoded in zip(as_labels(seq), ops, as_labels(out)):
            assert encoded == label_of(apply_op(OPS[op], state_from_label(photon)))


class TestRearrange:
    def test_single_element_identity(self):
        items = [CANONICAL_LABELS[0]]
        out, mapping = rearrange(codes(items), rng(0))
        assert mapping.tolist() == [0]
        assert as_labels(out) == items

    def test_inverse_restores_order(self):
        items = list(range(12))
        shuffled, mapping = rearrange(np.array(items), rng(4))
        assert shuffled[mapping.argsort()].tolist() == items

    def test_list_input_shuffled(self):
        shuffled, mapping = rearrange(list(range(5)), rng(4))
        assert shuffled.tolist() == mapping.tolist()

    def test_sizes_must_cover_the_sequence(self):
        for sizes in ([4], [3, 3], [2, 2, 2]):
            with pytest.raises(ProtocolError):
                rearrange(np.arange(5), rng(0), np.array(sizes))

    def test_permutations_uniform_for_n3(self):
        counts: dict[tuple, int] = {}
        draws = 30_000
        r = rng(21)
        for _ in range(draws):
            _out, mapping = rearrange(np.array([0, 1, 2]), r)
            mapping = tuple(mapping.tolist())
            counts[mapping] = counts.get(mapping, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / draws - 1 / 6) < 0.02


class TestRunCheck:
    def test_flip_announced_and_observed_matches(self):
        labels = [StateLabel(Basis.Z, 0)]
        rows = np.array([[0, 0, OP_MASK[OpLabel.U]]])
        assert run_check(codes(labels), rows, np.array([1])) == 0.0

    def test_identity_announced_matches(self):
        labels = [StateLabel(Basis.X, 1)]
        rows = np.array([[0, 0, OP_MASK[OpLabel.I]]])
        assert run_check(codes(labels), rows, np.array([1])) == 0.0

    def test_mismatch_counts(self):
        labels = [StateLabel(Basis.Z, 0), StateLabel(Basis.X, 0)]
        rows = np.array([[0, 0, OP_MASK[OpLabel.I]], [1, 1, OP_MASK[OpLabel.I]]])
        assert run_check(codes(labels), rows, np.array([1, 0])) == 0.5

    def test_unknown_origin_rejected(self):
        labels = [StateLabel(Basis.Z, 0)]
        rows = np.array([[0, 5, OP_MASK[OpLabel.I]]])
        with pytest.raises(ProtocolError):
            run_check(codes(labels), rows, np.array([0]))

    def test_outcomes_of_another_length_refused(self):
        labels = [StateLabel(Basis.Z, 0)]
        rows = np.array([[0, 0, OP_MASK[OpLabel.I]]])
        for outcomes in ([], [0, 0]):
            with pytest.raises(ProtocolError):
                run_check(codes(labels), rows, np.array(outcomes, dtype=np.uint8))


class TestDecode:
    def test_flip_on_x0_decodes_one(self):
        prepared = codes([StateLabel(Basis.X, 0)])
        photons = codes([StateLabel(Basis.X, 1)])
        rng = np.random.default_rng(0)
        bits = reveal_order_and_decode(prepared, [(0, 0)], photons, [], rng, ClassicalChannel())
        assert bits.tolist() == [1]

    def test_bits_ordered_by_origin(self):
        prepared = codes([StateLabel(Basis.Z, 0), StateLabel(Basis.Z, 1)])
        # position 5 holds origin 1, position 2 holds origin 0; both read 1
        photons = codes([StateLabel(Basis.Z, 1)] * 6)
        rng = np.random.default_rng(0)
        bits = reveal_order_and_decode(
            prepared, [(5, 1), (2, 0)], photons, [], rng, ClassicalChannel()
        )
        assert bits.tolist() == [1, 0]


class TestSessionConfig:
    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            SessionConfig(n_photons=1)

    def test_check_count_bounds(self):
        with pytest.raises(ConfigError):
            SessionConfig(n_photons=8, check_count=8)
        assert SessionConfig(n_photons=8, check_count=7).check_size(8) == 7

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SessionConfig(n_photons=8, check_fraction=1.2)


class TestSession:
    def test_round_trip_exhaustive_small_messages(self):
        """Every message of up to 8 bits decodes exactly in a noiseless
        honest session."""
        for k in (1, 4, 8):
            n = k + 3
            for bits in itertools.product((0, 1), repeat=k):
                config = SessionConfig(
                    n_photons=n, check_count=3, error_threshold=0.0, seed=k * 1000 + sum(bits)
                )
                out = run_session(config, message=list(bits))
                assert not out.aborted
                assert out.measured_error_rate == 0.0
                assert out.decoded_bits == list(bits)

    def test_all_zero_message(self):
        config = SessionConfig(n_photons=12, check_count=4, seed=3)
        out = run_session(config, message=[0] * 8)
        assert out.decoded_bits == [0] * 8

    def test_reproducible_outcomes(self):
        config = SessionConfig(n_photons=64, seed=123)
        a = run_session(config)
        b = run_session(config)
        assert a.message_sent == b.message_sent
        assert a.decoded_bits == b.decoded_bits
        assert a.measured_error_rate == b.measured_error_rate

    def test_loss_restricts_but_preserves_bits(self):
        hit_loss = False
        for seed in range(12):
            config = SessionConfig(n_photons=96, check_fraction=0.25, loss=0.1, seed=seed)
            out = run_session(config)
            assert not out.aborted
            sent = out.message_sent
            assert len(out.decoded_bits) == len(out.decoded_positions)
            if len(out.decoded_bits) < len(sent):
                hit_loss = True
            for bit, k in zip(out.decoded_bits, out.decoded_positions):
                assert bit == sent[k]
        assert hit_loss

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["qsdc", "mcqsdc"]),
        st.integers(4, 80),
        st.sampled_from([0.0, 0.1, 0.5]) | st.floats(0.0, 0.8),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["none", "intercept_resend"]),
        st.integers(0, 3),
    )
    def test_decoded_positions_invariant_under_loss(self, protocol, n, loss, seed, attack, m):
        """Under any loss the decoded bits sit on strictly increasing
        sent-message indices, one index per bit, and with no noise and no
        attack each decoded bit is the bit sent there. A session starved
        by loss is a ``ProtocolError`` and has nothing to check."""
        common = dict(n_photons=n, loss=loss, seed=seed, error_threshold=1.0)
        try:
            if protocol == "qsdc":
                out = run_session(SessionConfig(**common), attack=build_attack(attack))
            else:
                config = McSessionConfig(controllers=m, **common)
                out = run_mc_session(config, attack=build_attack(attack))
        except ProtocolError:
            return
        assert not out.aborted
        positions, sent = out.decoded_positions, out.message_sent
        assert len(positions) == len(out.decoded_bits)
        assert all(0 <= k < len(sent) for k in positions)
        assert all(a < b for a, b in zip(positions, positions[1:]))
        if attack == "none":
            assert out.decoded_bits == [sent[k] for k in positions]

    def test_message_length_validated(self):
        config = SessionConfig(n_photons=12, check_count=4, seed=1)
        with pytest.raises(ConfigError):
            run_session(config, message=[0, 1])

    def test_order_secrecy_before_check_stage(self):
        """Nothing recorded before the check discloses the permutation:
        no origins, no message order, nothing beyond positions and counts."""
        config = SessionConfig(n_photons=24, seed=5)
        out = run_session(config, transcript=Transcript())
        events = out.transcript.events
        check_start = next(i for i, ev in enumerate(events) if ev["stage"] == "check")
        prefix = events[:check_start]
        assert prefix, "expected events before the check stage"
        for ev in prefix:
            assert ev["kind"] in ("quantum_send", "quantum_deliver", "announcement", "event")
            if ev["kind"] == "announcement":
                assert ev["label"] in ("arrived_forward", "receipt")
        assert '"origins"' not in json.dumps(prefix)
        assert "message_order" not in json.dumps(prefix)

    def test_staggered_disclosure(self):
        """Receipt precedes the check opening, and an aborted session
        never publishes the message order."""
        config = SessionConfig(n_photons=24, seed=6)
        out = run_session(config, transcript=Transcript())
        labels = [
            ev["label"] for ev in out.transcript.events if ev["kind"] == "announcement"
        ]
        assert labels.index("receipt") < labels.index("check_open")
        assert labels.index("check_open") < labels.index("message_order")

        # Force an abort via an impossible threshold under heavy noise.
        aborted = None
        for seed in range(10):
            candidate = run_session(
                SessionConfig(
                    n_photons=64,
                    check_fraction=0.5,
                    noise=NoiseModel.depolarizing(0.8),
                    error_threshold=0.0,
                    seed=seed,
                ),
                transcript=Transcript(),
            )
            if candidate.aborted:
                aborted = candidate
                break
        assert aborted is not None
        labels = [
            ev["label"] for ev in aborted.transcript.events if ev["kind"] == "announcement"
        ]
        assert "message_order" not in labels
        assert aborted.decoded_bits is None

    def test_check_soundness_under_bit_flip_noise(self):
        """Honest check error rate under BitFlip(p) matches the exact
        two-leg enumeration oracle, and stays within the coarse
        first-order expectation of p itself."""
        p = Fraction(1, 20)
        # Oracle: basis uniform, independent flip per leg; an error is
        # observable only for odd net flips on a Z-basis photon (the X
        # basis is an eigenbasis of the flip).
        expected = Fraction(0)
        for basis_is_z in (True, False):
            for f1 in (0, 1):
                for f2 in (0, 1):
                    prob = (
                        Fraction(1, 2)
                        * (p if f1 else 1 - p)
                        * (p if f2 else 1 - p)
                    )
                    if (f1 ^ f2) == 1 and basis_is_z:
                        expected += prob
        assert expected == p * (1 - p)

        errors = 0
        photons = 0
        for seed in range(40):
            config = SessionConfig(
                n_photons=128,
                check_fraction=0.25,
                noise=NoiseModel.bit_flip(float(p)),
                error_threshold=1.0,
                seed=seed,
            )
            out = run_session(config)
            errors += round(out.measured_error_rate * out.n_check)
            photons += out.n_check
        rate = errors / photons
        exact = float(expected)
        sigma = (exact * (1 - exact) / photons) ** 0.5
        assert abs(rate - exact) < 3 * sigma
        assert abs(rate - float(p)) < 3 * sigma + float(p) ** 2
