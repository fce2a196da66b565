"""Controlled protocol: chain operations, the two-round check dance and
its turn enforcement, reconstruction, and the control property."""
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from amplitude_oracle import label_of, overlap
from frame_codes import as_labels, codes
from qsdcsim.errors import ConfigError, ProtocolError
from qsdcsim.fabric import ClassicalChannel, NoiseModel, Transcript
from qsdcsim.multiparty import (
    ControllerRecord,
    HonestReporter,
    McSessionConfig,
    announcement_orders,
    controller_pass,
    mc_check_round,
    release_and_reconstruct,
    run_mc_session,
)
from qsdcsim.attacks import ColluderAgent, build_attack
from qsdcsim.protocol import (
    SessionConfig,
    prepare_p_sequence,
    reveal_order_and_decode,
    run_session,
)
from qsdcsim.quantum import (
    ATOL,
    CANONICAL_LABELS,
    OP_MASK,
    OPS,
    Basis,
    OpLabel,
    StateLabel,
    apply_op,
    apply_op_symbolic,
    state_from_label,
)

Z0 = StateLabel(Basis.Z, 0)
X1 = StateLabel(Basis.X, 1)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestControllerPass:
    def test_records_match_transformations(self):
        seq = prepare_p_sequence(64, rng(1))
        out, ops = controller_pass(seq, rng(2))
        for photon, op, transformed in zip(as_labels(seq), ops, as_labels(out)):
            assert transformed == label_of(apply_op(OPS[op], state_from_label(photon)))

    def test_hadamard_case(self):
        photons = [Z0] * 200
        out, ops = controller_pass(codes(photons), rng(3))
        idx = [OPS[op] for op in ops].index(OpLabel.H)
        assert as_labels(out)[idx] == apply_op_symbolic(OpLabel.H, Z0)

    def test_identity_case(self):
        photons = [X1] * 200
        out, ops = controller_pass(codes(photons), rng(4))
        idx = [OPS[op] for op in ops].index(OpLabel.I)
        assert as_labels(out)[idx] == photons[idx]

    def test_op_frequencies(self):
        photons = [Z0] * 100_000
        _out, masks = controller_pass(codes(photons), rng(5))
        ops = [OPS[mask] for mask in masks]
        for op in (OpLabel.I, OpLabel.U, OpLabel.H):
            freq = sum(1 for o in ops if o is op) / len(ops)
            assert abs(freq - 1 / 3) < 0.01

    def test_closure_at_every_hop(self):
        photons = prepare_p_sequence(32, rng(6))
        for hop in range(4):
            before = photons
            photons, ops = controller_pass(photons, rng(7 + hop))
            for photon, op, after in zip(as_labels(before), ops, as_labels(photons)):
                assert after == label_of(apply_op(OPS[op], state_from_label(photon)))


def dance_one_photon(initial, agents, orders, bob_op):
    """Run the check dance for one photon prepared as ``initial`` (and
    still in that state when measured) with a listening channel; returns
    the dance's transcript event and the photon's mismatch flag."""
    reporter = HonestReporter(codes([initial]), codes([initial]), rng(42))
    rows = np.array([[0, 0, OP_MASK[bob_op]]])
    transcript = Transcript()
    mismatches = mc_check_round(
        codes([initial]), rows, *orders, reporter, agents, ClassicalChannel(transcript)
    )
    (dance,) = transcript.events
    return dance, bool(mismatches[0])


def expected_label(dance, mismatch):
    """The label the encoder expected, read off the dance: the basis the
    receiver measured in and the reported bit corrected by the verdict."""
    return StateLabel(Basis(dance["bases"][0]), dance["reports"][0] ^ mismatch)


def expected_check_outcome(initial, controller_ops, bob_op):
    """The encoder's expected outcome for a check photon through the
    honest chain ``controller_ops`` and its own ``bob_op``."""
    agents = [
        ControllerRecord(np.array([0]), np.array([OP_MASK[op]]))
        for op in controller_ops
    ]
    orders = announcement_orders(1, len(agents), rng(43))
    return expected_label(*dance_one_photon(initial, agents, orders, bob_op))


class TestExpectedCheckOutcome:
    def test_hadamard_then_flip(self):
        assert expected_check_outcome(Z0, [OpLabel.H], OpLabel.U) == StateLabel(Basis.X, 1)

    def test_identity_chain(self):
        assert expected_check_outcome(X1, [OpLabel.I, OpLabel.I], OpLabel.I) == X1

    def test_agrees_with_amplitudes_for_short_chains(self):
        """The dance's expectation matches amplitude-level evolution up to
        a global phase for every chain of length <= 3 and both encoder ops."""
        ops = list(OpLabel)
        for length in range(4):
            for chain in itertools.product(ops, repeat=length):
                for bob_op in (OpLabel.I, OpLabel.U):
                    for start in CANONICAL_LABELS:
                        state = state_from_label(start)
                        for op in chain:
                            state = apply_op(op, state)
                        state = apply_op(bob_op, state)
                        predicted = expected_check_outcome(start, chain, bob_op)
                        target = state_from_label(predicted)
                        assert abs(overlap(state, target) - 1.0) < ATOL


class ScriptedController:
    """Announces fixed bits in both rounds, whatever it heard."""

    def __init__(self, h, flip):
        self.h, self.flip = h, flip

    def announce_h(self, origins):
        return np.full(len(origins), self.h, dtype=np.uint8)

    def announce_flip(self, origins, heard, remaining):
        return np.full(len(origins), self.flip, dtype=np.uint8)


class TestCheckPhotonRound:
    def test_full_round_parities(self):
        # Controller 1 then 0 announce H bits 1 and 0; controller 0 then 1
        # announce flips 1 and 1. H parity 1 turns the receiver's Z basis
        # into X, flip parity 0 leaves the expected bit at 0.
        agents = [ScriptedController(h=0, flip=1), ScriptedController(h=1, flip=1)]
        orders = (np.array([[1, 0]]), np.array([[0, 1]]))
        dance, mismatch = dance_one_photon(Z0, agents, orders, OpLabel.I)
        # The dance line writes each round's speakers and bits turn by turn.
        assert (dance["h_order"], dance["h_bits"]) == ([[1, 0]], [[1, 0]])
        assert (dance["iu_order"], dance["flips"]) == ([[0, 1]], [[1, 1]])
        assert expected_label(dance, mismatch) == StateLabel(Basis.X, 0)


class TestMcCheckRound:
    def run_worked_example(self, controller_ops, bob_op, initial):
        """One check photon, chain-transformed photon in hand."""
        state = state_from_label(initial)
        for op in controller_ops:
            state = apply_op(op, state)
        state = apply_op(bob_op, state)
        m = len(controller_ops)
        agents = [
            ControllerRecord(np.array([0]), np.array([OP_MASK[op]]))
            for op in controller_ops
        ]
        reporter = HonestReporter(codes([initial]), codes([label_of(state)]), rng(42))
        orders = announcement_orders(1, m, rng(43))
        rows = np.array([[0, 0, OP_MASK[bob_op]]])
        public = ClassicalChannel()
        return mc_check_round(codes([initial]), rows, *orders, reporter, agents, public)

    def test_two_controller_example(self):
        # Chain [H, U] on (Z,0): announced H parity 1, so the receiver
        # measures in X; the symbolic expectation matches deterministically.
        mismatches = self.run_worked_example([OpLabel.H, OpLabel.U], OpLabel.I, Z0)
        assert mismatches.mean() == 0.0 and mismatches.tolist() == [False]

    def test_honest_runs_all_chain_lengths(self):
        """Every chain of length <= 3, both encoder ops and every initial
        state: the photon evolved by amplitudes always matches the
        expected outcome of the announced effect."""
        for m in range(4):
            for chain in itertools.product(list(OpLabel), repeat=m):
                for bob_op in (OpLabel.I, OpLabel.U):
                    for initial in CANONICAL_LABELS:
                        mismatches = self.run_worked_example(list(chain), bob_op, initial)
                        assert mismatches.mean() == 0.0

    def test_schedule_must_cover_photons(self):
        orders = announcement_orders(1, 2, rng(0))
        reporter = HonestReporter(codes([Z0]), codes([Z0]), rng(1))
        rows = np.array([[0, 0, OP_MASK[OpLabel.I]], [1, 0, OP_MASK[OpLabel.I]]])
        with pytest.raises(ProtocolError):
            mc_check_round(codes([Z0]), rows, *orders, reporter, [], ClassicalChannel())
        # Right-shaped H orders do not excuse flip orders of another shape.
        agents = [ScriptedController(h=0, flip=0), ScriptedController(h=0, flip=0)]
        h_orders, _ = announcement_orders(2, 2, rng(0))
        with pytest.raises(ProtocolError, match="schedule does not cover"):
            mc_check_round(codes([Z0]), rows, h_orders, orders[1], reporter, agents, ClassicalChannel())


class Recording:
    """Passes an agent's answers through, logging each flip call: the
    speaker's index in a log shared by all agents, and its own calls as
    (turn, origins, heard, remaining, answers), plain lists."""

    def __init__(self, agent, index, log):
        self.agent, self.index, self.log, self.calls = agent, index, log, []

    def announce_h(self, origins):
        return self.agent.announce_h(origins)

    def announce_flip(self, origins, heard, remaining):
        flips = self.agent.announce_flip(origins, heard, remaining)
        turn = sum(1 for index in self.log if index == self.index)
        self.log.append(self.index)
        self.calls.append((turn, origins.tolist(), heard.tolist(), remaining, flips.tolist()))
        return flips


def reference_flip_calls(origins, iu_orders, answers, m):
    """The flip calls each agent should get, photon by photon: in turn t
    agent c speaks for the photons whose ``iu_orders[j][t]`` is c, in
    photon order, each having heard the XOR of the answers before it."""
    calls = [[(t, [], [], m - t - 1) for t in range(m)] for _ in range(m)]
    for j, origin in enumerate(origins):
        heard = 0
        for t in range(m):
            _, spoken, said, _ = calls[iu_orders[j][t]][t]
            spoken.append(origin)
            said.append(heard)
            heard ^= answers[t, origin]
    return calls


class TestFlipTurnContract:
    """Beyond m = 3: every agent, honest or the colluder, is called once
    per flip turn in chain order, with the origins it speaks for in photon
    order, the parity each of them has heard and the voices remaining."""

    @pytest.mark.parametrize("m", [4, 16])
    @pytest.mark.parametrize("k", [0, 1, 7, 40])
    def test_calls_match_per_photon_reference(self, m, k):
        gen = rng(100 * m + k)
        n = 64
        labels = prepare_p_sequence(n, gen)
        origins = gen.choice(n, size=k, replace=False)
        rows = np.column_stack((np.arange(k), origins, gen.integers(0, 2, size=k)))
        log = []
        inner = [ControllerRecord(np.arange(n), gen.integers(0, 3, size=n))
                 for _ in range(m - 1)] + [ColluderAgent(rng(7))]
        agents = [Recording(agent, c, log) for c, agent in enumerate(inner)]
        h_orders, iu_orders = announcement_orders(k, m, gen)
        reporter = HonestReporter(labels, labels[origins], gen)
        transcript = Transcript()
        mc_check_round(labels, rows, h_orders, iu_orders, reporter, agents, ClassicalChannel(transcript))

        assert log == [c for _ in range(m) for c in range(m)]
        answers = {
            (turn, origin): flip
            for agent in agents
            for turn, spoken, _, _, flips in agent.calls
            for origin, flip in zip(spoken, flips)
        }
        assert len(answers) == k * m
        expected = reference_flip_calls(origins.tolist(), iu_orders.tolist(), answers, m)
        for agent, calls in zip(agents, expected):
            assert [call[:4] for call in agent.calls] == calls
        (dance,) = transcript.events
        assert dance["flips"] == [[answers[t, origin] for t in range(m)] for origin in origins.tolist()]


class TestSchedule:
    def test_orders_are_permutations(self):
        h_orders, iu_orders = announcement_orders(50, 4, rng(9))
        for order in np.concatenate((h_orders, iu_orders)).tolist():
            assert sorted(order) == [0, 1, 2, 3]

    def test_rounds_independent(self):
        """H-round and flip-round orderings coincide about 1/m! of the
        time, and first speakers are uniform across photons."""
        m = 3
        n = 30_000
        h_orders, iu_orders = announcement_orders(n, m, rng(10))
        same = np.count_nonzero((h_orders == iu_orders).all(axis=1))
        assert abs(same / n - 1 / 6) < 0.02
        for round_orders in (h_orders, iu_orders):
            for c in range(m):
                freq = np.count_nonzero(round_orders[:, 0] == c) / n
                assert abs(freq - 1 / m) < 0.02

    def test_chain_order_variant(self):
        gen = rng(11)
        before = gen.bit_generator.state
        h_orders, iu_orders = announcement_orders(3, 4, gen, fixed=True)
        assert h_orders.tolist() == [[0, 1, 2, 3]] * 3
        assert iu_orders.tolist() == [[0, 1, 2, 3]] * 3
        # The fixed orders draw nothing.
        assert gen.bit_generator.state == before


class TestReconstruction:
    def test_missing_release_refused(self):
        records = {0: ControllerRecord(np.array([0]), np.array([0]))}
        with pytest.raises(ProtocolError, match="refused"):
            release_and_reconstruct(
                codes([Z0]), [(0, 0)], codes([Z0]), records, 2, rng(0), ClassicalChannel()
            )

    def test_zero_controllers_reduces_to_plain_decoding(self):
        config = McSessionConfig(n_photons=24, check_count=6, controllers=0, seed=31)
        out = run_mc_session(config)
        assert not out.aborted
        assert out.decoded_bits == out.message_sent

    @pytest.mark.parametrize("attack", ["none", "intercept_resend", "return_leg_tap"])
    @pytest.mark.parametrize("loss", [0.0, 0.1])
    @pytest.mark.parametrize(
        "noise", [NoiseModel.none(), NoiseModel.bit_flip(0.05), NoiseModel.depolarizing(0.1)]
    )
    def test_zero_controllers_are_the_two_party_session(self, noise, loss, attack):
        """A chain of no controllers draws, checks and decodes what the
        two-party session does, conjugate-basis reads of the reveal
        included: the same decoded bits and the same attack report."""
        common = dict(n_photons=33, noise=noise, loss=loss, error_threshold=1.0, seed=23)
        two_party, controlled = build_attack(attack), build_attack(attack)
        out = run_session(SessionConfig(**common), attack=two_party)
        mc_out = run_mc_session(McSessionConfig(controllers=0, **common), attack=controlled)
        assert not out.aborted
        assert mc_out == out
        assert controlled.report(mc_out) == two_party.report(out)

    def test_three_controllers_long_message(self):
        config = McSessionConfig(n_photons=288, check_count=32, controllers=3, seed=7)
        out = run_mc_session(config)
        assert not out.aborted and out.measured_error_rate == 0.0
        assert len(out.decoded_bits) == 256
        assert out.decoded_bits == out.message_sent

    def test_withheld_record_halves_accuracy(self):
        hits = 0
        bits = 0
        for seed in range(8):
            config = McSessionConfig(
                n_photons=140, check_count=12, controllers=3, error_threshold=0.0, seed=seed
            )
            out = run_mc_session(config, withheld_controller=1)
            assert not out.aborted
            hits += sum(1 for a, b in zip(out.decoded_bits, out.message_sent) if a == b)
            bits += len(out.decoded_bits)
        assert abs(hits / bits - 0.5) < 0.05

    def test_reconstruct_with_missing_guess_is_identity_equivalent(self):
        """The best-effort decoder treats the withheld op as identity;
        when the true op was identity it decodes exactly."""
        labels = codes([Z0])
        photon = label_of(apply_op(OpLabel.U, state_from_label(Z0)))  # encoder sent 1
        identity = ControllerRecord(np.array([0]), np.array([OP_MASK[OpLabel.I]], dtype=np.uint8))
        bits = reveal_order_and_decode(
            labels, [(0, 0)], codes([photon]), [identity], rng(3), ClassicalChannel()
        )
        assert bits == [1]


class TestSymbolicCommutativity:
    def test_chain_order_does_not_matter_symbolically(self):
        """Any reordering of a controller chain composes to the same frame
        effect and the same final label; the amplitude products differ by
        at most a global phase."""
        from qsdcsim.quantum import compose_effects

        chain = (OpLabel.H, OpLabel.U, OpLabel.H, OpLabel.U, OpLabel.I)
        base_effect = compose_effects(chain)
        for perm in itertools.permutations(chain):
            assert compose_effects(perm) == base_effect
            for start in CANONICAL_LABELS:
                state_a = state_from_label(start)
                state_b = state_from_label(start)
                for op in chain:
                    state_a = apply_op(op, state_a)
                for op in perm:
                    state_b = apply_op(op, state_b)
                assert abs(overlap(state_a, state_b) - 1.0) < ATOL


class TestMcSession:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            McSessionConfig(n_photons=16, controllers=-1)

    def test_honest_roundtrip_various_m(self):
        for m in (0, 1, 2, 5):
            config = McSessionConfig(n_photons=40, check_count=8, controllers=m, seed=m)
            out = run_mc_session(config)
            assert not out.aborted
            assert out.measured_error_rate == 0.0
            assert out.decoded_bits == out.message_sent

    def test_withheld_index_validated(self):
        config = McSessionConfig(n_photons=16, controllers=2, seed=0)
        with pytest.raises(ConfigError):
            run_mc_session(config, withheld_controller=5)

    def test_lossy_session_restricts_message(self):
        config = McSessionConfig(
            n_photons=96, check_fraction=0.25, controllers=2, loss=0.05, seed=13
        )
        out = run_mc_session(config)
        assert not out.aborted
        for bit, k in zip(out.decoded_bits, out.decoded_positions):
            assert bit == out.message_sent[k]

    def test_transcript_contains_the_dance_and_releases(self):
        config = McSessionConfig(n_photons=16, check_count=4, controllers=2, seed=3)
        out = run_mc_session(config, transcript=Transcript())
        kinds = [ev["kind"] for ev in out.transcript.events]
        assert kinds.count("dance") == 1
        labels = {
            ev.get("label") for ev in out.transcript.events if ev["kind"] == "announcement"
        }
        assert "release" in labels and "check_initial_states" in labels

    def test_withheld_transcript_logs_every_measurement(self):
        """The best-effort decode of a withheld-controller run measures
        through the public channel like the production decode."""
        config = McSessionConfig(n_photons=32, controllers=3, error_threshold=0.0, seed=5)
        out = run_mc_session(config, transcript=Transcript(), withheld_controller=1)
        events = out.transcript.events
        (dance,) = [ev for ev in events if ev["kind"] == "dance"]
        (decode,) = [ev for ev in events if ev["kind"] == "measurement"]
        assert decode["party"] == "alice" and decode["stage"] == "reveal"
        assert len(dance["positions"]) == out.n_check
        assert len(decode["positions"]) == len(out.decoded_bits)

    def test_deterministic(self):
        config = McSessionConfig(n_photons=48, controllers=3, seed=77)
        a = run_mc_session(config, transcript=Transcript())
        b = run_mc_session(config, transcript=Transcript())
        assert a.transcript.to_jsonl() == b.transcript.to_jsonl()
        assert a.decoded_bits == b.decoded_bits

    def test_bit_flip_noise_matches_enumeration_oracle(self):
        """Exact oracle: an X error injected at hop l is toggled to a
        Z-type error by every later H; it flips the measured bit only when
        its final type matches the final measurement basis. The check
        error rate is the probability of an odd number of visible errors,
        enumerated exactly over controller H-patterns and per-hop flips."""
        m = 2
        p = Fraction(1, 25)
        hops = m + 2
        expected = Fraction(0)
        for x_init in (0, 1):  # 0: Z basis, 1: X basis
            for h_pattern in itertools.product((0, 1), repeat=m):
                prob_h = Fraction(1)
                for h in h_pattern:
                    prob_h *= Fraction(1, 3) if h else Fraction(2, 3)
                total_h = sum(h_pattern) % 2
                x_final = x_init ^ total_h
                visible = []
                for hop in range(hops):
                    # H operations applied after this hop's noise:
                    later = sum(h_pattern[hop:]) % 2 if hop < m else 0
                    visible.append(1 if later == x_final else 0)
                for flips in itertools.product((0, 1), repeat=hops):
                    prob_f = Fraction(1)
                    for f in flips:
                        prob_f *= p if f else 1 - p
                    odd = sum(f for f, v in zip(flips, visible) if v) % 2
                    if odd:
                        expected += Fraction(1, 2) * prob_h * prob_f
        exact = float(expected)

        errors = 0
        photons = 0
        for seed in range(60):
            config = McSessionConfig(
                n_photons=96,
                check_count=64,
                controllers=m,
                noise=NoiseModel.bit_flip(float(p)),
                error_threshold=1.0,
                seed=seed,
            )
            out = run_mc_session(config)
            errors += round(out.measured_error_rate * out.n_check)
            photons += out.n_check
        rate = errors / photons
        sigma = (exact * (1 - exact) / photons) ** 0.5
        assert abs(rate - exact) < 3 * sigma
        # To first order the rate is hops * p / 2; check the oracle itself.
        assert abs(exact - hops * float(p) / 2) < float(p) ** 2 * hops**2
