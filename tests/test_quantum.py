"""Kernel tests: canonical states, the three unitaries, frame measurement
against the Born rule, the exhaustive amplitude-vs-symbolic equivalence,
and the boundary that keeps the amplitude oracle off the session path."""
import itertools
import math

import numpy as np
import pytest

from amplitude_oracle import is_canonical, label_of, norm_sq, overlap
from qsdcsim import attacks, fabric, multiparty, protocol
from qsdcsim.quantum import (
    ATOL,
    BASES,
    CANONICAL_LABELS,
    Basis,
    OpLabel,
    PhotonState,
    StateLabel,
    apply_op,
    apply_op_symbolic,
    compose_effects,
    measure,
    random_codes,
    state_from_label,
    unitary_matrix,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)

Z0 = StateLabel(Basis.Z, 0)
Z1 = StateLabel(Basis.Z, 1)
X0 = StateLabel(Basis.X, 0)
X1 = StateLabel(Basis.X, 1)


class TestCanonicalStates:
    def test_z0_amplitudes(self):
        assert state_from_label(Z0) == PhotonState(1.0 + 0j, 0j)

    def test_z1_amplitudes(self):
        assert state_from_label(Z1) == PhotonState(0j, 1.0 + 0j)

    def test_x0_amplitudes(self):
        st = state_from_label(X0)
        assert st.alpha == pytest.approx(SQRT_HALF, abs=ATOL)
        assert st.beta == pytest.approx(SQRT_HALF, abs=ATOL)

    def test_x1_amplitudes(self):
        st = state_from_label(X1)
        assert st.alpha == pytest.approx(SQRT_HALF, abs=ATOL)
        assert st.beta == pytest.approx(-SQRT_HALF, abs=ATOL)

    def test_all_normalized(self):
        for label in CANONICAL_LABELS:
            assert abs(norm_sq(state_from_label(label)) - 1.0) < ATOL

    def test_global_phase_convention(self):
        """First nonzero amplitude is real and positive."""
        for label in CANONICAL_LABELS:
            st = state_from_label(label)
            first = st.alpha if abs(st.alpha) > ATOL else st.beta
            assert first.imag == 0 and first.real > 0

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            StateLabel(Basis.Z, 2)


class TestApplyOp:
    """The unitaries act exactly as defined, phases included."""

    def test_bitflip_action_with_phases(self):
        # U|0> = -|1>, U|1> = |0>, U|+> = |->, U|-> = -|+>
        cases = {
            Z0: (0j, -1.0 + 0j),
            Z1: (1.0 + 0j, 0j),
            X0: (SQRT_HALF, -SQRT_HALF),
            X1: (-SQRT_HALF, -SQRT_HALF),
        }
        for label, (ea, eb) in cases.items():
            out = apply_op(OpLabel.U, state_from_label(label))
            assert out.alpha == pytest.approx(ea, abs=ATOL)
            assert out.beta == pytest.approx(eb, abs=ATOL)

    def test_hadamard_action(self):
        # H|0> = |+>, H|1> = |->, H|+> = |0>, H|-> = |1>
        expected = {Z0: X0, Z1: X1, X0: Z0, X1: Z1}
        for label, target in expected.items():
            out = apply_op(OpLabel.H, state_from_label(label))
            assert abs(overlap(out, state_from_label(target)) - 1.0) < ATOL

    def test_identity_on_arbitrary_state(self):
        psi = PhotonState(complex(0.6), complex(0.0, 0.8))
        assert apply_op(OpLabel.I, psi) == psi

    def test_matches_reference_matrices(self):
        for op in OpLabel:
            mat = unitary_matrix(op)
            for label in CANONICAL_LABELS:
                st = state_from_label(label)
                ref = mat @ np.array([st.alpha, st.beta])
                out = apply_op(op, st)
                assert abs(out.alpha - ref[0]) < ATOL
                assert abs(out.beta - ref[1]) < ATOL

    def test_matrices_are_unitary(self):
        for op in OpLabel:
            mat = unitary_matrix(op)
            assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=ATOL)


class TestSymbolicModel:
    def test_bitflip_flips_bit_preserves_basis(self):
        assert apply_op_symbolic(OpLabel.U, Z0) == Z1
        assert apply_op_symbolic(OpLabel.U, X1) == X0

    def test_hadamard_swaps_basis_preserves_bit(self):
        assert apply_op_symbolic(OpLabel.H, Z1) == X1
        assert apply_op_symbolic(OpLabel.H, X0) == Z0

    def test_identity(self):
        assert apply_op_symbolic(OpLabel.I, X0) == X0

    def test_compose_cancelling_flips(self):
        assert compose_effects([OpLabel.U, OpLabel.H, OpLabel.U]) == 2

    def test_compose_empty(self):
        assert compose_effects([]) == 0

    def test_compose_three_h_one_u(self):
        # Oracle: fold single-op applications over every starting label and
        # require the composed effect to predict the same endpoint.
        seq = [OpLabel.H, OpLabel.H, OpLabel.H, OpLabel.U]
        effect = compose_effects(seq)
        for start in CANONICAL_LABELS:
            folded = start
            for op in seq:
                folded = apply_op_symbolic(op, folded)
            assert CANONICAL_LABELS[start.code ^ effect] == folded
        assert effect == 3

    def test_composition_is_xor_of_parts(self):
        """The mask of a joined sequence is the XOR of its parts' masks,
        for every pair of sequences of length <= 3."""
        seqs = [seq for n in range(4) for seq in itertools.product(OpLabel, repeat=n)]
        for a, b in itertools.product(seqs, repeat=2):
            assert compose_effects(a + b) == compose_effects(a) ^ compose_effects(b)

    def test_frame_operations_return_interned_labels(self):
        """Every label a frame operation returns is one of the four
        ``CANONICAL_LABELS`` instances, even for a freshly built input."""
        rng = np.random.default_rng(0)
        flip_all = fabric.QuantumChannel(noise=fabric.NoiseModel.bit_flip(1.0))

        def interned(label):
            return any(label is canonical for canonical in CANONICAL_LABELS)

        def frame_codes(codes):
            """Sequence stages return uint8 frame codes, each naming one
            interned label through ``CANONICAL_LABELS``."""
            assert codes.dtype == np.uint8 and set(codes.tolist()) <= {0, 1, 2, 3}
            return [CANONICAL_LABELS[code] for code in codes.tolist()]

        for basis in Basis:
            for bit in (0, 1):
                fresh = StateLabel(basis, bit)
                assert not interned(fresh)
                assert fresh.code == CANONICAL_LABELS.index(fresh)
                for op in OpLabel:
                    assert interned(apply_op_symbolic(op, fresh))
                assert interned(CANONICAL_LABELS[fresh.code ^ compose_effects([OpLabel.U, OpLabel.H])])
                sent = np.full(32, fresh.code, dtype=np.uint8)
                tap = attacks.MeasureResendTap()
                resent = frame_codes(tap.relay(sent, rng))
                assert all(interned(label) for label in resent)
                assert resent == [StateLabel(BASES[b], o) for b, o in zip(tap.bases, tap.outcomes)]
                if basis is Basis.Z:
                    delivered, _arrived = fabric.transmit(flip_all, sent, rng)
                    assert frame_codes(delivered) == [StateLabel(basis, 1 - bit)] * 32


class TestExhaustiveEquivalence:
    """Amplitude and symbolic models agree for every operation sequence of
    length <= 6 from every starting state, up to a global phase."""

    def test_all_sequences(self):
        ops = list(OpLabel)
        checked = 0
        for start in CANONICAL_LABELS:
            for seq in itertools.product(ops, repeat=6):
                state = state_from_label(start)
                label = start
                for op in seq:
                    state = apply_op(op, state)
                    label = apply_op_symbolic(op, label)
                    assert abs(overlap(state, state_from_label(label)) - 1.0) < ATOL
                    assert abs(norm_sq(state) - 1.0) < ATOL
                assert CANONICAL_LABELS[start.code ^ compose_effects(seq)] == label
                checked += 1
        assert checked == 4 * 3**6

    def test_double_hadamard_is_identity(self):
        for label in CANONICAL_LABELS:
            st = state_from_label(label)
            out = apply_op(OpLabel.H, apply_op(OpLabel.H, st))
            assert abs(out.alpha - st.alpha) < ATOL
            assert abs(out.beta - st.beta) < ATOL

    def test_double_bitflip_is_minus_identity(self):
        for label in CANONICAL_LABELS:
            st = state_from_label(label)
            out = apply_op(OpLabel.U, apply_op(OpLabel.U, st))
            assert abs(out.alpha + st.alpha) < ATOL
            assert abs(out.beta + st.beta) < ATOL
            assert apply_op_symbolic(OpLabel.U, apply_op_symbolic(OpLabel.U, label)) == label

    def test_alphabet_closed_under_ops(self):
        for label in CANONICAL_LABELS:
            for op in OpLabel:
                assert is_canonical(apply_op(op, state_from_label(label)))


class GridSource:
    """Stand-in generator whose uniform draws sweep a fixed grid, so the
    outcome frequencies of a measurement are exact; it counts the draws."""

    def __init__(self, size: int):
        self._values = (np.arange(size) + 0.5) / size
        self.draws = 0

    def random(self, size: int) -> np.ndarray:
        self.draws += size
        return self._values[self.draws - size:self.draws]


def repeated(label, n):
    """n photons in the state ``label``, as frame codes."""
    return np.full(n, label.code, dtype=np.uint8)


def in_basis(basis, n):
    """n reads in ``basis``, as basis codes."""
    return np.full(n, BASES.index(basis), dtype=np.uint8)


class TestMeasurement:
    def test_eigenstates_deterministic(self):
        rng = np.random.default_rng(123)
        for label in CANONICAL_LABELS:
            outcomes = measure(repeated(label, 64), in_basis(label.basis, 64), rng)
            assert set(outcomes.tolist()) == {label.bit}

    def test_conjugate_basis_balanced(self):
        rng = np.random.default_rng(20240)
        n = 100_000
        zeros = np.count_nonzero(measure(repeated(X0, n), in_basis(Basis.Z, n), rng) == 0)
        assert abs(zeros / n - 0.5) < 0.01

    def test_flipped_plus_measures_minus(self):
        # U|+> = |->, so an X-basis measurement gives 1 with certainty.
        rng = np.random.default_rng(9)
        st = label_of(apply_op(OpLabel.U, state_from_label(X0)))
        assert measure(repeated(st, 64), in_basis(Basis.X, 64), rng).tolist() == [1] * 64

    def test_frame_rule_matches_born_rule(self):
        """For every (label, basis) pair the Born probability of reading
        the label's bit is 1, 0 or 1/2, and the frame measurement returns
        that bit, the other bit, or a fair coin accordingly, with one
        uniform draw per photon."""
        size = 1000
        for label in CANONICAL_LABELS:
            st = state_from_label(label)
            for basis in Basis:
                amp0 = st.alpha if basis is Basis.Z else SQRT_HALF * (st.alpha + st.beta)
                born0 = abs(amp0) ** 2
                born_bit = born0 if label.bit == 0 else 1.0 - born0
                assert min(abs(born_bit - p) for p in (1.0, 0.0, 0.5)) < ATOL
                source = GridSource(size)
                outcomes = measure(repeated(label, size), in_basis(basis, size), source).tolist()
                assert source.draws == size
                assert abs(outcomes.count(label.bit) / size - born_bit) < ATOL

    def test_each_basis_conjugate_of_other(self):
        assert Basis.Z.conjugate() is Basis.X
        assert Basis.X.conjugate() is Basis.Z


class TestUniformSampler:
    def test_labels_uniform(self):
        rng = np.random.default_rng(77)
        n = 100_000
        labels = [CANONICAL_LABELS[code] for code in random_codes(n, rng)]
        for target in CANONICAL_LABELS:
            freq = sum(1 for lbl in labels if lbl == target) / n
            assert abs(freq - 0.25) < 0.01

    def test_reproducible(self):
        a = random_codes(32, np.random.default_rng(5))
        b = random_codes(32, np.random.default_rng(5))
        assert a.tolist() == b.tolist()


class TestImportBoundary:
    def test_session_modules_bind_no_amplitude_model(self):
        """Sessions run on Pauli frames alone; the amplitude model is the
        oracle and stays out of every module on the session path."""
        amplitude = (PhotonState, state_from_label, apply_op)
        for module in (fabric, protocol, multiparty, attacks):
            bound = [
                name
                for name, value in vars(module).items()
                if any(value is obj for obj in amplitude)
            ]
            assert bound == [], f"{module.__name__} binds {bound}"
