"""The batched sequence engine against the scalar photon path.

Sessions move whole frame-code arrays; ``fabric.transmit`` and
``quantum.measure`` remain the per-photon definitions. For random code
sequences and channels the batched stages must deliver what the scalar
loop delivers and leave the generator in the same state, and every
encoded or controller-passed code must match the amplitude oracle. The
last test walks every output a run produces for numpy values, which
would break ``json.dumps`` of reports and transcripts.
"""
import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amplitude_oracle import label_of
from frame_codes import as_labels
from qsdcsim.attacks import ATTACK_REGISTRY, MeasureResendTap
from qsdcsim.fabric import (
    LOST,
    ClassicalChannel,
    NoiseKind,
    NoiseModel,
    QuantumChannel,
    Transcript,
    transmit,
)
from qsdcsim.harness import ExperimentConfig, run_report, run_trial
from qsdcsim.multiparty import McSessionConfig, controller_pass, run_mc_session
from qsdcsim.protocol import CheckSet, encode, transmit_sequence
from qsdcsim.quantum import (
    BASES,
    CANONICAL_LABELS,
    OPS,
    apply_op,
    measure,
    measure_codes,
    state_from_label,
)

code_lists = st.lists(st.integers(0, 3), max_size=48)
seeds = st.integers(0, 2**32 - 1)
probabilities = st.sampled_from([0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0)
noises = st.sampled_from(["none", "bit_flip", "depolarizing"])


def as_codes(values):
    return np.array(values, dtype=np.uint8)


def channel(tapped, loss, noise, p):
    model = NoiseModel.none() if noise == "none" else NoiseModel(NoiseKind(noise), p)
    taps = [MeasureResendTap()] if tapped else []
    return QuantumChannel(name="leg", noise=model, loss=loss, taps=taps)


@settings(max_examples=300, deadline=None)
@given(code_lists, st.booleans(), probabilities, noises, probabilities, seeds)
def test_transmit_sequence_equals_scalar_transmit(values, tapped, loss, noise, p, seed):
    batched_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    got, arrived = transmit_sequence(
        channel(tapped, loss, noise, p), as_codes(values), batched_rng, ClassicalChannel(), "leg"
    )
    scalar = channel(tapped, loss, noise, p)
    delivered = [transmit(scalar, CANONICAL_LABELS[v], scalar_rng) for v in values]
    expected = [i for i, photon in enumerate(delivered) if photon is not LOST]
    assert arrived.tolist() == expected
    assert as_labels(got) == [delivered[i] for i in expected]
    assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=48), seeds)
def test_batched_measurement_equals_scalar_measure(pairs, seed):
    codes = as_codes([code for code, _basis in pairs])
    bases = as_codes([basis for _code, basis in pairs])
    batched_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    outcomes = measure_codes(codes, bases, batched_rng)
    expected = [measure(CANONICAL_LABELS[c], BASES[b], scalar_rng) for c, b in pairs]
    assert outcomes.tolist() == expected
    assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(st.data(), st.lists(st.integers(0, 3), min_size=1, max_size=48), seeds)
def test_encoding_matches_oracle_and_scalar_draws(data, values, seed):
    n = len(values)
    positions = data.draw(st.sets(st.integers(0, n - 1)))
    free = n - len(positions)
    message = data.draw(st.lists(st.integers(0, 1), min_size=free, max_size=free))
    check = CheckSet(tuple(positions)) if positions else None
    batched_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    out, ops = encode(as_codes(values), check, message, batched_rng)
    # Check ops are drawn one by one in ascending position order.
    drawn = [int(scalar_rng.integers(0, 2)) for _ in sorted(positions)]
    assert ops[sorted(positions)].tolist() == drawn
    assert ops[[i for i in range(n) if i not in positions]].tolist() == message
    assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
    for code, op, encoded in zip(values, ops, out):
        oracle = label_of(apply_op(OPS[op], state_from_label(CANONICAL_LABELS[code])))
        assert CANONICAL_LABELS[encoded] == oracle


@settings(max_examples=200, deadline=None)
@given(code_lists, seeds)
def test_controller_pass_matches_oracle_and_scalar_draws(values, seed):
    batched_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    out, ops = controller_pass(as_codes(values), batched_rng)
    assert ops.tolist() == [int(scalar_rng.integers(0, 3)) for _ in values]
    assert batched_rng.bit_generator.state == scalar_rng.bit_generator.state
    for code, op, passed in zip(values, ops, out):
        oracle = label_of(apply_op(OPS[op], state_from_label(CANONICAL_LABELS[code])))
        assert CANONICAL_LABELS[passed] == oracle


PLAIN = (int, float, str, bool, type(None))


def numpy_leaks(value, path="$"):
    """Paths of every value that is not a plain JSON type (exact types:
    ``np.float64`` subclasses ``float`` and would slip through)."""
    if type(value) is dict:
        leaks = [f"{path} key {key!r}" for key in value if type(key) is not str]
        for key, item in value.items():
            leaks += numpy_leaks(item, f"{path}.{key}")
        return leaks
    if type(value) is list:
        return [leak for i, item in enumerate(value) for leak in numpy_leaks(item, f"{path}[{i}]")]
    return [] if type(value) in PLAIN else [f"{path}: {type(value).__name__}"]


def output_configs():
    """Both protocols, every registry attack where it applies, plus lossy
    and noisy honest runs."""
    base = {"n_photons": 32, "check_count": 8, "error_threshold": 0.2, "seed": 4}
    for name, cls in ATTACK_REGISTRY.items():
        for protocol in cls.protocols:
            extra = {"controllers": 2} if protocol == "mcqsdc" else {}
            params = {}
            if name == "return_leg_tap":
                params = {"disclose_permutation": True, "disclose_initial_states": True}
            yield dict(base, protocol=protocol, attack={"name": name, "params": params}, **extra)
    for protocol, extra in (("qsdc", {}), ("mcqsdc", {"controllers": 3})):
        for noise in ({"kind": "bit_flip", "p": 0.1}, {"kind": "depolarizing", "p": 0.1}):
            yield dict(base, protocol=protocol, loss=0.1, noise=noise, **extra)


def test_no_numpy_value_reaches_an_output():
    leaks = []
    for raw in output_configs():
        config = ExperimentConfig.from_dict(raw)
        leaks += numpy_leaks(run_report(config))
        transcript = Transcript()
        outcome, report = run_trial(config, config.seed, transcript)
        for session_output in (outcome, report):
            for field in dataclasses.fields(session_output):
                if field.name != "transcript":
                    leaks += numpy_leaks(getattr(session_output, field.name), field.name)
        leaks += numpy_leaks(transcript.events)
    config = McSessionConfig(n_photons=32, controllers=3, error_threshold=0.0, seed=5)
    withheld = run_mc_session(config, transcript=Transcript(), withheld_controller=1)
    leaks += numpy_leaks(withheld.decoded_bits) + numpy_leaks(withheld.transcript.events)
    assert leaks == []
