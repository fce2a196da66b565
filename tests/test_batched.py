"""The batched sequence engine against per-photon references.

Sessions move whole frame-code arrays. The quantum legs follow stream v2:
each tap draws its bases, ``integers(0, 2, n)``, then its measurement
doubles, ``random(n)``, in registration order; then come the loss coins,
``random(n)``, the noise coins over the survivors, and for depolarizing
noise ``integers(0, 4)`` for the photons it hit. The references here draw
those batches from a twin generator and evolve each photon through the
amplitude oracle, a measurement reading its Born probability against its
pre-drawn double. The batched stages must deliver what the references
deliver and leave the generator in the same state, and every encoded or
controller-passed code must match the amplitude oracle, and the
announcement schedule must order each photon's controllers as one
``permutation`` per photon would. The last test
walks every output a run produces for numpy values, which would break
``json.dumps`` of reports and transcripts.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amplitude_oracle import label_of
from frame_codes import as_labels
from qsdcsim.attacks import ATTACK_REGISTRY, MeasureResendTap
from qsdcsim.fabric import (
    NoiseKind,
    NoiseModel,
    QuantumChannel,
    Transcript,
    transmit,
)
from qsdcsim.harness import ExperimentConfig, run_report, run_trial
from qsdcsim.multiparty import (
    AnnouncementSchedule,
    McSessionConfig,
    controller_pass,
    run_mc_session,
)
from qsdcsim.protocol import CheckSet, SessionOutcome, encode
from qsdcsim.quantum import (
    ATOL,
    BASES,
    CANONICAL_LABELS,
    OPS,
    SQRT_HALF,
    Basis,
    PhotonState,
    StateLabel,
    apply_op,
    measure,
    state_from_label,
)

code_lists = st.lists(st.integers(0, 3), max_size=48)
seeds = st.integers(0, 2**32 - 1)
probabilities = st.sampled_from([0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0)
noises = st.sampled_from(["none", "bit_flip", "depolarizing"])


def as_codes(values):
    return np.array(values, dtype=np.uint8)


def channel(n_taps, loss, noise, p):
    model = NoiseModel.none() if noise == "none" else NoiseModel(NoiseKind(noise), p)
    taps = [MeasureResendTap() for _ in range(n_taps)]
    return QuantumChannel(name="leg", noise=model, loss=loss, taps=taps)


def born_outcome(state: PhotonState, basis: Basis, r: float) -> int:
    """The outcome of measuring ``state`` in ``basis`` against the uniform
    double ``r``: 0 when r falls below the Born probability of reading 0.
    That probability is 0, 1/2 or 1 for a canonical state, so it is taken
    exactly (the amplitudes carry rounding of order 1e-16)."""
    amp0 = state.alpha if basis is Basis.Z else SQRT_HALF * (state.alpha + state.beta)
    born0 = abs(amp0) ** 2
    exact = round(2 * born0) / 2
    assert abs(born0 - exact) < ATOL
    return int(r >= exact)


def reference_transmit(n_taps, loss, noise, p, values, rng):
    """Stream v2 by hand: every batch drawn up front in the documented
    order, then each photon evolved as an amplitude vector. Returns the
    arrived positions, the labels delivered, and each tap's (bases,
    outcomes)."""
    states = [state_from_label(CANONICAL_LABELS[v]) for v in values]
    n = len(states)
    records = []
    for _tap in range(n_taps):
        bases = rng.integers(0, 2, size=n).tolist()
        doubles = rng.random(n).tolist()
        outcomes = [born_outcome(s, BASES[b], r) for s, b, r in zip(states, bases, doubles)]
        states = [state_from_label(StateLabel(BASES[b], o)) for b, o in zip(bases, outcomes)]
        records.append((bases, outcomes))
    arrived = list(range(n))
    if loss > 0.0:
        coins = rng.random(n).tolist()
        arrived = [i for i in arrived if coins[i] >= loss]
    states = [states[i] for i in arrived]
    if noise != "none" and p > 0.0:
        hits = [i for i, coin in enumerate(rng.random(len(states)).tolist()) if coin < p]
        if noise == "bit_flip":
            for i in hits:  # Pauli X: (alpha, beta) -> (beta, alpha)
                states[i] = PhotonState(states[i].beta, states[i].alpha)
        else:
            for i, code in zip(hits, rng.integers(0, 4, size=len(hits)).tolist()):
                states[i] = state_from_label(CANONICAL_LABELS[code])
    return arrived, [label_of(s) for s in states], records


@settings(max_examples=300, deadline=None)
@given(code_lists, st.integers(0, 2), probabilities, noises, probabilities, seeds)
def test_transmit_follows_stream_v2(values, n_taps, loss, noise, p, seed):
    chan = channel(n_taps, loss, noise, p)
    codes = as_codes(values)
    rng = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    got, arrived = transmit(chan, codes, rng)
    expected_arrived, expected_labels, records = reference_transmit(
        n_taps, loss, noise, p, values, twin
    )
    assert arrived.tolist() == expected_arrived
    assert as_labels(got) == expected_labels
    assert [(tap.bases.tolist(), tap.outcomes.tolist()) for tap in chan.taps] == records
    assert rng.bit_generator.state == twin.bit_generator.state
    assert codes.tolist() == values


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=48), seeds)
def test_measure_follows_born_rule_per_draw(pairs, seed):
    codes = as_codes([code for code, _basis in pairs])
    bases = as_codes([basis for _code, basis in pairs])
    rng = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    outcomes = measure(codes, bases, rng)
    doubles = twin.random(len(pairs)).tolist()
    expected = [
        born_outcome(state_from_label(CANONICAL_LABELS[c]), BASES[b], r)
        for (c, b), r in zip(pairs, doubles)
    ]
    assert outcomes.tolist() == expected
    assert rng.bit_generator.state == twin.bit_generator.state
    assert codes.tolist() == [code for code, _basis in pairs]


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


@pytest.mark.parametrize("n_check", [0, 1, 7, 127])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
def test_schedule_draw_matches_per_photon_permutations(n_check, m):
    """One ``permuted`` draw per round orders each photon's controllers as
    one ``permutation(m)`` per photon would, and draws exactly as much."""
    rng = np.random.default_rng(1000 * n_check + m)
    twin = np.random.default_rng(1000 * n_check + m)
    schedule = AnnouncementSchedule.draw(n_check, m, rng)
    h_orders = [twin.permutation(m).tolist() for _ in range(n_check)]
    iu_orders = [twin.permutation(m).tolist() for _ in range(n_check)]
    assert schedule.h_orders.shape == schedule.iu_orders.shape == (n_check, m)
    assert schedule.h_orders.tolist() == h_orders
    assert schedule.iu_orders.tolist() == iu_orders
    assert rng.bit_generator.state == twin.bit_generator.state


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
        outcome, attack = run_trial(config, config.seed, transcript)
        report = attack.report(outcome)
        names = [field.name for field in dataclasses.fields(report)]
        for session_output, fields in ((outcome, SessionOutcome.FIELDS), (report, names)):
            for name in fields:
                if name != "transcript":
                    leaks += numpy_leaks(getattr(session_output, name), name)
        leaks += numpy_leaks(transcript.events)
    config = McSessionConfig(n_photons=32, controllers=3, error_threshold=0.0, seed=5)
    withheld = run_mc_session(config, transcript=Transcript(), withheld_controller=1)
    leaks += numpy_leaks(withheld.decoded_bits) + numpy_leaks(withheld.transcript.events)
    assert leaks == []
