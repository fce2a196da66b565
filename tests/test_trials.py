"""The trials axis: a batch of two-party sessions run as one.

``run_sessions`` runs T sessions as one flat frame-code sequence, each
session a row, with one draw per kind of random number for the whole
batch. A row must behave exactly like an independent session: honest
rows decode every bit that survives, attacked rows meet the closed forms,
and neighbouring rows are uncorrelated. A qsdc sweep point runs its
trials as consecutive batches of at most ``harness.BATCH_PHOTONS``
photons drawn from one generator.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcsim import harness
from qsdcsim.attacks import build_attack, intercept_resend_detection
from qsdcsim.errors import ConfigError, ProtocolError
from qsdcsim.fabric import ClassicalChannel, Transcript
from qsdcsim.harness import ExperimentConfig, aggregate_trials, run_point, three_sigma_band
from qsdcsim.protocol import SessionConfig, run_session, run_sessions


def batch(config, trials, seed, attack=None):
    return run_sessions(config, trials, np.random.default_rng(seed), attack)


def assert_decoded_positions_sound(out, exact):
    """Decoded bits sit on strictly increasing sent-message indices, one
    index per bit; ``exact`` also asks each bit to be the bit sent there."""
    positions, sent = out.decoded_positions, out.message_sent
    assert len(positions) == len(out.decoded_bits)
    assert all(0 <= k < len(sent) for k in positions)
    assert all(a < b for a, b in zip(positions, positions[1:]))
    if exact:
        assert out.decoded_bits == [sent[k] for k in positions]


@pytest.mark.parametrize("attack", ["none", "intercept_resend", "return_leg_tap"])
def test_batch_of_one_is_run_session(attack):
    for loss in (0.0, 0.2):
        config = SessionConfig(n_photons=40, loss=loss, error_threshold=0.3, seed=5)
        mine, theirs = build_attack(attack), build_attack(attack)
        (batched,) = run_sessions(config, 1, np.random.default_rng(5), mine)
        assert batched == run_session(config, attack=theirs)
        assert mine.report(batched, 0) == theirs.report(batched)


def test_honest_rows_decode_every_surviving_bit():
    config = SessionConfig(n_photons=50, check_count=8, error_threshold=0.0, loss=0.15)
    outcomes = batch(config, 300, 7)
    assert len(outcomes) == 300
    lost = 0
    for out in outcomes:
        assert not out.aborted and out.measured_error_rate == 0.0
        assert_decoded_positions_sound(out, exact=True)
        lost += len(out.message_sent) - len(out.decoded_bits)
    assert lost > 0
    # Rows carry their own messages, not copies of one another.
    assert len({tuple(out.message_sent) for out in outcomes}) == len(outcomes)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(4, 60),
    st.sampled_from([0.0, 0.1, 0.5]) | st.floats(0.0, 0.6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["none", "intercept_resend"]),
)
def test_decoded_positions_invariant_under_loss_in_batches(trials, n, loss, seed, attack):
    """The loss invariant of ``test_protocol`` for every row of a batch. A
    batch in which some row is starved by loss is a ``ProtocolError``."""
    config = SessionConfig(n_photons=n, loss=loss, error_threshold=1.0)
    try:
        outcomes = batch(config, trials, seed, build_attack(attack))
    except ProtocolError:
        return
    assert len(outcomes) == trials
    for out in outcomes:
        assert not out.aborted
        assert_decoded_positions_sound(out, exact=attack == "none")


def test_intercept_resend_rows_meet_closed_forms_independently():
    n_check, trials = 4, 4000
    config = SessionConfig(n_photons=n_check + 5, check_count=n_check, error_threshold=0.0)
    attack = build_attack("intercept_resend")
    outcomes = batch(config, trials, 11, attack)
    errors = np.array([round(out.measured_error_rate * out.n_check) for out in outcomes])
    assert all(out.n_check == n_check for out in outcomes)
    photons = trials * n_check
    assert abs(errors.sum() / photons - 0.25) < three_sigma_band(0.25, photons)
    detected = np.array([out.aborted for out in outcomes], dtype=float)
    p = intercept_resend_detection(n_check)
    assert abs(detected.mean() - p) < three_sigma_band(p, trials)
    # Neighbouring rows share draws of every kind, yet not their fate.
    band = 3 / np.sqrt(trials - 1)
    assert abs(np.corrcoef(detected[:-1], detected[1:])[0, 1]) < band
    assert abs(np.corrcoef(errors[:-1], errors[1:])[0, 1]) < band
    reports = [attack.report(out, row) for row, out in enumerate(outcomes)]
    assert all(report.metadata["n_tapped"] == n_check + 5 for report in reports)
    assert [report.detected for report in reports] == detected.astype(bool).tolist()


@pytest.mark.parametrize(
    "flags,expected",
    [
        ({}, 0.5),
        ({"disclose_permutation": True}, 0.5),
        ({"disclose_permutation": True, "disclose_initial_states": True}, 0.75),
    ],
)
def test_return_leg_tap_rows_meet_accuracy_bands(flags, expected):
    config = SessionConfig(n_photons=210, check_count=10, error_threshold=0.0, loss=0.1)
    attack = build_attack("return_leg_tap", flags)
    outcomes = batch(config, 60, 205, attack)
    hits = total = 0
    for row, out in enumerate(outcomes):
        report = attack.report(out, row)
        hits += round(report.message_guess_accuracy * report.metadata["n_guessed"])
        total += report.metadata["n_guessed"]
    assert abs(hits / total - expected) < three_sigma_band(expected, total)


def test_fixed_message_and_transcript_need_one_session():
    config = SessionConfig(n_photons=12, check_count=4)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        run_sessions(config, 2, rng, message=[0] * 8)
    with pytest.raises(ConfigError):
        run_sessions(config, 2, rng, public=ClassicalChannel(Transcript()))
    with pytest.raises(ConfigError):
        run_sessions(config, 0, rng)


def intercept_point(trials):
    return ExperimentConfig.from_dict(
        {
            "protocol": "qsdc",
            "n_photons": 33,
            "check_count": 4,
            "error_threshold": 0.0,
            "attack": {"name": "intercept_resend"},
            "trials": trials,
            "seed": 21,
        }
    )


def test_point_runs_consecutive_batches_from_one_generator():
    config = intercept_point(4100)
    per_batch = harness.BATCH_PHOTONS // config.n_photons
    sizes = [per_batch, per_batch, config.trials - 2 * per_batch]
    assert sizes[-1] > 0
    results = run_point(config, 99)
    assert run_point(config, 99) == results
    rng = np.random.default_rng(99)
    expected = []
    for size in sizes:
        attack = build_attack("intercept_resend")
        outcomes = run_sessions(config.session_config(99), size, rng, attack)
        expected += [(out, attack.report(out, row)) for row, out in enumerate(outcomes)]
    assert results == expected


def test_batches_of_a_point_keep_its_statistics(monkeypatch):
    config = intercept_point(4100)
    chunked = aggregate_trials(run_point(config, 7))
    monkeypatch.setattr(harness, "BATCH_PHOTONS", config.trials * config.n_photons)
    whole = aggregate_trials(run_point(config, 7))
    p = intercept_resend_detection(4)
    for stats in (chunked, whole):
        assert stats.trials == config.trials
        assert abs(stats.detection_freq - p) < three_sigma_band(p, config.trials)
        assert abs(stats.mean_error_rate - 0.25) < 3 * 0.22 / np.sqrt(config.trials)
    two_sample = np.sqrt(2) * three_sigma_band(p, config.trials)
    assert abs(chunked.detection_freq - whole.detection_freq) < two_sample


def test_one_row_per_batch_beyond_the_budget():
    config = ExperimentConfig.from_dict(
        {"protocol": "qsdc", "n_photons": harness.BATCH_PHOTONS + 8, "check_count": 8,
         "error_threshold": 0.0, "trials": 2, "seed": 3}
    )
    rng = np.random.default_rng(3)
    expected = [run_sessions(config.session_config(3), 1, rng)[0] for _ in range(2)]
    assert [out for out, _report in run_point(config, 3)] == expected
