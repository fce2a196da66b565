"""The trials axis: a batch of two-party sessions run as one.

``run_sessions`` runs T sessions as one flat frame-code sequence, each
session a row, with one draw per kind of random number for the whole
batch. A row must behave exactly like an independent session: honest
rows decode every bit that survives, attacked rows meet the closed forms,
and neighbouring rows are uncorrelated. A qsdc sweep point runs its
trials as consecutive batches of at most ``harness.BATCH_PHOTONS``
photons drawn from one generator, and folds each batch as it finishes.
"""
import itertools
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsdcsim import harness, protocol
from qsdcsim.attacks import Attack, build_attack, intercept_resend_detection
from qsdcsim.errors import ConfigError, ProtocolError
from qsdcsim.fabric import ClassicalChannel, Transcript
from qsdcsim.harness import ExperimentConfig, aggregate_trials, run_point, three_sigma_band
from qsdcsim.protocol import (
    SessionConfig,
    rearrange,
    run_session,
    run_sessions,
    select_check_positions,
)


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


def record_batches(monkeypatch):
    """Make ``run_point`` hand every batch it runs to the returned list."""
    seen = []

    def recording(*args):
        seen.append(run_sessions(*args))
        return seen[-1]

    monkeypatch.setattr(harness, "run_sessions", recording)
    return seen


def test_point_runs_consecutive_batches_from_one_generator(monkeypatch):
    config = intercept_point(4100)
    per_batch = harness.BATCH_PHOTONS // config.n_photons
    sizes = [per_batch, per_batch, config.trials - 2 * per_batch]
    assert sizes[-1] > 0
    seen = record_batches(monkeypatch)
    stats = run_point(config, 99)
    assert run_point(config, 99) == stats
    assert [len(outcome) for outcome in seen] == sizes * 2
    rng = np.random.default_rng(99)
    expected = []
    for size, ran in zip(sizes, seen):
        attack = build_attack("intercept_resend")
        outcome = run_sessions(config.session_config(99), size, rng, attack)
        assert list(outcome) == list(ran)
        expected.append((outcome, attack.columns(outcome)))
    assert aggregate_trials(expected) == stats


def test_batches_of_a_point_keep_its_statistics(monkeypatch):
    config = intercept_point(4100)
    chunked = run_point(config, 7)
    monkeypatch.setattr(harness, "BATCH_PHOTONS", config.trials * config.n_photons)
    whole = run_point(config, 7)
    p = intercept_resend_detection(4)
    for stats in (chunked, whole):
        assert stats.trials == config.trials
        assert abs(stats.detection_freq - p) < three_sigma_band(p, config.trials)
        assert abs(stats.mean_error_rate - 0.25) < 3 * 0.22 / np.sqrt(config.trials)
    two_sample = np.sqrt(2) * three_sigma_band(p, config.trials)
    assert abs(chunked.detection_freq - whole.detection_freq) < two_sample


def test_one_row_per_batch_beyond_the_budget(monkeypatch):
    config = ExperimentConfig.from_dict(
        {"protocol": "qsdc", "n_photons": harness.BATCH_PHOTONS + 8, "check_count": 8,
         "error_threshold": 0.0, "trials": 2, "seed": 3}
    )
    seen = record_batches(monkeypatch)
    stats = run_point(config, 3)
    rng = np.random.default_rng(3)
    expected = [run_sessions(config.session_config(3), 1, rng)[0] for _ in range(2)]
    assert [len(outcome) for outcome in seen] == [1, 1]
    assert [outcome[0] for outcome in seen] == expected
    assert stats.trials == 2 and stats.detection_freq == 0.0 and stats.accuracy == 1.0


# Stream v3: a batch's check sets and shuffles are one ``permuted`` draw
# each, over the widest row; a row keeps its entries below its own size.

#: 0.999 quantiles of the chi-square distribution by degrees of freedom.
CHI2_999 = {5: 20.515, 9: 27.877}


def chi_square(counts):
    counts = np.asarray(list(counts), dtype=float)
    expected = counts.sum() / len(counts)
    return float(((counts - expected) ** 2 / expected).sum())


def ragged_sizes(rng, rows, n, loss):
    """Row lengths as loss leaves them: each of n photons survives with
    probability 1 - loss, and a row keeps at least two."""
    return np.maximum(rng.binomial(n, 1.0 - loss, size=rows), 2)


def rows_of(flat, sizes):
    """Split a flat batch array into its rows, each shifted to start at 0."""
    firsts = np.cumsum(sizes) - sizes
    return [flat[lo:lo + n] - lo for lo, n in zip(firsts, sizes)]


def test_stream_v3_shuffles_of_three_are_uniform_in_ragged_batches():
    rng = np.random.default_rng(31)
    sizes = ragged_sizes(rng, 30_000, 5, 0.35)
    assert len(set(sizes.tolist())) > 2 and (sizes == 3).sum() > 3000
    _shuffled, perm = rearrange(np.zeros(sizes.sum(), dtype=np.uint8), rng, sizes)
    orders = Counter(
        tuple(row.tolist()) for row in rows_of(perm.mapping, sizes) if len(row) == 3
    )
    assert sorted(orders) == sorted(itertools.permutations(range(3)))
    assert chi_square(orders.values()) < CHI2_999[5]


def test_stream_v3_check_subsets_are_uniform_in_ragged_batches():
    rng = np.random.default_rng(32)
    n = ragged_sizes(rng, 30_000, 7, 0.3)
    k = np.where(n == 5, 2, n // 2)
    assert len(set(n.tolist())) > 2 and (n == 5).sum() > 3000
    check = select_check_positions(n, k, rng)
    # Positions are flat over the rows of n photons: rebase each onto its row.
    local = check.positions - (np.cumsum(n) - n).repeat(k)
    subsets = Counter(
        tuple(local[lo:lo + 2].tolist()) for lo, m in zip(np.cumsum(k) - k, n) if m == 5
    )
    assert sorted(subsets) == sorted(itertools.combinations(range(5), 2))
    assert chi_square(subsets.values()) < CHI2_999[9]


class SecretsSpy(Attack):
    """Keeps the encoder's turn of every batch it serves."""

    def receive_secrets(self, turn, labels):
        self.turn = turn


def test_stream_v3_draws_stay_inside_each_lossy_row():
    config = SessionConfig(n_photons=40, loss=0.2, error_threshold=1.0)
    spy = SecretsSpy()
    outcome = run_sessions(config, 300, np.random.default_rng(33), spy)
    turn = spy.turn
    n = np.diff(turn.starts)
    assert len(set(n.tolist())) > 5
    expected_sizes = config.check_size(n)
    check_row = protocol.row_of(turn.starts, turn.check.positions)
    assert np.bincount(check_row, minlength=len(n)).tolist() == expected_sizes.tolist()
    for lo, hi in zip(turn.starts[:-1], turn.starts[1:]):
        assert sorted(turn.perm.mapping[lo:hi].tolist()) == list(range(lo, hi))
    assert all(len(out.message_sent) == m - k for out, m, k in zip(outcome, n, expected_sizes))


def test_stream_v3_one_row_is_todays_draw():
    """One row shuffles as ``permutation(n)`` does, and equal rows as one
    ``permutation(n)`` each, row after row; the check set of one row is
    the first entries of a permutation, sorted."""
    _out, perm = rearrange(np.zeros(12, dtype=np.uint8), np.random.default_rng(4))
    assert perm.mapping.tolist() == np.random.default_rng(4).permutation(12).tolist()
    sizes = np.array([6, 6, 6])
    _out, perm = rearrange(np.zeros(18, dtype=np.uint8), np.random.default_rng(5), sizes)
    reference = np.random.default_rng(5)
    expected = [reference.permutation(6) + 6 * r for r in range(3)]
    assert perm.mapping.tolist() == np.concatenate(expected).tolist()
    check = select_check_positions(12, 5, np.random.default_rng(6))
    first = np.random.default_rng(6).permutation(12)[:5]
    assert check.positions.tolist() == sorted(first.tolist())


MEMORY_PROBE = """
import resource
from qsdcsim.harness import ExperimentConfig, sweep_csv

def point(trials):
    return ExperimentConfig.from_dict({
        "protocol": "qsdc", "n_photons": 33, "error_threshold": 0.0, "trials": trials,
        "attack": {"name": "intercept_resend"}, "seed": 8, "sweep": {"check_count": [4]},
    })

sweep_csv(point(2000))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sweep_csv(point(100_000))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_point_of_a_hundred_thousand_trials_runs_in_bounded_memory():
    """A point folds each batch as it finishes and keeps only one error
    rate and one accuracy per trial. Keeping every trial's outcome and
    report instead grew the peak by about 99 MB at 10^5 trials."""
    probe = subprocess.run(
        [sys.executable, "-c", MEMORY_PROBE], capture_output=True, text=True, check=True
    )
    growth_mb = float(probe.stdout)
    assert growth_mb < 25.0
