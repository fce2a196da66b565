"""The trials axis: a batch of sessions run as one.

``run_sessions`` runs T sessions of either protocol as one flat
frame-code sequence, each session a row, with one draw per kind of random
number for the whole batch. A row must behave exactly like an independent
session: honest rows decode every bit that survives, attacked rows meet
the closed forms, and neighbouring rows are uncorrelated. A sweep point
runs its trials as consecutive batches of at most ``harness.BATCH_PHOTONS``
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

from qsdcsim import harness
from qsdcsim.attacks import (
    ATTACK_REGISTRY,
    Attack,
    build_attack,
    bypass_photon_pass_probability,
    collusion_photon_detection,
    intercept_resend_detection,
)
from qsdcsim.errors import ConfigError, ProtocolError
from qsdcsim.fabric import ClassicalChannel, NoiseModel, Transcript
from qsdcsim.harness import (
    ExperimentConfig,
    aggregate_trials,
    derive_seed,
    run_point,
    sweep_csv,
    three_sigma_band,
)
from qsdcsim.multiparty import McSessionConfig, run_mc_session
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
        mc_config = McSessionConfig(
            n_photons=40, loss=loss, error_threshold=0.3, controllers=2, seed=5
        )
        for session, run_one in ((config, run_session), (mc_config, run_mc_session)):
            mine, theirs = build_attack(attack), build_attack(attack)
            (batched,) = run_sessions(session, 1, np.random.default_rng(5), mine)
            single = run_one(session, attack=theirs)
            assert batched == single
            assert mine.report(batched) == theirs.report(single)


@pytest.mark.parametrize(
    "attack,params",
    [("collusion", {}), ("collusion", {"schedule_variant": "fixed_order"}),
     ("fake_sequence_bypass", {})],
)
def test_rerouted_batch_of_one_is_run_mc_session(attack, params):
    config = McSessionConfig(n_photons=40, check_count=8, error_threshold=0.2, controllers=3, seed=6)
    mine, theirs = build_attack(attack, params), build_attack(attack, params)
    (batched,) = run_sessions(config, 1, np.random.default_rng(6), mine)
    single = run_mc_session(config, attack=theirs)
    assert batched == single
    assert mine.report(batched) == theirs.report(single)


def own_metadata(attack, columns, row, n_photons):
    """The metadata a strategy adds to a row's report, beside its check
    count, as the strategy defines it."""
    if attack.name == "intercept_resend":
        return {"n_tapped": n_photons}
    if attack.name == "return_leg_tap":
        return {"n_guessed": int(columns.guessed[row]),
                "disclose_permutation": attack.disclose_permutation,
                "disclose_initial_states": attack.disclose_initial_states}
    if attack.name == "collusion":
        return {"schedule_variant": attack.schedule_variant}
    return {}


@pytest.mark.parametrize(
    "protocol,name",
    [(protocol, name) for name, cls in sorted(ATTACK_REGISTRY.items()) for protocol in cls.protocols],
)
def test_each_row_reports_on_itself(protocol, name):
    """``report(out)`` reads the row ``out`` was built from, in a batch
    whose rows abort or pass apart: its detection is that row's abort
    decision and its check error rate that row's measured rate."""
    common = dict(n_photons=9, check_count=4, error_threshold=0.0, noise=NoiseModel.bit_flip(0.1))
    config = (McSessionConfig(controllers=3, **common) if protocol == "mcqsdc"
              else SessionConfig(**common))
    attack = build_attack(name)
    outcomes = batch(config, 40, 3, attack)
    columns = attack.columns(outcomes)
    assert 0 < np.count_nonzero(outcomes.aborted) < len(outcomes)
    for out in outcomes:
        report = attack.report(out)
        assert report == columns.row(out.row, **own_metadata(attack, columns, out.row, 9))
        assert report.detected == out.aborted
        assert report.check_error_rate == out.measured_error_rate


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
    reports = [attack.report(out) for out in outcomes]
    assert all(report.metadata["n_tapped"] == n_check + 5 for report in reports)
    assert [report.detected for report in reports] == detected.astype(bool).tolist()


@pytest.mark.parametrize(
    "attack,m,p",
    [("collusion", 2, collusion_photon_detection(2)),
     ("collusion", 3, collusion_photon_detection(3)),
     ("fake_sequence_bypass", 2, 1.0 - bypass_photon_pass_probability())],
)
def test_controlled_rows_meet_closed_forms_independently(attack, m, p):
    """Each row of a rerouted batch errs per check photon at the closed
    form, and its session detection is the binomial tail of that."""
    n_check, trials = 8, 1500
    config = McSessionConfig(
        n_photons=n_check + 4, check_count=n_check, error_threshold=0.0, controllers=m
    )
    outcomes = batch(config, trials, 12 + m, build_attack(attack))
    assert all(out.n_check == n_check for out in outcomes)
    errors = np.array([round(out.measured_error_rate * out.n_check) for out in outcomes])
    photons = trials * n_check
    assert abs(errors.sum() / photons - p) < three_sigma_band(p, photons)
    # A row's error count is binomial: its variance tells rows that share
    # their fate apart from independent ones.
    spread = n_check * p * (1 - p)
    assert abs(errors.var() - spread) < 0.15 * spread
    detected = np.array([out.aborted for out in outcomes], dtype=float)
    p_row = 1.0 - (1.0 - p) ** n_check
    assert abs(detected.mean() - p_row) < three_sigma_band(p_row, trials)
    assert abs(np.corrcoef(errors[:-1], errors[1:])[0, 1]) < 3 / np.sqrt(trials - 1)


def test_fixed_order_collusion_rows_pass_and_read_everything():
    config = McSessionConfig(n_photons=24, check_count=8, error_threshold=0.0, controllers=3)
    attack = build_attack("collusion", {"schedule_variant": "fixed_order"})
    outcomes = batch(config, 200, 15, attack)
    assert not outcomes.aborted.any() and not outcomes.error_rate.any()
    assert all(attack.report(out).message_guess_accuracy == 1.0 for out in outcomes)


def test_withheld_controller_is_checked_and_served_by_the_engine():
    config = McSessionConfig(n_photons=40, check_count=8, error_threshold=0.0, controllers=3)
    for withheld in (-1, 3):
        with pytest.raises(ConfigError, match="out of range"):
            run_sessions(config, 1, np.random.default_rng(0), withheld_controller=withheld)
    with pytest.raises(ConfigError, match="out of range"):
        run_sessions(SessionConfig(n_photons=40), 1, np.random.default_rng(0),
                     withheld_controller=0)
    # A batch decoded without one release reads its bits at coin-flip accuracy.
    outcomes = run_sessions(config, 100, np.random.default_rng(1), withheld_controller=1)
    hits, bits = outcomes.decode_hits.sum(), outcomes.decode_bits.sum()
    assert bits == 100 * 32 and abs(hits / bits - 0.5) < three_sigma_band(0.5, bits)


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
    for out in outcomes:
        report = attack.report(out)
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
    per_batch = harness.BATCH_PHOTONS // config.session.n_photons
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
        expected.append(attack.columns(outcome))
    assert aggregate_trials(expected) == stats


def test_batches_of_a_point_keep_its_statistics(monkeypatch):
    config = intercept_point(4100)
    chunked = run_point(config, 7)
    monkeypatch.setattr(harness, "BATCH_PHOTONS", config.trials * config.session.n_photons)
    whole = run_point(config, 7)
    p = intercept_resend_detection(4)
    for stats in (chunked, whole):
        assert stats.trials == config.trials
        assert abs(stats.detection_freq - p) < three_sigma_band(p, config.trials)
        assert abs(stats.mean_error_rate - 0.25) < 3 * 0.22 / np.sqrt(config.trials)
    two_sample = np.sqrt(2) * three_sigma_band(p, config.trials)
    assert abs(chunked.detection_freq - whole.detection_freq) < two_sample


def test_controlled_sweep_points_run_as_batches(monkeypatch):
    """An mcqsdc sweep point draws its trials from ``derive_seed(seed,
    point)`` in batches, as a qsdc point does."""
    config = ExperimentConfig.from_dict(
        {"protocol": "mcqsdc", "n_photons": 64, "check_count": 16, "error_threshold": 0.0,
         "attack": {"name": "collusion"}, "trials": 300, "seed": 17,
         "sweep": {"controllers": [2, 3]}}
    )
    seen = record_batches(monkeypatch)
    rows = sweep_csv(config).splitlines()[1:]
    assert [len(outcome) for outcome in seen] == [300, 300]
    for index, (row, m) in enumerate(zip(rows, (2, 3))):
        point = ExperimentConfig.from_dict(dict(config.to_dict(), controllers=m, sweep={}))
        stats = run_point(point, derive_seed(17, index))
        assert row.split(",")[2] == format(stats.detection_freq, ".6g")


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
    _shuffled, mapping = rearrange(np.zeros(sizes.sum(), dtype=np.uint8), rng, sizes)
    orders = Counter(
        tuple(row.tolist()) for row in rows_of(mapping, sizes) if len(row) == 3
    )
    assert sorted(orders) == sorted(itertools.permutations(range(3)))
    assert chi_square(orders.values()) < CHI2_999[5]


def test_stream_v3_check_subsets_are_uniform_in_ragged_batches():
    rng = np.random.default_rng(32)
    n = ragged_sizes(rng, 30_000, 7, 0.3)
    k = np.where(n == 5, 2, n // 2)
    assert len(set(n.tolist())) > 2 and (n == 5).sum() > 3000
    is_check = select_check_positions(n, k, rng)
    # The mask is flat over the rows of n photons: read each row's own.
    subsets = Counter(
        tuple(np.flatnonzero(is_check[lo:lo + m]).tolist())
        for lo, m in zip(np.cumsum(n) - n, n) if m == 5
    )
    assert sorted(subsets) == sorted(itertools.combinations(range(5), 2))
    assert chi_square(subsets.values()) < CHI2_999[9]


class SecretsSpy(Attack):
    """Keeps the encoder's turn of every batch it serves."""

    def receive_secrets(self, turn, labels):
        self.turn = turn


#: (n_photons, check_count, loss, trials, seed, lengths, completes):
#: batches whose rows all keep two photons or more, down to rows of two,
#: with at least ``lengths`` distinct row lengths. A batch that does not
#: complete loses every check photon of some row on the return leg, after
#: the encoder's turn was handed over.
LOSSY_TURNS = [
    (40, None, 0.2, 300, 33, 6, True),
    (40, None, 0.2, 1, 36, 1, True),
    (16, None, 0.3, 64, 33, 6, True),
    (4, 1, 0.1, 40, 34, 3, False),
    (3, 1, 0.05, 100, 35, 2, False),
]


def test_stream_v3_draws_stay_inside_each_lossy_row():
    """Each row of the encoder's turn shuffles and checks only its own
    photons: its ``mapping`` is a permutation of its own range, and its
    ``is_check`` marks exactly ``check_size(n_r)`` of its positions. The
    turn hands a strategy both read-only."""
    smallest = []
    for n_photons, check_count, loss, trials, seed, lengths, completes in LOSSY_TURNS:
        config = SessionConfig(n_photons=n_photons, check_count=check_count, loss=loss,
                               error_threshold=1.0)
        spy = SecretsSpy()
        if completes:
            outcome = run_sessions(config, trials, np.random.default_rng(seed), spy)
        else:
            with pytest.raises(ProtocolError, match="return transmission"):
                run_sessions(config, trials, np.random.default_rng(seed), spy)
        turn = spy.turn
        n = np.diff(turn.starts)
        assert len(set(n.tolist())) >= lengths
        smallest.append(n.min())
        expected_sizes = config.check_size(n)
        assert len(turn.is_check) == len(turn.mapping) == turn.starts[-1]
        for lo, hi, k in zip(turn.starts[:-1], turn.starts[1:], expected_sizes):
            assert sorted(turn.mapping[lo:hi].tolist()) == list(range(lo, hi))
            assert np.count_nonzero(turn.is_check[lo:hi]) == k
        for secret in (turn.is_check, turn.mapping):
            with pytest.raises(ValueError):
                secret[0] = secret[-1]
        if completes:
            assert [len(out.message_sent) for out in outcome] == (n - expected_sizes).tolist()
    assert min(smallest) == 2


def test_stream_v3_one_row_is_todays_draw():
    """One row shuffles as ``permutation(n)`` does, and equal rows as one
    ``permutation(n)`` each, row after row; the check set of one row is
    the first entries of a permutation."""
    _out, mapping = rearrange(np.zeros(12, dtype=np.uint8), np.random.default_rng(4))
    assert mapping.tolist() == np.random.default_rng(4).permutation(12).tolist()
    sizes = np.array([6, 6, 6])
    _out, mapping = rearrange(np.zeros(18, dtype=np.uint8), np.random.default_rng(5), sizes)
    reference = np.random.default_rng(5)
    expected = [reference.permutation(6) + 6 * r for r in range(3)]
    assert mapping.tolist() == np.concatenate(expected).tolist()
    is_check = select_check_positions(12, 5, np.random.default_rng(6))
    first = np.random.default_rng(6).permutation(12)[:5]
    assert np.flatnonzero(is_check).tolist() == sorted(first.tolist())


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
