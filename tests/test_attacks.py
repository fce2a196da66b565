"""Adversary strategies: enumeration oracles for the per-photon rates,
Monte Carlo agreement, and the detection/leak metrics."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

from qsdcsim.attacks import (
    CollusionAttack,
    FakeSequenceBypass,
    InterceptResend,
    MeasureResendTap,
    PassiveNone,
    ReturnLegTap,
    build_attack,
    bypass_photon_pass_probability,
    collusion_photon_detection,
    intercept_resend_detection,
)
from qsdcsim.errors import ConfigError
from qsdcsim.fabric import NoiseModel
from qsdcsim.harness import derive_seed, three_sigma_band
from qsdcsim.multiparty import McSessionConfig, run_mc_session
from qsdcsim.protocol import SessionConfig, run_session
from qsdcsim.quantum import (
    CANONICAL_LABELS,
    Basis,
    OpLabel,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def collect_check_stats(outcomes):
    errors = sum(round(o.measured_error_rate * o.n_check) for o in outcomes)
    photons = sum(o.n_check for o in outcomes)
    return errors, photons


class TestInterceptResendOracle:
    """Exact enumeration of one intercepted check photon.

    Branch probabilities follow from the conjugate-basis rule alone: a
    measurement in the preparation basis is deterministic, in the other
    basis both outcomes have probability 1/2.
    """

    def photon_error_probability(self) -> Fraction:
        error = Fraction(0)
        for initial in CANONICAL_LABELS:
            p_initial = Fraction(1, 4)
            for eve_basis in (Basis.Z, Basis.X):
                p_branch = p_initial * Fraction(1, 2)
                if eve_basis is initial.basis:
                    # Nondisturbing: the resent state equals the prepared
                    # one, so the matched-basis check cannot err.
                    continue
                # Eve's outcome is uniform; the resent eigenstate lives in
                # the wrong basis, so the check measurement is uniform too
                # and errs with probability 1/2 in every sub-branch.
                for _eve_outcome in (0, 1):
                    error += p_branch * Fraction(1, 2) * Fraction(1, 2)
        return error

    def test_enumeration_gives_one_quarter(self):
        assert self.photon_error_probability() == Fraction(1, 4)

    def test_monte_carlo_matches_oracle(self):
        errors, photons = 0, 0
        for t in range(500):
            config = SessionConfig(
                n_photons=21, check_count=20, error_threshold=0.0, seed=derive_seed(100, t)
            )
            out = run_session(config, attack=InterceptResend())
            e, n = collect_check_stats([out])
            errors += e
            photons += n
        rate = errors / photons
        assert abs(rate - 0.25) < three_sigma_band(0.25, photons)

    def test_detection_frequency_matches_closed_form(self):
        for n_check, trials in ((2, 800), (8, 800)):
            detected = 0
            for t in range(trials):
                config = SessionConfig(
                    n_photons=n_check + 1,
                    check_count=n_check,
                    error_threshold=0.0,
                    seed=derive_seed(101, n_check, t),
                )
                out = run_session(config, attack=InterceptResend())
                detected += out.aborted
            p = intercept_resend_detection(n_check)
            assert abs(detected / trials - p) < three_sigma_band(p, trials)

    def test_matched_basis_is_nondisturbing(self):
        """Where the tap's basis matches the preparation basis it reads the
        bit and resends the photon unchanged."""
        for label in CANONICAL_LABELS:
            tap = MeasureResendTap()
            sent = np.full(64, label.code, dtype=np.uint8)
            resent = tap.relay(sent, rng(5))
            matched = tap.bases == label.code >> 1
            assert 0 < np.count_nonzero(matched) < 64
            assert tap.outcomes[matched].tolist() == [label.bit] * np.count_nonzero(matched)
            assert resent[matched].tolist() == [label.code] * np.count_nonzero(matched)

    def test_monotone_detection_in_check_size(self):
        freqs = []
        for n_check in (1, 2, 4, 8, 16):
            detected = 0
            trials = 600
            for t in range(trials):
                config = SessionConfig(
                    n_photons=n_check + 1,
                    check_count=n_check,
                    error_threshold=0.0,
                    seed=derive_seed(102, n_check, t),
                )
                detected += run_session(config, attack=InterceptResend()).aborted
            freqs.append(detected / trials)
        assert freqs == sorted(freqs)


class TestReturnLegTap:
    def full_disclosure_accuracy_oracle(self) -> Fraction:
        """Eve knows the initial state and the position of each message
        bit. Matching basis (probability 1/2) reveals the encoded bit
        exactly; otherwise her outcome is a coin."""
        acc = Fraction(0)
        for match in (True, False):
            p = Fraction(1, 2)
            acc += p * (Fraction(1) if match else Fraction(1, 2))
        return acc

    def run_tap_accuracy(self, disclose_perm, disclose_labels, trials=50, seed_base=200):
        hits, total = 0, 0
        for t in range(trials):
            config = SessionConfig(
                n_photons=210,
                check_count=10,
                error_threshold=0.0,
                seed=derive_seed(seed_base, t),
            )
            attack = ReturnLegTap(
                disclose_permutation=disclose_perm, disclose_initial_states=disclose_labels
            )
            out = run_session(config, attack=attack)
            report = attack.report(out)
            hits += round(report.message_guess_accuracy * report.metadata["n_guessed"])
            total += report.metadata["n_guessed"]
        return hits / total, total

    def test_enumeration_gives_three_quarters(self):
        assert self.full_disclosure_accuracy_oracle() == Fraction(3, 4)

    def test_blind_guess_is_coin_flip(self):
        acc, n = self.run_tap_accuracy(False, False, seed_base=201)
        assert abs(acc - 0.5) < three_sigma_band(0.5, n)

    def test_permutation_alone_does_not_help(self):
        acc, n = self.run_tap_accuracy(True, False, seed_base=202)
        assert abs(acc - 0.5) < three_sigma_band(0.5, n)

    def test_both_secrets_reach_three_quarters(self):
        acc, n = self.run_tap_accuracy(True, True, seed_base=203)
        assert abs(acc - 0.75) < three_sigma_band(0.75, n)

    def test_mcqsdc_without_controllers_reaches_three_quarters(self):
        """The controlled session hands the disclosed secrets over too; with
        no controllers its physics is the two-party one."""
        hits, total = 0, 0
        for t in range(40):
            config = McSessionConfig(
                n_photons=210,
                check_count=40,
                error_threshold=1.0,
                controllers=0,
                seed=derive_seed(204, t),
            )
            attack = ReturnLegTap(disclose_permutation=True, disclose_initial_states=True)
            report = attack.report(run_mc_session(config, attack=attack))
            hits += round(report.message_guess_accuracy * report.metadata["n_guessed"])
            total += report.metadata["n_guessed"]
        assert abs(hits / total - 0.75) < three_sigma_band(0.75, total)

    def test_disturbance_raises_check_errors(self):
        config = SessionConfig(n_photons=80, check_count=40, error_threshold=0.0, seed=9)
        attack = ReturnLegTap()
        out = run_session(config, attack=attack)
        assert out.measured_error_rate > 0.1

    def test_labels_without_permutation_rejected(self):
        with pytest.raises(ConfigError):
            ReturnLegTap(disclose_permutation=False, disclose_initial_states=True)


class TestBypass:
    def pass_probability_oracle(self, m: int) -> Fraction:
        """The corrupt sender knows everything except the controllers' net
        flip parity over the decoys and guesses it with a coin; the coin
        is independent of the parity, so every op tuple passes with 1/2."""
        total = Fraction(0)
        for ops in itertools.product((OpLabel.I, OpLabel.U, OpLabel.H), repeat=m):
            p_ops = Fraction(1, 3) ** m
            parity = sum(1 for op in ops if op is OpLabel.U) % 2
            for coin in (0, 1):
                if coin == parity:
                    total += p_ops * Fraction(1, 2)
        return total

    def test_enumeration_gives_one_half(self):
        for m in (1, 2, 3):
            assert self.pass_probability_oracle(m) == Fraction(1, 2)
        assert bypass_photon_pass_probability() == 0.5

    def test_per_photon_pass_rate(self):
        passes, photons = 0, 0
        for t in range(400):
            config = McSessionConfig(
                n_photons=33,
                check_count=32,
                error_threshold=0.0,
                controllers=2,
                seed=derive_seed(300, t),
            )
            out = run_mc_session(config, attack=FakeSequenceBypass())
            errors = round(out.measured_error_rate * out.n_check)
            passes += out.n_check - errors
            photons += out.n_check
        assert abs(passes / photons - 0.5) < three_sigma_band(0.5, photons)

    def test_detection_at_sixteen_check_photons(self):
        detected = 0
        trials = 300
        for t in range(trials):
            config = McSessionConfig(
                n_photons=17,
                check_count=16,
                error_threshold=0.0,
                controllers=2,
                seed=derive_seed(301, t),
            )
            detected += run_mc_session(config, attack=FakeSequenceBypass()).aborted
        assert detected / trials > 0.99

    def test_no_controllers_degenerates_to_honest(self):
        for t in range(25):
            config = McSessionConfig(
                n_photons=24, check_count=8, error_threshold=0.0, controllers=0,
                seed=derive_seed(302, t),
            )
            attack = FakeSequenceBypass()
            out = run_mc_session(config, attack=attack)
            assert not out.aborted
            assert out.measured_error_rate == 0.0
            assert attack.report(out).message_guess_accuracy == 1.0

    def test_full_recovery_when_undetected(self):
        found = 0
        for t in range(200):
            config = McSessionConfig(
                n_photons=34,
                check_count=2,
                error_threshold=0.0,
                controllers=1,
                seed=derive_seed(303, t),
            )
            attack = FakeSequenceBypass()
            out = run_mc_session(config, attack=attack)
            if not out.aborted:
                found += 1
                assert attack.report(out).message_guess_accuracy == 1.0
        assert found > 10  # pass probability 1/4 per session at 2 check photons

    def test_lossy_channels_rejected(self):
        config = McSessionConfig(n_photons=16, controllers=1, loss=0.1, seed=0)
        with pytest.raises(ConfigError):
            run_mc_session(config, attack=FakeSequenceBypass())


class TestCollusion:
    def detection_oracle(self, m: int) -> Fraction:
        """Enumerate the colluder's slot in the flip round (uniform) and
        his coin against the unheard honest parity."""
        detect = Fraction(0)
        for slot in range(m):  # position of the colluder in the flip order
            p_slot = Fraction(1, m)
            if slot == m - 1:
                continue  # speaks last: cancels exactly, never detected
            unheard = m - 1 - slot  # honest controllers still to speak
            for ops in itertools.product((OpLabel.I, OpLabel.U, OpLabel.H), repeat=unheard):
                p_ops = Fraction(1, 3) ** unheard
                parity = sum(1 for op in ops if op is OpLabel.U) % 2
                for coin in (0, 1):
                    if coin != parity:
                        detect += p_slot * p_ops * Fraction(1, 2)
        return detect

    def test_enumeration_matches_closed_form(self):
        for m in (2, 3, 5):
            assert self.detection_oracle(m) == Fraction(m - 1, 2 * m)
            assert collusion_photon_detection(m) == pytest.approx((1 - 1 / m) / 2)

    def test_fixed_order_never_detected_full_recovery(self):
        for t in range(150):
            config = McSessionConfig(
                n_photons=48,
                check_count=16,
                error_threshold=0.0,
                controllers=3,
                seed=derive_seed(400, t),
            )
            attack = CollusionAttack(schedule_variant="fixed_order")
            out = run_mc_session(config, attack=attack)
            report = attack.report(out)
            assert not report.detected
            assert out.measured_error_rate == 0.0
            assert report.message_guess_accuracy == 1.0

    def test_random_order_photon_detection(self):
        for m in (2, 3):
            errors, photons = 0, 0
            for t in range(120):
                config = McSessionConfig(
                    n_photons=70,
                    check_count=64,
                    error_threshold=0.0,
                    controllers=m,
                    seed=derive_seed(401, m, t),
                )
                out = run_mc_session(config, attack=CollusionAttack())
                errors += round(out.measured_error_rate * out.n_check)
                photons += out.n_check
            p = collusion_photon_detection(m)
            assert abs(errors / photons - p) < three_sigma_band(p, photons)

    def test_session_detection_at_32_check_photons(self):
        # per-photon pass 3/4 at m=2, so detection is 1 - (3/4)^32
        detected = 0
        trials = 400
        for t in range(trials):
            config = McSessionConfig(
                n_photons=33,
                check_count=32,
                error_threshold=0.0,
                controllers=2,
                seed=derive_seed(402, t),
            )
            detected += run_mc_session(config, attack=CollusionAttack()).aborted
        p = 1 - 0.75**32
        assert detected / trials > p - three_sigma_band(p, trials) - 0.01

    def test_requires_two_controllers(self):
        config = McSessionConfig(n_photons=16, controllers=1, seed=0)
        with pytest.raises(ConfigError):
            run_mc_session(config, attack=CollusionAttack())

    def test_variant_validated(self):
        with pytest.raises(ConfigError):
            CollusionAttack(schedule_variant="sometimes")


class TestPassiveNone:
    def test_no_detection_noiseless(self):
        for t in range(40):
            config = SessionConfig(n_photons=32, seed=derive_seed(500, t))
            attack = PassiveNone()
            out = run_session(config, attack=attack)
            report = attack.report(out)
            assert not report.detected and report.check_error_rate == 0.0
            assert report.message_guess_accuracy is None

    def test_error_rate_tracks_channel_noise(self):
        """Depolarizing replacement on either leg scrambles the photon to
        a uniform canonical state, which errs with probability 1/2."""
        p = 0.04
        exact = (1 - (1 - p) ** 2) / 2
        errors, photons = 0, 0
        for t in range(50):
            config = SessionConfig(
                n_photons=128,
                check_fraction=0.5,
                noise=NoiseModel.depolarizing(p),
                error_threshold=1.0,
                seed=derive_seed(501, t),
            )
            out = run_session(config, attack=PassiveNone())
            e, n = collect_check_stats([out])
            errors += e
            photons += n
        assert abs(errors / photons - exact) < three_sigma_band(exact, photons)


class TestDetectionMonotonicity:
    """Detection probability is non-decreasing in the check-set size for
    every active strategy."""

    GRID = (1, 2, 4, 8)
    TRIALS = 500

    def qsdc_curve(self, make_attack, seed_base):
        freqs = []
        for n_check in self.GRID:
            detected = 0
            for t in range(self.TRIALS):
                config = SessionConfig(
                    n_photons=n_check + 1,
                    check_count=n_check,
                    error_threshold=0.0,
                    seed=derive_seed(seed_base, n_check, t),
                )
                detected += run_session(config, attack=make_attack()).aborted
            freqs.append(detected / self.TRIALS)
        return freqs

    def mc_curve(self, make_attack, m, seed_base):
        freqs = []
        for n_check in self.GRID:
            detected = 0
            for t in range(self.TRIALS):
                config = McSessionConfig(
                    n_photons=n_check + 1,
                    check_count=n_check,
                    error_threshold=0.0,
                    controllers=m,
                    seed=derive_seed(seed_base, n_check, t),
                )
                detected += run_mc_session(config, attack=make_attack()).aborted
            freqs.append(detected / self.TRIALS)
        return freqs

    def assert_non_decreasing(self, freqs):
        for lo, hi in zip(freqs, freqs[1:]):
            assert hi >= lo - 0.02, freqs

    def test_intercept_resend(self):
        self.assert_non_decreasing(self.qsdc_curve(InterceptResend, 600))

    def test_return_leg_tap(self):
        self.assert_non_decreasing(self.qsdc_curve(ReturnLegTap, 601))

    def test_bypass(self):
        self.assert_non_decreasing(self.mc_curve(FakeSequenceBypass, 2, 602))

    def test_collusion_random_order(self):
        self.assert_non_decreasing(self.mc_curve(CollusionAttack, 2, 603))


class TestCollusionDetectionCurve:
    def test_session_detection_matches_closed_form(self):
        """Session-level detection of the random-order collusion at m=2:
        per-photon pass probability 3/4, so 1 - (3/4)^n."""
        trials = 600
        for n_check in (4, 8, 16):
            detected = 0
            for t in range(trials):
                config = McSessionConfig(
                    n_photons=n_check + 1,
                    check_count=n_check,
                    error_threshold=0.0,
                    controllers=2,
                    seed=derive_seed(700, n_check, t),
                )
                detected += run_mc_session(config, attack=CollusionAttack()).aborted
            target = 1 - 0.75**n_check
            assert abs(detected / trials - target) < three_sigma_band(target, trials)


class TestRegistry:
    def test_build_by_name(self):
        assert isinstance(build_attack("none"), PassiveNone)
        assert isinstance(build_attack("intercept_resend"), InterceptResend)
        tap = build_attack("return_leg_tap", {"disclose_permutation": True})
        assert tap.disclose_permutation

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            build_attack("quantum_sledgehammer")

    def test_aborted_outcome_has_no_decode(self):
        config = SessionConfig(
            n_photons=33, check_count=32, error_threshold=0.0, seed=derive_seed(800, 0)
        )
        out = run_session(config, attack=InterceptResend())
        assert out.aborted
        assert out.decoded_bits is None and out.decoded_positions is None
