"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (run with -s to see them).

Attack-detection experiments run noiseless with error_threshold = 0, so
"detected" means at least one check mismatch and the closed forms apply
exactly.
"""
import itertools
import json
import subprocess
import sys
import time

from scipy.stats import binomtest

from amplitude_oracle import norm_sq, overlap
from control_property import control_property_accuracy
from qsdcsim.attacks import (
    CollusionAttack,
    FakeSequenceBypass,
    InterceptResend,
    ReturnLegTap,
    collusion_photon_detection,
    intercept_resend_detection,
)
from qsdcsim.harness import (
    ExperimentConfig,
    derive_seed,
    sweep_csv,
    run_report,
    three_sigma_band,
)
from qsdcsim.multiparty import McSessionConfig, run_mc_session
from qsdcsim.protocol import SessionConfig, run_session
from qsdcsim.quantum import (
    CANONICAL_LABELS,
    Basis,
    OpLabel,
    PhotonState,
    StateLabel,
    apply_op,
    apply_op_symbolic,
    state_from_label,
)

SQRT_HALF = 2.0**-0.5


def test_c1_unitary_fidelity():
    """All 12 single-op actions, exact amplitudes and modulo-phase."""
    exact_u = {
        StateLabel(Basis.Z, 0): PhotonState(0j, -1 + 0j),
        StateLabel(Basis.Z, 1): PhotonState(1 + 0j, 0j),
        StateLabel(Basis.X, 0): PhotonState(complex(SQRT_HALF), complex(-SQRT_HALF)),
        StateLabel(Basis.X, 1): PhotonState(complex(-SQRT_HALF), complex(-SQRT_HALF)),
    }
    cases = 0
    for op in OpLabel:
        for label in CANONICAL_LABELS:
            out = apply_op(op, state_from_label(label))
            target = state_from_label(apply_op_symbolic(op, label))
            assert abs(overlap(out, target) - 1.0) < 1e-12
            if op is OpLabel.U:
                expected = exact_u[label]
                assert abs(out.alpha - expected.alpha) < 1e-12
                assert abs(out.beta - expected.beta) < 1e-12
            cases += 1
    assert cases == 12
    print(f"\nACCEPTANCE 1 PASS: {cases}/12 unitary actions exact within 1e-12")


def test_c2_oracle_equivalence():
    """Amplitude vs symbolic agreement on all 2916 length-6 sequences."""
    start_time = time.time()
    checked = 0
    for start in CANONICAL_LABELS:
        for seq in itertools.product(list(OpLabel), repeat=6):
            state = state_from_label(start)
            label = start
            for op in seq:
                state = apply_op(op, state)
                label = apply_op_symbolic(op, label)
            assert abs(overlap(state, state_from_label(label)) - 1.0) < 1e-12
            assert abs(norm_sq(state) - 1.0) < 1e-12
            checked += 1
    elapsed = time.time() - start_time
    assert checked == 2916
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: {checked}/2916 sequences agree in {elapsed:.2f}s")


def test_c3_honest_round_trip():
    """1000 noiseless sessions at N=1024: exact decode, zero error rate."""
    start_time = time.time()
    sessions = 1000
    for t in range(sessions):
        config = SessionConfig(
            n_photons=1024, check_fraction=0.25, seed=derive_seed(1003, t)
        )
        out = run_session(config)
        assert not out.aborted
        assert out.measured_error_rate == 0.0
        assert out.decoded_bits == out.message_sent
    elapsed = time.time() - start_time
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: {sessions}/{sessions} sessions decode exactly in {elapsed:.1f}s")


def test_c4_intercept_resend_detection():
    """Per-photon error 0.25 +- 0.02 over >= 1e4 photons; detection curve
    matches 1 - (3/4)^n within 3 sigma at 1e4 trials per point."""
    start_time = time.time()
    errors, photons = 0, 0
    for t in range(350):
        config = SessionConfig(
            n_photons=33, check_count=32, error_threshold=0.0, seed=derive_seed(1004, 0, t)
        )
        out = run_session(config, attack=InterceptResend())
        errors += round(out.measured_error_rate * out.n_check)
        photons += out.n_check
    rate = errors / photons
    assert photons >= 10_000
    assert abs(rate - 0.25) <= 0.02

    trials = 10_000
    curve = []
    for n_check in (1, 2, 4, 8, 16, 32):
        detected = 0
        for t in range(trials):
            config = SessionConfig(
                n_photons=n_check + 1,
                check_count=n_check,
                error_threshold=0.0,
                seed=derive_seed(1004, n_check, t),
            )
            detected += run_session(config, attack=InterceptResend()).aborted
        freq = detected / trials
        target = intercept_resend_detection(n_check)
        band = three_sigma_band(target, trials)
        assert abs(freq - target) <= band, (n_check, freq, target, band)
        curve.append((n_check, freq, target))
    elapsed = time.time() - start_time
    assert elapsed < 120.0
    summary = ", ".join(f"n={n}:{f:.4f}~{t:.4f}" for n, f, t in curve)
    print(
        f"\nACCEPTANCE 4 PASS: photon error {rate:.4f} (target 0.25);"
        f" detection {summary} in {elapsed:.1f}s"
    )


def test_c5_order_secrecy_leak_bound():
    """Return-leg tap per-bit guess accuracy over 1e5 bits lies in
    [0.49, 0.51] and is binomially indistinguishable from 1/2."""
    hits, total = 0, 0
    for t in range(100):
        config = SessionConfig(
            n_photons=1100, check_count=100, error_threshold=0.0, seed=derive_seed(1005, t)
        )
        attack = ReturnLegTap()
        out = run_session(config, attack=attack)
        report = attack.report(out)
        hits += round(report.message_guess_accuracy * report.metadata["n_guessed"])
        total += report.metadata["n_guessed"]
    accuracy = hits / total
    assert total >= 100_000
    assert 0.49 <= accuracy <= 0.51
    p_value = binomtest(hits, total, 0.5).pvalue
    assert p_value >= 0.01
    print(
        f"\nACCEPTANCE 5 PASS: guess accuracy {accuracy:.5f} over {total} bits,"
        f" binomial p={p_value:.3f}"
    )


def test_c6_control_property():
    """Withholding any one of three controllers pins decode accuracy to
    0.50 +- 0.01 over 1e5 bits; full releases decode perfectly."""
    m = 3
    details = []
    for withheld in range(m):
        accuracy, bits = control_property_accuracy(m, 100_000, seed=1006, withheld=withheld)
        assert bits >= 100_000
        assert abs(accuracy - 0.5) <= 0.01, (withheld, accuracy)
        details.append(f"w{withheld}:{accuracy:.4f}")
    full, bits_full = control_property_accuracy(m, 100_000, seed=1006, withheld=None)
    assert full == 1.0
    print(
        f"\nACCEPTANCE 6 PASS: withheld accuracies {', '.join(details)} (1e5 bits each);"
        f" full release {full:.1f} over {bits_full} bits"
    )


def test_c7_collusion_controls():
    """Fixed announcement order: never detected, full recovery. Random
    order: per-photon detection (1 - 1/m)/2 within 3 sigma at 1e4 trials."""
    for t in range(200):
        config = McSessionConfig(
            n_photons=48,
            check_count=16,
            error_threshold=0.0,
            controllers=3,
            seed=derive_seed(1007, 0, t),
        )
        attack = CollusionAttack(schedule_variant="fixed_order")
        out = run_mc_session(config, attack=attack)
        report = attack.report(out)
        assert not report.detected
        assert report.message_guess_accuracy == 1.0

    curve = []
    for m in (2, 3, 5):
        errors, photons = 0, 0
        for t in range(100):
            config = McSessionConfig(
                n_photons=110,
                check_count=100,
                error_threshold=0.0,
                controllers=m,
                seed=derive_seed(1007, m, t),
            )
            out = run_mc_session(config, attack=CollusionAttack(schedule_variant="random_order"))
            errors += round(out.measured_error_rate * out.n_check)
            photons += out.n_check
        rate = errors / photons
        target = collusion_photon_detection(m)
        band = three_sigma_band(target, photons)
        assert photons >= 10_000
        assert abs(rate - target) <= band, (m, rate, target, band)
        curve.append((m, rate, target))
    summary = ", ".join(f"m={m}:{r:.4f}~{t:.4f}" for m, r, t in curve)
    print(f"\nACCEPTANCE 7 PASS: fixed order undetected with full recovery; random order {summary}")


def test_c8_bypass_attack():
    """Per-check-photon pass probability 0.5 +- 0.02; session detection
    above 0.99 at 16 check photons, two controllers, 1e3 trials."""
    passes, photons = 0, 0
    for t in range(100):
        config = McSessionConfig(
            n_photons=110,
            check_count=100,
            error_threshold=0.0,
            controllers=2,
            seed=derive_seed(1008, 0, t),
        )
        out = run_mc_session(config, attack=FakeSequenceBypass())
        errors = round(out.measured_error_rate * out.n_check)
        passes += out.n_check - errors
        photons += out.n_check
    pass_rate = passes / photons
    assert photons >= 10_000
    assert abs(pass_rate - 0.5) <= 0.02

    trials = 1000
    detected = 0
    for t in range(trials):
        config = McSessionConfig(
            n_photons=17,
            check_count=16,
            error_threshold=0.0,
            controllers=2,
            seed=derive_seed(1008, 1, t),
        )
        detected += run_mc_session(config, attack=FakeSequenceBypass()).aborted
    detection = detected / trials
    assert detection > 0.99
    print(
        f"\nACCEPTANCE 8 PASS: photon pass rate {pass_rate:.4f} (target 0.5);"
        f" detection {detection:.3f} at 16 check photons"
    )


def test_c9_determinism(tmp_path):
    """Identical (config, seed) produce byte-identical JSON and CSV."""
    run_config = ExperimentConfig.from_dict(
        {
            "protocol": "mcqsdc",
            "n_photons": 64,
            "controllers": 2,
            "attack": {"name": "none"},
            "seed": 9,
        }
    )
    json_a = json.dumps(run_report(run_config), sort_keys=True)
    json_b = json.dumps(run_report(run_config), sort_keys=True)
    assert json_a == json_b

    sweep_config = ExperimentConfig.from_dict(
        {
            "protocol": "qsdc",
            "n_photons": 17,
            "check_count": 16,
            "error_threshold": 0.0,
            "attack": {"name": "intercept_resend"},
            "trials": 50,
            "seed": 4,
            "sweep": {"check_count": [2, 8]},
        }
    )
    csv_a = sweep_csv(sweep_config)
    csv_b = sweep_csv(sweep_config)
    assert csv_a == csv_b

    config_path = tmp_path / "determinism.json"
    config_path.write_text(json.dumps(run_config.to_dict()))
    argv = [sys.executable, "-m", "qsdcsim", "run", "--config", str(config_path)]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0 and first.stdout == second.stdout
    print("\nACCEPTANCE 9 PASS: repeated runs byte-identical (JSON report, sweep CSV, CLI)")
