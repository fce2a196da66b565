"""Experiment harness and command-line interface: config validation,
reproducibility contracts, CSV schema, self-test, and exit codes."""
import copy
import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from control_property import control_property_accuracy
from qsdcsim import cli as qsdcsim_cli
from qsdcsim import harness
from qsdcsim.attacks import ATTACK_REGISTRY, build_attack
from qsdcsim.errors import ConfigError
from qsdcsim.fabric import Transcript
from qsdcsim.harness import (
    ExperimentConfig,
    aggregate_trials,
    derive_seed,
    load_config,
    run_report,
    run_selftest,
    sweep_csv,
    three_sigma_band,
)
from qsdcsim.multiparty import McSessionConfig, run_mc_session
from qsdcsim.protocol import run_sessions
from qsdcsim.quantum import OpLabel, unitary_matrix
from transcript_audit import audit


def cli(*args, config=None, tmp_path=None):
    argv = [sys.executable, "-m", "qsdcsim", *args]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return subprocess.run(argv, capture_output=True, text=True)


HONEST_QSDC = {
    "protocol": "qsdc",
    "n_photons": 24,
    "check_fraction": 0.25,
    "error_threshold": 0.05,
    "attack": {"name": "none"},
    "seed": 5,
}

SMALL_QSDC = {"protocol": "qsdc", "n_photons": 16, "trials": 2, "seed": 1}
SMALL_MC = dict(SMALL_QSDC, protocol="mcqsdc", controllers=2)
#: (base config, key, bad value, error text) for each session key at the
#: top level of a config, where ``noise`` is the object of its two keys.
TOP_LEVEL_ERRORS = [
    (SMALL_QSDC, "n_photons", "x", "n_photons must be an integer, got 'x'"),
    (SMALL_QSDC, "n_photons", 2.5, "n_photons must be an integer, got 2.5"),
    (SMALL_QSDC, "n_photons", 0, "n_photons must be in [1, 16777216], got 0"),
    (SMALL_QSDC, "check_fraction", "x", "check_fraction must be a number, got 'x'"),
    (SMALL_QSDC, "check_fraction", 1.0, "check_fraction must be in (0,1), got 1.0"),
    (SMALL_QSDC, "check_fraction", 0.01, "configuration yields an empty check set"),
    (SMALL_QSDC, "check_count", "x", "check_count must be an integer, got 'x'"),
    (SMALL_QSDC, "check_count", 16, "check_count must be in [1, n_photons-1], got 16"),
    (SMALL_QSDC, "error_threshold", True, "error_threshold must be a number, got True"),
    (SMALL_QSDC, "error_threshold", 1.5, "error_threshold must be in [0,1], got 1.5"),
    (SMALL_QSDC, "noise", {"kind": "bit_flip", "p": "x"}, "noise_p must be a number, got 'x'"),
    (SMALL_QSDC, "noise", {"kind": "bit_flip", "p": 1.5},
     "noise probability must be in [0,1], got 1.5"),
    (SMALL_QSDC, "noise", {"kind": "pink"}, "unknown noise kind 'pink'"),
    (SMALL_QSDC, "noise", {"kind": "none", "p": 0.1}, "noise kind 'none' requires p = 0"),
    (SMALL_QSDC, "loss", None, "loss must be a number, got None"),
    (SMALL_QSDC, "loss", -0.1, "loss must be in [0,1], got -0.1"),
    (SMALL_QSDC, "controllers", "x", "controllers must be an integer, got 'x'"),
    (SMALL_QSDC, "controllers", 2, "controllers are only meaningful for mcqsdc"),
    (SMALL_MC, "controllers", 65, "controllers must be in [0, 64], got 65"),
    (SMALL_QSDC, "seed", "x", "seed must be an integer, got 'x'"),
    (SMALL_QSDC, "seed", -1, "seed must be >= 0, got -1"),
]
#: The same for one point of a sweep axis.
AXIS_ERRORS = [
    (SMALL_QSDC, "n_photons", "x", "n_photons must be an integer, got 'x'"),
    (SMALL_QSDC, "n_photons", 0, "n_photons must be in [1, 16777216], got 0"),
    (SMALL_QSDC, "check_fraction", "x", "check_fraction must be a number, got 'x'"),
    (SMALL_QSDC, "check_fraction", 1.0, "check_fraction must be in (0,1), got 1.0"),
    (dict(SMALL_QSDC, check_count=4), "check_fraction", 0.5,
     "sweeping check_fraction requires no check_count, which overrides it"),
    (SMALL_QSDC, "check_count", "x", "check_count must be an integer, got 'x'"),
    (SMALL_QSDC, "check_count", 16, "check_count must be in [1, n_photons-1], got 16"),
    (SMALL_QSDC, "error_threshold", "x", "error_threshold must be a number, got 'x'"),
    (SMALL_QSDC, "error_threshold", 2, "error_threshold must be in [0,1], got 2.0"),
    (SMALL_QSDC, "noise_p", "x", "noise_p must be a number, got 'x'"),
    (SMALL_QSDC, "noise_p", 0.1, "sweeping noise_p requires a non-'none' noise kind"),
    (dict(SMALL_QSDC, noise={"kind": "bit_flip"}), "noise_p", 1.5,
     "noise probability must be in [0,1], got 1.5"),
    (SMALL_QSDC, "loss", "x", "loss must be a number, got 'x'"),
    (SMALL_QSDC, "loss", 1.5, "loss must be in [0,1], got 1.5"),
    (SMALL_QSDC, "controllers", "x", "controllers must be an integer, got 'x'"),
    (SMALL_QSDC, "controllers", 2, "controllers are only meaningful for mcqsdc"),
    (SMALL_MC, "controllers", 65, "controllers must be in [0, 64], got 65"),
    (SMALL_QSDC, "seed", 2, "unknown sweep axis 'seed'; known: ('n_photons', 'check_fraction', "
     "'check_count', 'error_threshold', 'noise_p', 'loss', 'controllers')"),
]
BAD_SESSION_VALUES = [
    pytest.param(place, *case, id=f"{place}-{case[0]['protocol']}-{case[1]}={case[2]!r}")
    for place, cases in (("top", TOP_LEVEL_ERRORS), ("axis", AXIS_ERRORS))
    for case in cases
]

#: A controlled config in which every session field can be nudged off its value.
ROUND_TRIP_BASE = {"protocol": "mcqsdc", "n_photons": 24, "controllers": 1,
                   "noise": {"kind": "bit_flip"}, "attack": {"name": "intercept_resend"},
                   "trials": 20, "seed": 6}


def nudged(value):
    """A valid value of a session field away from ``value``, its JSON
    value in ``ROUND_TRIP_BASE``."""
    if value is None:
        return 5
    return value + 1 if isinstance(value, int) else value + 0.125


class TestExperimentConfig:
    def test_defaults_fill_in(self):
        config = ExperimentConfig.from_dict({"protocol": "qsdc", "n_photons": 16})
        assert config.attack_name == "none" and config.trials == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"protocol": "qsdc", "n_photons": 16, "frobnicate": 1})

    @pytest.mark.parametrize("key,nested", [
        ("noise_kind", {"kind": "bit_flip"}),
        ("noise_p", {"kind": "bit_flip", "p": 0.1}),
        ("attack_name", {"name": "intercept_resend"}),
        ("attack_params", {"name": "return_leg_tap", "params": {"disclose_permutation": True}}),
    ])
    def test_flat_object_key_refused(self, key, nested):
        """A field of the ``noise`` or ``attack`` object has one spelling:
        flattened to the top level it is an unknown key, while the object
        spelling of the same value loads."""
        obj, part = key.split("_", 1)
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig.from_dict(dict(SMALL_QSDC, **{key: nested[part]}))
        assert str(exc.value) == f"unknown config key {key!r}"
        config = ExperimentConfig.from_dict(dict(SMALL_QSDC, **{obj: nested}))
        assert config.to_dict()[obj][part] == nested[part]

    def test_controllers_default_to_zero(self):
        """A controlled session built without ``controllers`` has the chain
        a controlled config without the key runs: none."""
        loaded = ExperimentConfig.from_dict({"protocol": "mcqsdc"}).session
        assert McSessionConfig().controllers == loaded.controllers == 0

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"protocol": "qsdc", "n_photons": 16, "sweep": {"seed": [1, 2]}}
            )

    def test_mc_attack_needs_mc_protocol(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"protocol": "qsdc", "n_photons": 16, "attack": {"name": "collusion"}}
            )

    def test_controllers_only_for_mcqsdc(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"protocol": "qsdc", "n_photons": 16, "controllers": 2})

    def test_roundtrip_dict(self):
        config = ExperimentConfig.from_dict(
            {"protocol": "mcqsdc", "n_photons": 20, "controllers": 2, "seed": 9}
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_integral_floats_accepted_fractional_rejected(self):
        config = ExperimentConfig.from_dict({"protocol": "qsdc", "n_photons": 24.0})
        assert config.session.n_photons == 24
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"protocol": "qsdc", "n_photons": 24.5})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"protocol": "qsdc", "n_photons": True})

    @pytest.mark.parametrize("place,base,key,value,message", BAD_SESSION_VALUES)
    def test_bad_session_value_error_text(self, place, base, key, value, message):
        """A bad session value is refused with its own text, at the top
        level of a config and at a sweep point alike."""
        with pytest.raises(ConfigError) as exc:
            if place == "top":
                ExperimentConfig.from_dict(dict(base, **{key: value}))
            else:
                sweep_csv(ExperimentConfig.from_dict(dict(base, sweep={key: [value]})))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(McSessionConfig) if f.name != "seed"]
    )
    def test_session_field_round_trips_and_sweeps(self, name):
        """Every session field but the seed survives ``from_dict``,
        ``to_dict`` and ``from_dict`` again, and one sweep point of it gives
        the row of the same value set at the top level."""
        base = ExperimentConfig.from_dict(ROUND_TRIP_BASE).to_dict()
        raw = copy.deepcopy(base)
        if name == "noise":
            axis = "noise_p"
            value = raw["noise"]["p"] = nudged(base["noise"]["p"])
        else:
            axis = name
            value = raw[name] = nudged(base[name])
        config = ExperimentConfig.from_dict(raw)
        assert config != ExperimentConfig.from_dict(base)
        assert config.to_dict() == raw
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        other = "loss" if axis != "loss" else "error_threshold"
        swept = sweep_csv(ExperimentConfig.from_dict(dict(base, sweep={axis: [value]})))
        fixed = sweep_csv(ExperimentConfig.from_dict(dict(raw, sweep={other: [base[other]]})))
        assert swept.splitlines()[1].split(",")[1:] == fixed.splitlines()[1].split(",")[1:]


CORRUPT = {"protocol": "mcqsdc", "n_photons": 64, "controllers": 3}
CORRUPT_LIMITS = [
    pytest.param(
        {"name": "collusion"}, {"loss": 0.1}, "collusion attack does not support lossy channels",
        id="collusion-lossy",
    ),
    pytest.param(
        {"name": "collusion"}, {"controllers": 1}, "collusion needs at least two controllers",
        id="collusion-one-controller",
    ),
    pytest.param(
        {"name": "fake_sequence_bypass"}, {"loss": 0.1},
        "bypass attack does not support lossy channels", id="bypass-lossy",
    ),
]


class TestCorruptAttackLimits:
    """What a corrupt-party attack cannot run is refused when the config
    loads, at every sweep point before the first trial, and when a
    library call starts a session, with the same message each time."""

    @pytest.mark.parametrize("attack,fields,message", CORRUPT_LIMITS)
    def test_from_dict_raises(self, attack, fields, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(dict(CORRUPT, attack=attack, **fields))

    def test_sweep_exits_before_any_trial(self, tmp_path, monkeypatch, capsys):
        config = dict(CORRUPT, trials=50, attack={"name": "collusion"}, sweep={"loss": [0.0, 0.1]})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kwargs: trials.append(args))
        assert qsdcsim_cli.main(["sweep", "--config", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "collusion attack does not support lossy channels" in out.err
        assert trials == []

    @pytest.mark.parametrize("attack,fields,message", CORRUPT_LIMITS)
    def test_library_session_raises(self, attack, fields, message):
        session = dict(n_photons=64, controllers=3, seed=0)
        session.update(fields)
        with pytest.raises(ConfigError, match=message):
            run_mc_session(McSessionConfig(**session), attack=build_attack(attack["name"]))


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_seed(3, 1, 4) == derive_seed(3, 1, 4)

    def test_distinct_paths_differ(self):
        seeds = {derive_seed(7, point, trial) for point in range(8) for trial in range(8)}
        assert len(seeds) == 64

    def test_band_shrinks_with_n(self):
        assert three_sigma_band(0.5, 400) > three_sigma_band(0.5, 10_000)


class TestRunReport:
    def test_honest_report_fields(self):
        config = ExperimentConfig.from_dict(HONEST_QSDC)
        report = run_report(config)
        assert report["aborted"] is False
        assert report["error_rate"] == 0.0
        assert report["message_decoded"] == report["message_sent"]
        assert report["attack_name"] == "none"
        assert report["attack_report"]["detected"] is False

    def test_seed_override_changes_stream(self):
        config = ExperimentConfig.from_dict(HONEST_QSDC)
        a = run_report(config, seed_override=1)
        b = run_report(config, seed_override=2)
        assert a["message_sent"] != b["message_sent"]
        assert a["config"]["seed"] == 1

    @pytest.mark.parametrize(
        "protocol,attack",
        [(protocol, name) for name, cls in ATTACK_REGISTRY.items() for protocol in cls.protocols],
    )
    def test_identical_runs_identical_reports(self, protocol, attack):
        controllers = 2 if protocol == "mcqsdc" else 0
        config = ExperimentConfig.from_dict(
            dict(HONEST_QSDC, protocol=protocol, controllers=controllers, attack={"name": attack})
        )
        first, second = Transcript(), Transcript()
        report = run_report(config, transcript=first)
        a = json.dumps(report, sort_keys=True)
        b = json.dumps(run_report(config, transcript=second), sort_keys=True)
        assert a == b
        assert first.to_jsonl() == second.to_jsonl()
        # One measurement by the receiver per check photon and per decoded
        # bit, whoever routed the photons.
        measured = [ev for ev in first.events if ev["kind"] == "measurement"]
        assert all(ev["party"] == "alice" for ev in measured)
        # A controlled check's measurements are columns of its dance.
        measured += [ev for ev in first.events if ev["kind"] == "dance"]
        n_check = report["attack_report"]["metadata"]["n_check"]
        n_measured = sum(len(ev["positions"]) for ev in measured)
        assert n_measured == n_check + len(report["message_decoded"] or "")

    def test_aggregate_accuracy_prefers_guesses(self):
        config = ExperimentConfig.from_dict(
            {
                "protocol": "qsdc",
                "n_photons": 40,
                "check_count": 8,
                "error_threshold": 0.0,
                "attack": {"name": "return_leg_tap"},
                "seed": 3,
            }
        )
        session = config.session_config(3)
        attack = build_attack("return_leg_tap")
        outcome = run_sessions(session, 5, np.random.default_rng(3), attack)
        stats = aggregate_trials([attack.columns(outcome)])
        # Every row aborts, so only Eve's guesses have an accuracy.
        assert outcome.aborted.all()
        guesses = [attack.report(row).message_guess_accuracy for row in outcome]
        assert stats.accuracy == pytest.approx(sum(guesses) / len(guesses))


class TestSweep:
    def test_csv_schema_and_formatting(self):
        config = ExperimentConfig.from_dict(
            {
                "protocol": "qsdc",
                "n_photons": 9,
                "check_count": 8,
                "error_threshold": 0.0,
                "attack": {"name": "none"},
                "trials": 3,
                "seed": 1,
                "sweep": {"check_count": [2, 4]},
            }
        )
        text = sweep_csv(config)
        lines = text.strip().splitlines()
        assert lines[0] == "check_count,trials,detection_freq,mean_error_rate,stderr,accuracy"
        assert lines[1] == "2,3,0,0,0,1"
        assert lines[2] == "4,3,0,0,0,1"

    def test_sweep_requires_axis(self):
        config = ExperimentConfig.from_dict(HONEST_QSDC)
        with pytest.raises(ConfigError):
            sweep_csv(config)

    def test_null_check_count_point_uses_the_check_fraction(self):
        """A null ``check_count`` point loads as a null top-level
        ``check_count`` does: its row is the row of the default check
        fraction, with an empty axis cell."""
        base = {"protocol": "qsdc", "n_photons": 24, "trials": 30, "seed": 8,
                "attack": {"name": "intercept_resend"}}
        counts = sweep_csv(ExperimentConfig.from_dict(dict(base, sweep={"check_count": [None, 8]})))
        fractions = sweep_csv(ExperimentConfig.from_dict(dict(base, sweep={"check_fraction": [0.25]})))
        null_row = counts.splitlines()[1].split(",")
        fraction_row = fractions.splitlines()[1].split(",")
        assert null_row[0] == "" and fraction_row[0] == "0.25"
        assert null_row[1:] == fraction_row[1:]

    def test_detection_column_tracks_closed_form(self):
        config = ExperimentConfig.from_dict(
            {
                "protocol": "qsdc",
                "n_photons": 9,
                "check_count": 8,
                "error_threshold": 0.0,
                "attack": {"name": "intercept_resend"},
                "trials": 400,
                "seed": 2,
                "sweep": {"check_count": [1, 4]},
            }
        )
        lines = sweep_csv(config).strip().splitlines()
        rows = {line.split(",")[0]: float(line.split(",")[2]) for line in lines[1:]}
        assert abs(rows["1"] - 0.25) < three_sigma_band(0.25, 400)
        assert abs(rows["4"] - (1 - 0.75**4)) < three_sigma_band(1 - 0.75**4, 400)

    def test_passive_sweep_detection_zero(self):
        config = ExperimentConfig.from_dict(
            {
                "protocol": "qsdc",
                "n_photons": 16,
                "attack": {"name": "none"},
                "trials": 20,
                "seed": 3,
                "sweep": {"n_photons": [8, 16]},
            }
        )
        for line in sweep_csv(config).strip().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_honest_noise_sweep_tracks_p(self):
        """Mean check error rate of honest runs approximates the bit-flip
        probability (exactly p(1-p) over the two legs)."""
        config = ExperimentConfig.from_dict(
            {
                "protocol": "qsdc",
                "n_photons": 64,
                "check_fraction": 0.5,
                "error_threshold": 1.0,
                "noise": {"kind": "bit_flip", "p": 0.0},
                "attack": {"name": "none"},
                "trials": 40,
                "seed": 12,
                "sweep": {"noise_p": [0.0, 0.02, 0.05]},
            }
        )
        lines = sweep_csv(config).strip().splitlines()
        assert lines[0].startswith("noise_p,")
        photons = 40 * 32
        for line in lines[1:]:
            parts = line.split(",")
            p = float(parts[0])
            mean_err = float(parts[3])
            exact = p * (1 - p)
            if p == 0.0:
                assert mean_err == 0.0
            else:
                band = three_sigma_band(exact, photons)
                assert abs(mean_err - exact) <= band
                assert abs(mean_err - p) <= band + p**2


class TestControlProperty:
    def test_full_release_perfect_withheld_coin(self):
        full, _ = control_property_accuracy(
            2, 2000, seed=5, withheld=None, n_photons=140, check_count=12
        )
        assert full == 1.0
        withheld, bits = control_property_accuracy(
            2, 2000, seed=5, withheld=0, n_photons=140, check_count=12
        )
        assert abs(withheld - 0.5) < 5 * three_sigma_band(0.5, bits)


class TestSelftest:
    def test_default_passes_within_budget(self):
        start = time.time()
        result = run_selftest()
        elapsed = time.time() - start
        assert result.ok
        assert elapsed < 60.0
        names = [name for name, _p, _d in result.checks]
        assert "oracle-equivalence" in names and "unitary-actions" in names

    def test_perturbed_hadamard_fails(self):
        matrices = {op: unitary_matrix(op) for op in OpLabel}
        matrices[OpLabel.H] = matrices[OpLabel.H] + 0.01
        result = run_selftest(matrices=matrices)
        assert not result.ok
        failed = {name for name, passed, _d in result.checks if not passed}
        assert "unitary-actions" in failed or "oracle-equivalence" in failed


class TestCli:
    def test_run_honest_exit_zero(self, tmp_path):
        proc = cli("run", config=HONEST_QSDC, tmp_path=tmp_path)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["aborted"] is False

    def test_run_byte_identical(self, tmp_path):
        first = cli("run", config=HONEST_QSDC, tmp_path=tmp_path)
        second = cli("run", config=HONEST_QSDC, tmp_path=tmp_path)
        assert first.stdout == second.stdout

    def test_abort_is_still_exit_zero(self, tmp_path):
        config = {
            "protocol": "qsdc",
            "n_photons": 17,
            "check_count": 16,
            "error_threshold": 0.0,
            "attack": {"name": "intercept_resend"},
            "seed": 1,
        }
        proc = cli("run", config=config, tmp_path=tmp_path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["aborted"] is True

    def test_malformed_config_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        proc = subprocess.run(
            [sys.executable, "-m", "qsdcsim", "run", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_config_not_utf8_exit_two(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(HONEST_QSDC).encode("utf-16-le"))
        proc = subprocess.run(
            [sys.executable, "-m", "qsdcsim", "run", "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr and "not valid UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command,config",
        [
            ("run", {"protocol": "qsdc", "n_photons": 1}),
            ("run", dict(HONEST_QSDC, attack={"name": "intercept_resend", "params": {"foo": 1}})),
            ("run", dict(HONEST_QSDC, attack={"name": "intercept_resend", "params": [1, 2]})),
            ("run", dict(HONEST_QSDC, check_fraction="abc")),
            ("run", dict(HONEST_QSDC, noise={"kind": "bit_flip", "p": "x"})),
            ("sweep", dict(HONEST_QSDC, sweep={"loss": ["abc"]})),
            ("sweep", dict(HONEST_QSDC, sweep={"n_photons": [16, 1]})),
            ("run", dict(HONEST_QSDC, seed=-1)),
            ("sweep", dict(HONEST_QSDC, seed=-1, sweep={"n_photons": [8]})),
            (
                "run",
                dict(
                    HONEST_QSDC,
                    attack={"name": "return_leg_tap", "parms": {"disclose_permutation": True}},
                ),
            ),
            ("run", dict(HONEST_QSDC, noise={"kind": "bit_flip", "p": 0.1, "probability": 0.5})),
            (
                "run",
                dict(
                    HONEST_QSDC,
                    attack={"name": "return_leg_tap", "params": {"disclose_permutation": "no"}},
                ),
            ),
            ("run", dict(HONEST_QSDC, n_photons=1e19)),
            ("run", dict(HONEST_QSDC, n_photons=9223372036854775807)),
            ("sweep", dict(HONEST_QSDC, sweep={"n_photons": [16, 2**24 + 1]})),
            ("run", dict(CORRUPT, controllers=10**12)),
            ("sweep", dict(CORRUPT, sweep={"controllers": [2, 65]})),
        ],
        ids=[
            "n_photons_1",
            "unknown_attack_param",
            "attack_params_not_object",
            "check_fraction_string",
            "noise_p_string",
            "sweep_value_string",
            "sweep_point_invalid",
            "run_seed_negative",
            "sweep_seed_negative",
            "unknown_attack_key",
            "unknown_noise_key",
            "return_leg_tap_flag_not_bool",
            "n_photons_beyond_index_range",
            "n_photons_int64_max",
            "sweep_n_photons_beyond_cap",
            "controllers_huge",
            "sweep_controllers_beyond_cap",
        ],
    )
    def test_invalid_field_exit_two(self, tmp_path, command, config):
        proc = cli(command, config=config, tmp_path=tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "sweep, check_count",
        [({"check_fraction": [0.1, 0.5]}, 8), ({"check_fraction": [0.1, 0.5], "check_count": [4, 8]}, None)],
        ids=["check_count_fixed", "check_count_axis"],
    )
    def test_check_fraction_axis_under_check_count_exit_two(self, tmp_path, sweep, check_count):
        """A check count overrides the check fraction, so a fraction axis
        would label rows that all ran the same check set size."""
        config = {"protocol": "qsdc", "n_photons": 64, "check_count": check_count, "trials": 200,
                  "attack": {"name": "intercept_resend"}, "sweep": sweep}
        proc = cli("sweep", config=config, tmp_path=tmp_path)
        assert proc.returncode == 2
        assert "check_fraction" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_seed_flag_overrides(self, tmp_path):
        base = cli("run", config=HONEST_QSDC, tmp_path=tmp_path)
        other = cli("run", "--seed", "99", config=HONEST_QSDC, tmp_path=tmp_path)
        assert json.loads(other.stdout)["seed"] == 99
        assert base.stdout != other.stdout

    def test_negative_seed_flag_exit_two(self, tmp_path):
        proc = cli("run", "--seed", "-2", config=HONEST_QSDC, tmp_path=tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_seed_flag_leaves_the_transcript_file(self, tmp_path):
        """A bad ``--seed`` is refused before the transcript path is opened,
        so a file already there keeps its contents."""
        out_path = tmp_path / "session.jsonl"
        out_path.write_text("earlier\n")
        proc = cli("run", "--seed", "-2", "--transcript", str(out_path), config=HONEST_QSDC,
                   tmp_path=tmp_path)
        assert proc.returncode == 2
        assert out_path.read_text() == "earlier\n"

    def test_unwritable_transcript_path_exit_two(self, tmp_path):
        out_path = tmp_path / "missing" / "session.jsonl"
        proc = cli(
            "run", "--transcript", str(out_path), config=HONEST_QSDC, tmp_path=tmp_path
        )
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_unwritable_sweep_dir_exit_two(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        config = dict(HONEST_QSDC, trials=2, sweep={"n_photons": [8, 12]})
        proc = cli("sweep", "--out", str(blocker / "results"), config=config, tmp_path=tmp_path)
        assert proc.returncode == 2
        assert "config error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_transcript_flag_writes_jsonl(self, tmp_path):
        out_path = tmp_path / "session.jsonl"
        proc = cli(
            "run", "--transcript", str(out_path), config=HONEST_QSDC, tmp_path=tmp_path
        )
        assert proc.returncode == 0
        lines = out_path.read_text().strip().splitlines()
        assert all(json.loads(line)["kind"] for line in lines)

    def test_transcript_file_is_the_library_transcript(self, tmp_path):
        config = {"protocol": "mcqsdc", "n_photons": 40, "check_count": 10, "controllers": 3,
                  "loss": 0.05, "seed": 7}
        out_path = tmp_path / "session.jsonl"
        proc = cli("run", "--transcript", str(out_path), config=config, tmp_path=tmp_path)
        assert proc.returncode == 0
        transcript = Transcript()
        run_report(ExperimentConfig.from_dict(config), transcript=transcript)
        written = out_path.read_text()
        assert written == transcript.to_jsonl() + "\n"
        assert '"kind":"dance"' in written
        assert audit(written) == []

    def test_starved_encoder_turn_exit_one(self, tmp_path):
        config = {"protocol": "mcqsdc", "n_photons": 8, "controllers": 2, "loss": 0.5, "seed": 2}
        proc = cli("run", config=config, tmp_path=tmp_path)
        assert proc.returncode == 1
        assert "protocol error" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_sweep_to_stdout_and_dir(self, tmp_path):
        config = dict(HONEST_QSDC, trials=2, sweep={"n_photons": [8, 12]})
        proc = cli("sweep", config=config, tmp_path=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("n_photons,trials,")
        out_dir = tmp_path / "results"
        proc2 = cli("sweep", "--out", str(out_dir), config=config, tmp_path=tmp_path)
        assert proc2.returncode == 0
        assert (out_dir / "sweep.csv").read_text() == proc.stdout

    def test_sweep_byte_identical(self, tmp_path):
        config = dict(HONEST_QSDC, trials=3, sweep={"check_fraction": [0.25, 0.5]})
        a = cli("sweep", config=config, tmp_path=tmp_path)
        b = cli("sweep", config=config, tmp_path=tmp_path)
        assert a.stdout == b.stdout

    def test_selftest_exit_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsdcsim", "selftest"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "selftest OK" in proc.stdout
        assert "2916/2916" in proc.stdout


class TestCliInProcess:
    """``main`` called again and again in one process, as a library caller
    or the benchmark does: the parser is built once and shared, so no call
    may leave anything behind for the next."""

    @staticmethod
    def main(capsys, *argv):
        code = qsdcsim_cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_same_argv_same_stdout(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(HONEST_QSDC, trials=3, sweep={"n_photons": [8, 12]})))
        first = self.main(capsys, "sweep", "--config", str(path))
        second = self.main(capsys, "sweep", "--config", str(path))
        assert first[0] == 0 and first[1].startswith("n_photons,trials,")
        assert second == first

    def test_bad_calls_leave_the_next_unchanged(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(HONEST_QSDC))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(HONEST_QSDC, n_photons=1)))
        before = self.main(capsys, "run", "--config", str(good))
        with pytest.raises(SystemExit) as exc:
            qsdcsim_cli.main(["run", "--config", str(good), "--frobnicate"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            qsdcsim_cli.main(["run"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, err = self.main(capsys, "run", "--config", str(bad))
        assert (code, out) == (2, "") and "config error" in err
        after = self.main(capsys, "run", "--config", str(good))
        assert before[0] == 0 and after == before

    def test_seed_flag_does_not_leak(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(HONEST_QSDC))
        plain = self.main(capsys, "run", "--config", str(path))
        seeded = self.main(capsys, "run", "--config", str(path), "--seed", "99")
        again = self.main(capsys, "run", "--config", str(path))
        assert json.loads(seeded[1])["seed"] == 99
        assert json.loads(again[1])["seed"] == HONEST_QSDC["seed"]
        assert again == plain != seeded
