"""Golden digests: the exact outputs of fixed seeded runs.

Each digest is the SHA-256 of a run report (canonical JSON) followed by
its transcript JSON Lines, of a withheld-controller session, or of a
sweep CSV. They pin the random stream end to end: an engine change that
draws one number more, fewer or in another order moves them. When a
change to the outputs is intended, recompute them with
``python tests/test_golden.py`` and say why in CHANGES.md.
"""
import hashlib
import json

import pytest

from qsdcsim.fabric import Transcript
from qsdcsim.harness import ExperimentConfig, run_report, sweep_csv
from qsdcsim.multiparty import McSessionConfig, run_mc_session

QSDC = {"protocol": "qsdc", "n_photons": 48, "check_count": 12, "error_threshold": 0.2}
MC = {"protocol": "mcqsdc", "n_photons": 40, "check_count": 10, "error_threshold": 0.2}

RUNS = {
    "qsdc_none": dict(QSDC, seed=3),
    "qsdc_intercept_resend": dict(QSDC, seed=4, attack={"name": "intercept_resend"}),
    "qsdc_return_leg_tap_disclosed": dict(
        QSDC,
        seed=5,
        attack={
            "name": "return_leg_tap",
            "params": {"disclose_permutation": True, "disclose_initial_states": True},
        },
    ),
    "qsdc_loss": dict(QSDC, seed=6, loss=0.1),
    "qsdc_bit_flip": dict(QSDC, seed=7, noise={"kind": "bit_flip", "p": 0.05}),
    "qsdc_loss_bit_flip": dict(QSDC, seed=8, loss=0.1, noise={"kind": "bit_flip", "p": 0.05}),
    "qsdc_depolarizing": dict(QSDC, seed=9, noise={"kind": "depolarizing", "p": 0.1}),
    "mcqsdc_m3_loss": dict(MC, seed=10, controllers=3, loss=0.05),
    "mcqsdc_collusion_random": dict(
        MC, seed=11, controllers=3, attack={"name": "collusion"}
    ),
    "mcqsdc_collusion_fixed": dict(
        MC,
        seed=12,
        controllers=3,
        attack={"name": "collusion", "params": {"schedule_variant": "fixed_order"}},
    ),
    "mcqsdc_bypass": dict(MC, seed=13, controllers=2, attack={"name": "fake_sequence_bypass"}),
    "mcqsdc_return_leg_tap_m1": dict(
        MC,
        seed=14,
        controllers=1,
        attack={"name": "return_leg_tap", "params": {"disclose_permutation": True}},
    ),
    "mcqsdc_m0": dict(MC, seed=17, controllers=0),
    "mcqsdc_m1_loss": dict(MC, seed=18, controllers=1, loss=0.3),
    "mcqsdc_intercept_resend_aborted": dict(
        MC, seed=22, controllers=3, attack={"name": "intercept_resend"}
    ),
    "qsdc_heavy_loss": dict(QSDC, seed=20, loss=0.6),
}

SWEEP = {
    "protocol": "qsdc",
    "n_photons": 24,
    "error_threshold": 0.0,
    "attack": {"name": "intercept_resend"},
    "trials": 6,
    "seed": 15,
    "sweep": {"check_count": [2, 6], "loss": [0.0, 0.1]},
}

DIGESTS = {
    "qsdc_none": "4761777603f87db61588436fa599a22dfeb75d772010a2cd7a97afa9be9d0ce9",
    "qsdc_intercept_resend": "9e4cf6ee3856f4a6244c1b62972cc776ae004bede086f5b49cbe3b50ba6979fb",
    "qsdc_return_leg_tap_disclosed": "7f914101c632fa0eb2baa75d494f2ec9aede5c67a240f4b57858c147e41988e2",
    "qsdc_loss": "9d0e88146c35e2c5ff87461c88cdd6c94def6d9087dd33776281f6ec168d9772",
    "qsdc_bit_flip": "8f3bac932bd6093cced08300d6f3f82a63b626b91ded8f40a45b43376e6df146",
    "qsdc_loss_bit_flip": "4b5f9c8d3e33288ec24353a9c086c80064a21f3729abc7cf8a83a380957b5e85",
    "qsdc_depolarizing": "d1fe9038758ed3c7fb36382d8fa21bb2e66f7a8af2ccfc3753ac518b73cde5c7",
    "mcqsdc_m3_loss": "e3ccc21bb1c4141107461293790a60e348f6a38db00ba43da697a4ee3334ed6b",
    "mcqsdc_collusion_random": "ce267776fec6cadc56e4d7d42632e077a2498a8a25f8356afe4124e1bd5928c7",
    "mcqsdc_collusion_fixed": "a55af412020000364ddfebeef3a0261986189b9393c724a2f7ef3d46ed3be929",
    "mcqsdc_bypass": "1fb2a75dbdbaf4c4cbfb4dd005ca4db88067fe9efb968c206401f7712b26feb9",
    "mcqsdc_return_leg_tap_m1": "6a33f099cb3bd507314bac1455440130281b5febb439445e8657f4e1e0fc5e39",
    "mcqsdc_withheld": "1a615313c2d9c9c5e4e9561b6966aec7629c797aebd37f8d90380a27f2563752",
    "mcqsdc_m0": "fd18f176a192bded61655409021f9839b1aff62ef0df55fffceba21552c80271",
    "mcqsdc_m1_loss": "8078644da24df53767f534f57b24af68ab27a5cd7d43a53a72a02d12d0c647db",
    "mcqsdc_intercept_resend_aborted": "4b78d8de2e0560fe46dfc3a60c990cde549c4151883308e5e74014aea4f9e57e",
    "qsdc_heavy_loss": "f46ae1b58527bd1226c5a8e4e559dd5ff9c3fa35e3175dfc32511ecfbdbcee5a",
    "sweep_csv": "1df0b5232a37615e766726bd696ee8dfee92d7620203a48d6078ef0c4d736389",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_text(name: str) -> str:
    """The bytes a golden digest is taken over."""
    if name == "sweep_csv":
        return sweep_csv(ExperimentConfig.from_dict(SWEEP))
    if name == "mcqsdc_withheld":
        config = McSessionConfig(n_photons=40, controllers=3, error_threshold=0.0, seed=16)
        out = run_mc_session(config, transcript=Transcript(), withheld_controller=1)
        fields = [out.aborted, out.measured_error_rate, out.message_sent,
                  out.decoded_bits, out.decoded_positions, out.n_check]
        return json.dumps(fields) + "\n" + out.transcript.to_jsonl()
    transcript = Transcript()
    report = run_report(ExperimentConfig.from_dict(RUNS[name]), transcript=transcript)
    return json.dumps(report, sort_keys=True) + "\n" + transcript.to_jsonl()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest(name):
    assert _sha(output_text(name)) == DIGESTS[name]


if __name__ == "__main__":
    for case in DIGESTS:
        print(f'    "{case}": "{_sha(output_text(case))}",')
