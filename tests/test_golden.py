"""Golden digests: the exact outputs of fixed seeded runs.

Each digest is the SHA-256 of a run report (canonical JSON) followed by
its transcript JSON Lines, of a withheld-controller session, or of a
sweep CSV (qsdc points run as batches of sessions, mcqsdc points trial
by trial). They pin the random stream end to end: an engine change that
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
C4_SHAPE = {
    "protocol": "qsdc",
    "n_photons": 9,
    "check_count": 8,
    "error_threshold": 0.0,
    "seed": 25,
    "attack": {"name": "intercept_resend"},
}

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
    # The shape acceptance c4 runs: one message bit per session.
    "qsdc_one_message_bit": C4_SHAPE,
}

SWEEPS = {
    "sweep_csv": {
        "protocol": "qsdc",
        "n_photons": 24,
        "error_threshold": 0.0,
        "attack": {"name": "intercept_resend"},
        "trials": 6,
        "seed": 15,
        "sweep": {"check_count": [2, 6], "loss": [0.0, 0.1]},
    },
    "mcqsdc_sweep_csv": dict(
        MC,
        trials=5,
        seed=19,
        attack={"name": "return_leg_tap", "params": {"disclose_permutation": True}},
        sweep={"controllers": [0, 3], "loss": [0.0, 0.05]},
    ),
    "qsdc_sweep_return_leg_tap": dict(
        QSDC,
        trials=5,
        seed=23,
        attack={"name": "return_leg_tap"},
        sweep={"check_count": [4, 12], "loss": [0.0, 0.1]},
    ),
    "qsdc_sweep_return_leg_tap_disclosed": dict(
        QSDC,
        trials=5,
        seed=24,
        loss=0.1,
        attack={
            "name": "return_leg_tap",
            "params": {"disclose_permutation": True, "disclose_initial_states": True},
        },
        sweep={"n_photons": [24, 48]},
    ),
    "qsdc_sweep_one_message_bit": dict(
        C4_SHAPE, trials=20, seed=26, sweep={"error_threshold": [0.0, 0.5]}
    ),
}

DIGESTS = {
    "qsdc_none": "9f29ce0a9d6efb8d9fb912f2b6984b6442cc8af5f531484013826306b68ce5f7",
    "qsdc_intercept_resend": "4be827cae6477284c64ab8300a70721b0cb74c122011da07e5fdbcd06811384d",
    "qsdc_return_leg_tap_disclosed": "e57738f9499f64f03b15eb5fd4d6488c9a32f2489270d455482b1ae2b4bb6f1d",
    "qsdc_loss": "8f5468a9fd012a60079f01017a0fafd544c71f622a3299d732d57a82ea7e4d3b",
    "qsdc_bit_flip": "f2893f36a8e4eaa85b2a8522988602926d1fa44106c8582c2ddd9d3a59330348",
    "qsdc_loss_bit_flip": "f695ac75c3e04990f3d69c7742c6778f33d1aa67797d982e5a229d7e3df98dcd",
    "qsdc_depolarizing": "704ed6f0b3eae66421e9a19438b21fe5e8f60ae9f3abb767bff4a3a4ff8166d4",
    "mcqsdc_m3_loss": "40b549eca8a52261170b6821c778f4ed6e53cbcec304107c9fad0ffebbdc7de2",
    "mcqsdc_collusion_random": "6ea48afbb4bb2af2ad79ca75500a9ee814645a26e2529ed7f67f80b540caf157",
    "mcqsdc_collusion_fixed": "cb88c766655036ae656aab80b36bd35d67beed01ae1cc656271e5d4e7a9a0fea",
    "mcqsdc_bypass": "48d963efc97ac90579f9cb49edd907c73b3400733be2311972124e1bfaaba1d7",
    "mcqsdc_return_leg_tap_m1": "a34d8af7825d9429b13b10eeb85bc794c5c3fa4bef456127754a542302b97b3e",
    "mcqsdc_withheld": "fe1dfba0eb17bd31ebbc57ec8c8af47a55764e9b167790d1e0848d80f5564ff0",
    "mcqsdc_m0": "4f1cba3a4a014cbb9e9159a083485fd7bac1501e1f7d3a9b318e1b7269204edf",
    "mcqsdc_m1_loss": "03337d81f9b45465b4afbbce76068ea4e1f96c4cba8e1fba4e6eb2a294bd0c44",
    "mcqsdc_intercept_resend_aborted": "784f3cec355062c7152a6397f73746e76f84a17dd6a82b468a2dd8a6243973c2",
    "qsdc_heavy_loss": "6ef0ba67c1a222d5a102e655e7233d548548d8607649aa42184c4ec3fd4c26fe",
    "sweep_csv": "5c724633a642a05631da53858fb20ceae27656db19246a48d734dbd98ae524e5",
    "mcqsdc_sweep_csv": "fb8c185815273e15560e15a0fd516e989f4e8e9fcdd7b95543a3c10537b176d8",
    "qsdc_sweep_return_leg_tap": "9ebbf41c123659ffd213f454b0851ad1031ccc81a631e07fb181c79613519c61",
    "qsdc_sweep_return_leg_tap_disclosed": "c4c7633bb2fe8d35d1048d9ccf7a2f4d08b62a6cfdf31f3eec87b7f03f31e07f",
    "qsdc_one_message_bit": "fcbe9bd231635a64ead6955d6fd228232f7c290ae5cfee48d96739565bc7093f",
    "qsdc_sweep_one_message_bit": "1357a3dbe37d24ecca8b49a364db3bd318379bf3bfe1e7e4420c51d75751d514",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_text(name: str) -> str:
    """The bytes a golden digest is taken over."""
    if name in SWEEPS:
        return sweep_csv(ExperimentConfig.from_dict(SWEEPS[name]))
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
