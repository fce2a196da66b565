"""Golden digests: the exact outputs of fixed seeded runs.

Each digest is the SHA-256 of one output: a run case's report (canonical
JSON; for the withheld-controller session, its outcome fields), the same
run's transcript JSON Lines, or a sweep CSV (each point runs as batches
of sessions, in both protocols). They pin the random stream end to end:
an engine change that draws one number more, fewer or in another order
moves them. A change to the transcript's format alone moves only the
transcript digests. When a change to the outputs is intended, recompute
them with ``python tests/test_golden.py`` and say why in CHANGES.md.
"""
import functools
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

REPORT_DIGESTS = {
    "qsdc_none": "cbf47a3ef2464fbfcddb330abe276ef50ebbd2c5cbc7a15cd0ee110ba0822450",
    "qsdc_intercept_resend": "a1562d5165ac5d51e5b0a44f736098bbd75afb1741840ff119dd3ebce2b23952",
    "qsdc_return_leg_tap_disclosed": "14e8a1fad8eed8d0c3cb0f2920a3ab2918c4e7808c4b9cda1dea6fb8e1e246de",
    "qsdc_loss": "ecec9ab759fe778be9725d67a05267587c8eed8739d2c72c12750f100181dc31",
    "qsdc_bit_flip": "63ff51c2711669378376a12e9ace59d5e5cbaadba9414f105a81a14ac4e2e00f",
    "qsdc_loss_bit_flip": "e47664f69c43e4e257caf929c3bd31c146e8707d61e721503ce55941a3815631",
    "qsdc_depolarizing": "c06f7e94d84483fedeef21cb2a352596e71248ac6c8f76996d3f7340bdd2e09b",
    "mcqsdc_m3_loss": "67ecc0767f867968446212215525f4b45a5e5403e83a8c172a448268a4dec5df",
    "mcqsdc_collusion_random": "a5bd03bf2fdd2e890f8bb10a20210a1e5a0876b9b4197295fe68b13d254a4bb3",
    "mcqsdc_collusion_fixed": "d5f610668032dddcde273a4659c178aee5da2cf03f6d291405e5dabcbdf55d30",
    "mcqsdc_bypass": "db6af41ff00b1b72e2d73a7a2516959e64e18651f49be972cf197f615085275a",
    "mcqsdc_return_leg_tap_m1": "914b8824d56b19411ac160ed5a210b0ce8b9927f4f2574e37877e14ec6ad6770",
    "mcqsdc_withheld": "515b4bd626c03a70e2831a617ebb456e6151c763d5fc1fa3625ab05b4302d3d0",
    "mcqsdc_m0": "a0b2ba8d3c643b170d87f47358078fb4fb2a9ecb46dcdff5ba7ad09d2dac5352",
    "mcqsdc_m1_loss": "42a7560d5bfe28dcb94fdf62094d7c37aa963e884f16db9f1cb513878d39ad22",
    "mcqsdc_intercept_resend_aborted": "ca26ddde74439ba1bd0d2557b3da7a4aa2b1af5eb9c324157fbca2ee66918e74",
    "qsdc_heavy_loss": "ab206b973ae144f91424e66ada18ddd55daf5e7cb551eb28dfec9eb29ab8dce5",
    "qsdc_one_message_bit": "6df5248f57e9d9bdbb1093500d159eb68d7273a0359c0064b6dd4e00b8840dba",
}

TRANSCRIPT_DIGESTS = {
    "qsdc_none": "1b259e3029bde6e37825cb142c2ad75e898f1b3c469ad760174a4919b7d7a078",
    "qsdc_intercept_resend": "7db465cc191bd90d8e67305a9b0dd423996b451096adc54b40431530ba192343",
    "qsdc_return_leg_tap_disclosed": "67dd8ebe93d90d25d60953598aa8827b71aa730cae7a29badc28a62fcc00d3e3",
    "qsdc_loss": "e291d013a1d184427c0f7851243657e081a735b5dd9b3bd608d1542ffc8c2773",
    "qsdc_bit_flip": "8ab2c90255a7f37168f8d2a4cc13bba79fcaddbe5dfdccdd4f2d4bac7ce8b0eb",
    "qsdc_loss_bit_flip": "3e63c1889f07807a2045ed496f9642b17dd56c09dc2abbfb7cb88c25306ed980",
    "qsdc_depolarizing": "bcd960dd35d1a276af48b67c179645bb18dec5a3ee4af27e2a9ca94ed068cb4e",
    "mcqsdc_m3_loss": "5a7ce19755797b0018a7ddfa86596771f7b43266439725838679e504b5f80348",
    "mcqsdc_collusion_random": "4ccce44582a741afe6430d3508e86001542e256d0c9368a2f4de55d6a7ab106c",
    "mcqsdc_collusion_fixed": "74eacf2beff48e10045229717ac8cd6da2de578e6edde37b2250828e6531af22",
    "mcqsdc_bypass": "e9de23c49ade442d526b74efba961a447763bf17993cbc149e2ce4e3aa518101",
    "mcqsdc_return_leg_tap_m1": "11f0c88f9f1a5c8c92d97cf4a3c26ff208dd04edcb386158f1a33ee476996c5e",
    "mcqsdc_withheld": "d21b7b52156cd0e6a9fc6a11ca694aee36907a56086da5fc1ec587b42fcbfa6c",
    "mcqsdc_m0": "48cfd48437657c6c0917aacc789c41e88194497e2956692b2909c59ea5444268",
    "mcqsdc_m1_loss": "17b59086d58dc321dd98d15556ad89e183224dc57ef0dc89635664068dca3dc8",
    "mcqsdc_intercept_resend_aborted": "f335188c4c7285edb93beec0bf75432730099a21c96116b473a307b73b34ebb7",
    "qsdc_heavy_loss": "fdfd84737afb059d1df598e460ec5ebdfd9d630b46adbaa8e1ae1480aad15407",
    "qsdc_one_message_bit": "0ef3e2aae183d1e78874a960310d5aab06b51cf054bccb5a2bfa579bbf83f748",
}

SWEEP_DIGESTS = {
    "sweep_csv": "5c724633a642a05631da53858fb20ceae27656db19246a48d734dbd98ae524e5",
    "mcqsdc_sweep_csv": "48fea07f2dd96711b74120eeb3b839a6a3f5b15ecf6bf3b3e27e3cfdbe0edf48",
    "qsdc_sweep_return_leg_tap": "9ebbf41c123659ffd213f454b0851ad1031ccc81a631e07fb181c79613519c61",
    "qsdc_sweep_return_leg_tap_disclosed": "c4c7633bb2fe8d35d1048d9ccf7a2f4d08b62a6cfdf31f3eec87b7f03f31e07f",
    "qsdc_sweep_one_message_bit": "1357a3dbe37d24ecca8b49a364db3bd318379bf3bfe1e7e4420c51d75751d514",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def run_outputs(name: str) -> tuple[str, str]:
    """The report text and the transcript JSON Lines of a run case."""
    if name == "mcqsdc_withheld":
        config = McSessionConfig(n_photons=40, controllers=3, error_threshold=0.0, seed=16)
        out = run_mc_session(config, transcript=Transcript(), withheld_controller=1)
        fields = [out.aborted, out.measured_error_rate, out.message_sent,
                  out.decoded_bits, out.decoded_positions, out.n_check]
        return json.dumps(fields), out.transcript.to_jsonl()
    transcript = Transcript()
    report = run_report(ExperimentConfig.from_dict(RUNS[name]), transcript=transcript)
    return json.dumps(report, sort_keys=True), transcript.to_jsonl()


def sweep_output(name: str) -> str:
    return sweep_csv(ExperimentConfig.from_dict(SWEEPS[name]))


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_digest(name):
    assert _sha(run_outputs(name)[0]) == REPORT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_DIGESTS))
def test_transcript_digest(name):
    assert _sha(run_outputs(name)[1]) == TRANSCRIPT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_digest(name):
    assert _sha(sweep_output(name)) == SWEEP_DIGESTS[name]


if __name__ == "__main__":
    for table, part in (("REPORT_DIGESTS", 0), ("TRANSCRIPT_DIGESTS", 1)):
        print(f"{table} = {{")
        for case in REPORT_DIGESTS:
            print(f'    "{case}": "{_sha(run_outputs(case)[part])}",')
        print("}")
    print("SWEEP_DIGESTS = {")
    for case in SWEEP_DIGESTS:
        print(f'    "{case}": "{_sha(sweep_output(case))}",')
    print("}")
