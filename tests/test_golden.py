"""Golden digests: the exact outputs of fixed seeded runs.

Each digest is the SHA-256 of one output: a run case's report (canonical
JSON; for the withheld-controller session, its outcome fields), the same
run's transcript JSON Lines, or a sweep CSV (each point runs as batches
of sessions, in both protocols); one more pins the combined digest of
``tests/output_corpus.py``. They pin the random stream end to end: an
engine change that draws one number more, fewer or in another order
moves them. A change to the transcript's format alone moves only the
transcript digests and the corpus digest; ``output_corpus.py --against``
the other side's corpus says which of its lines moved. When a change to
the outputs is intended, recompute them with ``python
tests/test_golden.py`` and say why in CHANGES.md.
"""
import functools
import hashlib
import json

import pytest

import output_corpus
from output_corpus import combined_digest, lines
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
    "qsdc_none": "ef390e18534fa93b664942b895ee2a242ab69c2ddd8a21dd4436d31ab2ce5abd",
    "qsdc_intercept_resend": "4be945514c108f31a75febc0fb689faf1c746b26dea67873ff98662dd85a1e87",
    "qsdc_return_leg_tap_disclosed": "67b95daa63d9554668a6a3ac23d58bd751d078bbb93f249e39e0b80d0abde4c7",
    "qsdc_loss": "d6aa2b0617676fd8440772291e70963a7a5dec84bdf8d92edfc7257b46530187",
    "qsdc_bit_flip": "07a525958e5c1c4f4c9c9fa09ff768de4ecd27bcf2d521150fdc5cee6ee615d2",
    "qsdc_loss_bit_flip": "34a5efbc47d25306f56d70ec522590444b1219cb6dc85f3d9cbb0e142bf91fbc",
    "qsdc_depolarizing": "e6cfc7ff13d5444c6edc7aa4503086ae42169aeb7fe9e9dbd62d4d07412e48e3",
    "mcqsdc_m3_loss": "b26dc41f84195b5c2e0c14e83deb001398f51512f4bc4d1f202aef84a0257946",
    "mcqsdc_collusion_random": "f1477a07006904d17f38096df41a7fffe558bd34706c1392ecbcd15df6f2455f",
    "mcqsdc_collusion_fixed": "f0ea7cce4d3d45af987d308adc9fb93c8cbd9cefec202922df615380aeea2df8",
    "mcqsdc_bypass": "21ad8b82ced12fb2496c79d1a41db0312a2f471db27602354db5cb2d20fabf18",
    "mcqsdc_return_leg_tap_m1": "d0c984fb43ff1e67a4afc1396d152510e4e7905fd6c652370e9a8cc8c91a6300",
    "mcqsdc_withheld": "b2c4cdb3d900f38de0ceeeb52dc8f9b0dfc620ddac334a334e65f12afcf6303c",
    "mcqsdc_m0": "e35192a8553d5d23663798872d0ae342150f5bef43ec40e4052268b40cccf0ab",
    "mcqsdc_m1_loss": "6909cf15881b0034892f506955d72c2c26743649c14719e0460a57a2b058fba9",
    "mcqsdc_intercept_resend_aborted": "4d1bb1bd5b4abaf2d2bd22f2f66fd9595816c7b52a0614799bbf9e6e00bef71f",
    "qsdc_heavy_loss": "f97fc0d9753a053ca22c6237f3bf71ee72be0de65dfb9f02703dc8650b49719c",
    "qsdc_one_message_bit": "43846172125c4157296e7cb21f62bd1d707e33756af07535eca1d18426e67c01",
}

SWEEP_DIGESTS = {
    "sweep_csv": "5c724633a642a05631da53858fb20ceae27656db19246a48d734dbd98ae524e5",
    "mcqsdc_sweep_csv": "48fea07f2dd96711b74120eeb3b839a6a3f5b15ecf6bf3b3e27e3cfdbe0edf48",
    "qsdc_sweep_return_leg_tap": "9ebbf41c123659ffd213f454b0851ad1031ccc81a631e07fb181c79613519c61",
    "qsdc_sweep_return_leg_tap_disclosed": "c4c7633bb2fe8d35d1048d9ccf7a2f4d08b62a6cfdf31f3eec87b7f03f31e07f",
    "qsdc_sweep_one_message_bit": "1357a3dbe37d24ecca8b49a364db3bd318379bf3bfe1e7e4420c51d75751d514",
}

CORPUS_DIGEST = "f6ce57bd565f2b22a080d88a92c9ddae27e7589a382695770b42a3a573a4b794"


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


@functools.lru_cache(maxsize=None)
def corpus() -> tuple[str, ...]:
    return tuple(lines())


def test_output_corpus_digest():
    assert combined_digest(list(corpus())) == CORPUS_DIGEST


def test_output_corpus_against_a_copy(tmp_path, monkeypatch, capsys):
    """``output_corpus.py --against FILE`` names each case whose digest
    moved or that only the file has, counts them per output kind, and
    exits 1 if any line differs."""
    ours = list(corpus())
    monkeypatch.setattr(output_corpus, "lines", lambda: iter(ours))
    path = tmp_path / "corpus.txt"

    def against(reference):
        path.write_text("".join(line + "\n" for line in reference))
        status = output_corpus.main(["--against", str(path)])
        return status, capsys.readouterr().out.splitlines()

    combined = f"combined {combined_digest(ours)}"
    status, out = against([*ours, combined])
    assert status == 0
    assert out[-2:] == [f"total: 0 of {len(ours)} moved, 0 missing, 0 new",
                        f"{combined} (reference {combined.split()[1]})"]
    key, digest = ours[1].rsplit(" ", 1)
    kind = key.rsplit(" ", 1)[1]
    n_kind = sum(line.rsplit(" ", 2)[1] == kind for line in ours)
    changed = [*ours, "gone/case sweep 00", combined]
    changed[1] = f"{key} {digest[::-1]}"
    status, out = against(changed)
    assert status == 1
    assert out[:2] == [f"moved {key}", "missing gone/case sweep"]
    assert f"{kind}: 1 of {n_kind} moved, 0 missing, 0 new" in out
    assert f"total: 1 of {len(ours)} moved, 1 missing, 0 new" in out


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
    print(f'CORPUS_DIGEST = "{combined_digest(list(lines()))}"')
