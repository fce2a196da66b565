"""A corpus of seeded outputs, one SHA-256 digest per case, for checking
that a change leaves the program's outputs byte-identical.

Run it on one checkout, then compare another checkout's outputs with
the printed lines:

    PYTHONPATH=src python tests/output_corpus.py > corpus.txt
    PYTHONPATH=src python tests/output_corpus.py --against corpus.txt

The comparison prints each case whose digest moved, or that only one side
has, counts them per output kind, and exits 1 if any line differs.

Each line is ``<case> <output> <digest>``; the output is ``report`` (the
run report as canonical JSON), ``transcript`` (the same run's JSON Lines),
``sweep`` (a sweep CSV) or ``rows`` (one row of a batch: its outcome
fields and its row of the strategy's report columns, as canonical JSON);
a session the program refuses reports its error. The run cases cover
every registry attack and its flags in every protocol it supports, with
controller chains of 0, 1, 3, 16 and 64, loss, both noise kinds, a passing
and an aborting threshold, and withheld releases. The sweeps cover both
protocols with points of several batches each, and one small sweep
covers the axes the others leave out. The row cases run a batch
of ``ROW_TRIALS`` sessions for every registry attack and its flags in
every protocol it supports, with and without loss. The last line is the
digest of all the lines before it, which ``tests/test_golden.py`` pins.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from collections import Counter
from itertools import product

import numpy as np

from qsdcsim.attacks import ATTACK_REGISTRY, build_attack
from qsdcsim.errors import ConfigError, ProtocolError
from qsdcsim.fabric import Transcript
from qsdcsim.harness import BATCH_PHOTONS, ExperimentConfig, run_report, sweep_csv
from qsdcsim.multiparty import McSessionConfig, run_mc_session
from qsdcsim.protocol import run_sessions

#: Attack parameters beyond the defaults, by attack name.
FLAGS = {
    "return_leg_tap": [
        {"disclose_permutation": True},
        {"disclose_permutation": True, "disclose_initial_states": True},
    ],
    "collusion": [{"schedule_variant": "fixed_order"}],
}
NOISES = [None, {"kind": "bit_flip", "p": 0.05}, {"kind": "depolarizing", "p": 0.1}]
#: N = 120, so positions and origins cross 9 -> 10 and 99 -> 100.
N_PHOTONS = 120
#: Points of three batches each at this size.
SWEEP_PHOTONS = 2048
SWEEP_TRIALS = 2 * (BATCH_PHOTONS // SWEEP_PHOTONS) + 5
#: The batch size and generator seed of the row cases.
ROW_TRIALS = 7
ROW_SEED = 50


def attacks() -> list[tuple[str, str, dict]]:
    """(protocol, attack name, params) for every registry attack, each
    with its default and its flagged parameters."""
    return [
        (protocol, name, params)
        for name, cls in sorted(ATTACK_REGISTRY.items())
        for params in [{}, *FLAGS.get(name, [])]
        for protocol in cls.protocols
    ]


def run_cases() -> list[tuple[str, dict]]:
    """The run configs, each under a readable case name."""
    cases = []
    for (protocol, name, params), loss, noise, seed, threshold in product(
        attacks(), (0.0, 0.1), NOISES, (1, 2), (0.0, 1.0)
    ):
        for m in (0, 1, 3, 16, 64) if protocol == "mcqsdc" else (None,):
            raw = {"protocol": protocol, "n_photons": N_PHOTONS, "check_count": 30, "seed": seed,
                   "loss": loss, "error_threshold": threshold,
                   "attack": {"name": name, "params": params}}
            if noise is not None:
                raw["noise"] = noise
            if m is not None:
                raw["controllers"] = m
            flags = ",".join(f"{key}={value}" for key, value in sorted(params.items()))
            case = (f"{protocol}/{name}[{flags}]/m={m}/loss={loss}"
                    f"/noise={noise and noise['kind']}/seed={seed}/threshold={threshold}")
            cases.append((case, raw))
    return cases


def sweep_cases() -> list[tuple[str, dict]]:
    base = {"n_photons": SWEEP_PHOTONS, "trials": SWEEP_TRIALS, "error_threshold": 0.0}
    return [
        ("sweep/qsdc/intercept_resend", dict(
            base, protocol="qsdc", seed=31, attack={"name": "intercept_resend"},
            sweep={"check_count": [4, 64], "loss": [0.0, 0.1]})),
        ("sweep/qsdc/return_leg_tap_disclosed", dict(
            base, protocol="qsdc", seed=32, error_threshold=0.2, noise={"kind": "bit_flip", "p": 0.05},
            attack={"name": "return_leg_tap",
                    "params": {"disclose_permutation": True, "disclose_initial_states": True}},
            sweep={"loss": [0.0, 0.1]})),
        ("sweep/mcqsdc/none", dict(
            base, protocol="mcqsdc", seed=33, error_threshold=0.2,
            sweep={"controllers": [0, 3], "loss": [0.0, 0.05]})),
        ("sweep/mcqsdc/collusion", dict(
            base, protocol="mcqsdc", seed=34, controllers=3, attack={"name": "collusion"},
            sweep={"check_count": [2, 16]})),
        ("sweep/qsdc/session_axes", dict(
            protocol="qsdc", n_photons=33, trials=12, seed=35, attack={"name": "intercept_resend"},
            noise={"kind": "depolarizing", "p": 0.0},
            sweep={"n_photons": [16, 33], "check_fraction": [0.25, 0.5],
                   "error_threshold": [0.0, 0.2], "noise_p": [0.0, 0.1]})),
    ]


def row_cases() -> list[tuple[str, dict]]:
    """The batch configs of the row cases: small check sets under noise
    and a zero threshold, so that rows of one batch abort or pass apart."""
    cases = []
    for (protocol, name, params), loss in product(attacks(), (0.0, 0.1)):
        raw = {"protocol": protocol, "n_photons": 40, "check_count": 4, "error_threshold": 0.0,
               "noise": {"kind": "bit_flip", "p": 0.05}, "loss": loss,
               "attack": {"name": name, "params": params}}
        if protocol == "mcqsdc":
            raw["controllers"] = 3
        flags = ",".join(f"{key}={value}" for key, value in sorted(params.items()))
        cases.append((f"rows/{protocol}/{name}[{flags}]/loss={loss}", raw))
    return cases


def row_lines(case: str, raw: dict):
    """The ``rows`` lines of one batch, row by row."""
    try:
        config = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return  # a config the attack refuses (loss)
    attack = build_attack(config.attack_name, config.attack_params)
    rng = np.random.default_rng(ROW_SEED)
    batch = run_sessions(config.session_config(ROW_SEED), ROW_TRIALS, rng, attack)
    columns = attack.columns(batch)
    for r in range(len(batch)):
        out = batch[r]
        fields = [out.aborted, out.measured_error_rate, out.message_sent, out.decoded_bits,
                  out.decoded_positions, out.n_check, list(out.decode_hits())]
        row = [fields, dataclasses.asdict(columns.row(r))]
        yield f"{case}/row={r} rows {digest(json.dumps(row, sort_keys=True))}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def lines():
    """The corpus lines, case after case."""
    for case, raw in run_cases():
        transcript = Transcript()
        try:
            report = run_report(ExperimentConfig.from_dict(raw), transcript=transcript)
        except ConfigError:
            continue  # a config the attack refuses (loss, too few controllers)
        except ProtocolError as exc:  # too few photons survived the legs
            report = {"error": str(exc)}
        yield f"{case} report {digest(json.dumps(report, sort_keys=True))}"
        yield f"{case} transcript {digest(transcript.to_jsonl())}"
    for m, withheld in ((1, 0), (3, 1), (3, 2)):
        config = McSessionConfig(n_photons=N_PHOTONS, controllers=m, error_threshold=0.0,
                                 loss=0.05, seed=40 + withheld)
        out = run_mc_session(config, transcript=Transcript(), withheld_controller=withheld)
        fields = [out.aborted, out.measured_error_rate, out.message_sent,
                  out.decoded_bits, out.decoded_positions, out.n_check]
        case = f"mcqsdc/withheld={withheld}/m={m}"
        yield f"{case} report {digest(json.dumps(fields))}"
        yield f"{case} transcript {digest(out.transcript.to_jsonl())}"
    for case, raw in sweep_cases():
        yield f"{case} sweep {digest(sweep_csv(ExperimentConfig.from_dict(raw)))}"
    for case, raw in row_cases():
        yield from row_lines(case, raw)


def combined_digest(corpus: list[str]) -> str:
    """The digest of the corpus lines, each ended by a newline."""
    return digest("".join(line + "\n" for line in corpus))


def compare(corpus: list[str], reference: list[str]) -> tuple[list[str], int]:
    """The report of ``corpus`` against the ``reference`` lines of an
    earlier run, and its exit status: 1 if a case's digest moved or a case
    is on one side only."""
    ours, theirs = (dict(line.rsplit(" ", 1) for line in side if not line.startswith("combined "))
                    for side in (corpus, reference))
    out = []
    tally = {kind: Counter() for kind in ("report", "transcript", "sweep", "rows", "total")}
    for key in [*ours, *(key for key in theirs if key not in ours)]:
        change = ("missing" if key not in ours else "new" if key not in theirs
                  else "moved" if ours[key] != theirs[key] else "same")
        for kind in (key.rsplit(" ", 1)[1], "total"):
            tally[kind]["cases"] += key in ours
            tally[kind][change] += 1
        if change != "same":
            out.append(f"{change} {key}")
    status = int(bool(out))
    for kind, counts in tally.items():
        out.append(f"{kind}: {counts['moved']} of {counts['cases']} moved, "
                   f"{counts['missing']} missing, {counts['new']} new")
    old = next((line.split()[1] for line in reference if line.startswith("combined ")), None)
    out.append(f"combined {combined_digest(corpus)} (reference {old})")
    return out, status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Print the output corpus, or compare it.")
    parser.add_argument("--against", metavar="FILE",
                        help="compare with the corpus an earlier run printed to FILE")
    args = parser.parse_args(argv)
    corpus = list(lines())
    if args.against is None:
        print("\n".join(corpus))
        print(f"combined {combined_digest(corpus)}")
        return 0
    with open(args.against, encoding="utf-8") as handle:
        report, status = compare(corpus, handle.read().splitlines())
    print("\n".join(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
