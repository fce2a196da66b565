"""Command-line front end.

    qsdcsim run --config FILE [--seed N] [--transcript PATH]
    qsdcsim sweep --config FILE [--out DIR]
    qsdcsim selftest

Exit codes: 0 success (a protocol abort is a result, not a failure),
1 internal or protocol failure, 2 bad configuration.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from functools import lru_cache
from typing import TextIO

from .errors import ConfigError, ProtocolError
from .fabric import Transcript
from .harness import load_config, run_report, run_selftest, sweep_csv


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: parsing
    writes only into the fresh namespace each call returns, so one parser
    serves every ``main`` call of a process."""
    parser = argparse.ArgumentParser(
        prog="qsdcsim",
        description=(
            "Deterministic simulator for direct-communication protocols over "
            "rearranged single photons, with pluggable eavesdropping strategies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single session and print its JSON report")
    run_p.add_argument("--config", required=True, help="path to a JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument(
        "--transcript", default=None, help="write the session transcript (JSON Lines) here"
    )

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep and emit a CSV table")
    sweep_p.add_argument("--config", required=True, help="path to a JSON experiment config")
    sweep_p.add_argument(
        "--out", default=None, help="directory for sweep.csv (default: CSV on stdout)"
    )

    sub.add_parser("selftest", help="run the exhaustive kernel equivalence and invariants")
    return parser


def open_output(path: str) -> TextIO:
    """Open an output file for writing. Commands call this before the
    first session runs, so a path that cannot be written is a
    configuration error and no work is lost to it."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config.session_config(args.seed)  # refuse a bad seed before the transcript opens
    with open_output(args.transcript) if args.transcript else nullcontext() as fh:
        transcript = None if fh is None else Transcript()
        report = run_report(config, seed_override=args.seed, transcript=transcript)
        print(json.dumps(report, sort_keys=True, indent=2))
        if transcript is not None:
            fh.write(transcript.to_jsonl())
            fh.write("\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if not args.out:
        sys.stdout.write(sweep_csv(config))
        return 0
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {args.out}: {exc}") from exc
    path = os.path.join(args.out, "sweep.csv")
    with open_output(path) as fh:
        fh.write(sweep_csv(config))
    print(path)
    return 0


def cmd_selftest() -> int:
    result = run_selftest()
    for line in result.lines():
        print(line)
    if not result.ok:
        print("selftest FAILED", file=sys.stderr)
        return 1
    print("selftest OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_selftest()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
