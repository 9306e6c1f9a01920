"""Command-line entry point: list, run, and check scenarios.

Exit codes: 0 success, 1 golden mismatch or oracle divergence, 2 unknown
scenario or usage error, 3 non-quiescent run.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .network import NonQuiescent, VisibilityMismatch
from .scenarios import SCENARIOS, run_scenario

__all__ = ["main"]


def _golden_text(name: str) -> str:
    return (
        resources.files("dataspace")
        .joinpath("goldens", f"{name}.jsonl")
        .read_text(encoding="utf-8")
    )


def _cmd_list() -> int:
    for name in SCENARIOS:
        print(name)
    return 0


def _cmd_run(name: str, out) -> int:
    _, lines = run_scenario(name)
    text = "\n".join(lines) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write --out {out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _cmd_check(name: str) -> int:
    try:
        _, lines = run_scenario(name, oracle=True)
    except VisibilityMismatch as exc:
        print(f"{name}: oracle divergence: {exc}", file=sys.stderr)
        return 1
    golden = _golden_text(name).splitlines()
    for i, (got, want) in enumerate(zip(lines, golden)):
        if got != want:
            print(f"{name}: mismatch at line {i}", file=sys.stderr)
            print(f"  expected: {want}", file=sys.stderr)
            print(f"  actual:   {got}", file=sys.stderr)
            return 1
    if len(lines) != len(golden):
        print(
            f"{name}: length mismatch at line {min(len(lines), len(golden))} "
            f"(expected {len(golden)} lines, got {len(lines)})",
            file=sys.stderr,
        )
        return 1
    print(f"{name}: ok ({len(lines)} trace entries)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dataspace",
        description="Run and verify deterministic dataspace coordination scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="print known scenario names")
    p_run = sub.add_parser("run", help="run a scenario and emit its trace")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="write trace to a file")
    p_check = sub.add_parser(
        "check", help="run with the visibility oracle on and diff against the golden"
    )
    p_check.add_argument("scenario")
    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list()

    if args.scenario not in SCENARIOS:
        print(f"unknown scenario: {args.scenario}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return _cmd_run(args.scenario, args.out)
        return _cmd_check(args.scenario)
    except NonQuiescent as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
