"""Command line front end.

    markovlab --config experiment.cfg [--out DIR]

Reads a scenario configuration, runs it and writes a CSV table plus a
PASS/FAIL summary into the output directory.  Exit status 0 means every
check passed, 1 a scientific check failed (for ``green``, a step too
coarse for ``tol_march_error``), 2 a usage or configuration error: a bad
key or value, an input beyond the float range, or a size beyond memory.
"""

from __future__ import annotations

import argparse
import sys

from markovlab.config import ConfigError, parse_config
from markovlab.scenarios import run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovlab",
        description="Run open-quantum-system scenarios from a configuration file.")
    parser.add_argument("--config", required=True, help="path to the configuration file")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        return run_scenario(parse_config(text), out_dir=args.out)
    except ValueError as exc:
        # ConfigError and any domain validation problem with the inputs
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
