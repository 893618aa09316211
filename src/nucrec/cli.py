"""Command-line driver for desk-scale recovery and concentration experiments.

Subcommands: recover, cmsv, montecarlo, bounds, noise-cal.  Each takes a JSON
config (validated against schema/experiment.schema.json) plus optional
overrides, and writes CSV and JSON into the output directory.

Exit codes: 0 success, 2 config error, 3 solver non-convergence (partial
results written), 4 I/O error.
"""

import argparse
import json
import sys

import jsonschema

from nucrec.config_schema import SCHEMA
from nucrec.experiments import RUNNERS, SolverDidNotConverge

_SUBCOMMAND_KIND = {
    "recover": "recover",
    "cmsv": "cmsv",
    "montecarlo": "montecarlo",
    "bounds": "bounds",
    "noise-cal": "noise-calibration",
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nucrec",
        description="Low-rank matrix recovery and constrained singular value experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMAND_KIND:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the trials; noise-cal is one operator "
                       "and runs in one process")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default=None,
                       help="restrict output to one format (default: both)")
    return parser


def load_config(path):
    with open(path) as fh:
        config = json.load(fh)
    jsonschema.validate(config, SCHEMA)
    return config


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (json.JSONDecodeError, jsonschema.ValidationError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    expected_kind = _SUBCOMMAND_KIND[args.command]
    if config["kind"] != expected_kind:
        print(
            f"error: config kind {config['kind']!r} does not match subcommand {args.command!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    if args.seed is not None:
        config["seed"] = args.seed
    if args.trials is not None:
        config["trials"] = args.trials
    try:
        # load_config has checked SCHEMA itself; this checks the overrides
        jsonschema.validators.validator_for(SCHEMA)(SCHEMA).validate(config)
    except jsonschema.ValidationError as exc:
        print(f"error: invalid override: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or config.get("output_path", ".")

    formats = (args.format,) if args.format else ("csv", "json")
    runner = RUNNERS[expected_kind]
    try:
        runner(config, out_dir, jobs=args.jobs, formats=formats)
    except SolverDidNotConverge as exc:
        print(f"warning: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
