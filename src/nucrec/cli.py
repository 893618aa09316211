"""Command-line driver for desk-scale recovery and concentration experiments.

Subcommands: recover, cmsv, montecarlo, bounds, noise-cal.  Each takes a JSON
config plus optional overrides and checks both with nucrec.config_schema.validate
against SCHEMA, whose branch for the config's kind says what the kind reads and
needs (integers must be integer literals; NaN and Infinity are rejected).  It
then checks that the kind matches the subcommand and that ``estimation.tau``
and ``signal.r`` fit the matrix shape, and writes CSV and JSON into the output
directory.

Exit codes: 0 success, 2 config error, 3 solver non-convergence (partial
results written), 4 I/O error.
"""

import argparse
import json
import sys

from nucrec.config_schema import ConfigError, validate
from nucrec.experiments import DEFAULT_TAU, RUNNERS, SolverDidNotConverge

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


def _reject_constant(name):
    raise ConfigError(f"{name} is not valid JSON")


def load_config(path):
    with open(path) as fh:
        config = json.load(fh, parse_constant=_reject_constant)
    validate(config)
    return config


def _check_runnable(config, command):
    """Raise ConfigError for a config that SCHEMA accepts but ``command``
    cannot run: one of another kind, or one whose ``estimation.tau``
    (default ``DEFAULT_TAU``) or ``signal.r`` exceeds min(n1, n2), a
    comparison across fields that the schema does not make."""
    kind = config["kind"]
    if kind != _SUBCOMMAND_KIND[command]:
        raise ConfigError(f"config kind {kind!r} does not match subcommand {command!r}")
    n_min = min(config["ensemble"]["n1"], config["ensemble"]["n2"])
    tau = config.get("estimation", {}).get("tau", DEFAULT_TAU)
    if kind in ("cmsv", "montecarlo") and tau > n_min:
        raise ConfigError(f"estimation.tau: {tau!r} exceeds min(n1, n2) = {n_min}")
    if "signal" in config and config["signal"]["r"] > n_min:
        raise ConfigError(f"signal.r: {config['signal']['r']!r} exceeds min(n1, n2) = {n_min}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        _check_runnable(config, args.command)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (json.JSONDecodeError, ConfigError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.seed is not None:
        config["seed"] = args.seed
    if args.trials is not None:
        config["trials"] = args.trials
    try:
        validate(config)
    except ConfigError as exc:
        print(f"error: invalid override: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or config.get("output_path", ".")

    formats = (args.format,) if args.format else ("csv", "json")
    runner = RUNNERS[config["kind"]]
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
