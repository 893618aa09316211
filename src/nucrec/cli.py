"""Command-line driver for desk-scale recovery and concentration experiments.

Subcommands: recover, cmsv, montecarlo, bounds, noise-cal.  Each takes a JSON
config plus optional overrides, checks both with nucrec.config_schema.validate
(integers must be integer literals; NaN and Infinity are rejected), checks that
the config holds what its kind needs and nothing its kind does not read, and
writes CSV and JSON into the output directory.

Exit codes: 0 success, 2 config error, 3 solver non-convergence (partial
results written), 4 I/O error.
"""

import argparse
import json
import sys

from nucrec.config_schema import ConfigError, validate
from nucrec.experiments import (
    COMMON_SECTIONS,
    MONTECARLO_ONLY_ESTIMATION,
    RUNNERS,
    SECTIONS_READ,
    SolverDidNotConverge,
)

_SUBCOMMAND_KIND = {
    "recover": "recover",
    "cmsv": "cmsv",
    "montecarlo": "montecarlo",
    "bounds": "bounds",
    "noise-cal": "noise-calibration",
}

# Sections and parameters the schema leaves optional but a kind's runner needs.
_KIND_NEEDS = {"recover": ("signal", "algorithm"), "bounds": ("signal",)}
_ALGORITHM_NEEDS = {"mds": "lambda", "mlasso": "mu"}

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
    """Raise ConfigError for a config the schema accepts but ``command``
    cannot run as written: another kind, a section or estimation key its
    runner never reads, a missing section or algorithm parameter its runner
    needs, or montecarlo with ``ensemble.normalize`` false, which its runner
    would override."""
    kind = config["kind"]
    if kind != _SUBCOMMAND_KIND[command]:
        raise ConfigError(f"config kind {kind!r} does not match subcommand {command!r}")
    for key in config:
        if key not in COMMON_SECTIONS and key not in SECTIONS_READ[kind]:
            raise ConfigError(f"{key}: not read by kind {kind!r}")
    if kind == "cmsv":
        for key in MONTECARLO_ONLY_ESTIMATION:
            if key in config.get("estimation", {}):
                raise ConfigError(f"estimation.{key}: not read by kind 'cmsv'")
    for key in _KIND_NEEDS.get(kind, ()):
        if key not in config:
            raise ConfigError(f"{key}: required for kind {kind!r}")
    if kind == "recover":
        name = config["algorithm"]["name"]
        param = _ALGORITHM_NEEDS.get(name)
        if param and param not in config["algorithm"]:
            raise ConfigError(f"algorithm.{param}: required for algorithm {name!r}")
    if kind == "montecarlo" and config["ensemble"].get("normalize") is False:
        raise ConfigError("ensemble.normalize: montecarlo always normalizes the operator; false is not supported")


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
