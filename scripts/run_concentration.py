#!/usr/bin/env python3
"""Concentration sweep: how fast do the constrained extremal singular values
of a normalized random operator concentrate around 1 as m grows?

Writes montecarlo.csv / montecarlo.json into the output directory and prints
the per-m in-band fraction table.
"""

import argparse
import json
import sys

from nucrec.cli import EXIT_CONFIG
from nucrec.config_schema import ConfigError, validate
from nucrec.experiments import run_montecarlo_cmsv


def build_config(args):
    return {
        "kind": "montecarlo",
        "ensemble": {"kind": args.ensemble, "n1": args.n, "n2": args.n, "m": args.m_sweep[-1]},
        "estimation": {
            "tau": args.tau,
            "starts": args.starts,
            "m_sweep": args.m_sweep,
            "epsilon_band": args.band,
        },
        "trials": args.trials,
        "seed": args.seed,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ensemble", choices=["gaussian", "rademacher"], default="gaussian")
    parser.add_argument("--n", type=int, default=8, help="matrix side length")
    parser.add_argument("--tau", type=float, default=2.0)
    parser.add_argument("--m-sweep", type=int, nargs="+", default=[64, 128, 256, 512])
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--starts", type=int, default=8)
    parser.add_argument("--band", type=float, default=0.35, help="half-width around 1")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default="out/concentration")
    args = parser.parse_args()

    config = build_config(args)
    try:
        validate(config)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary = run_montecarlo_cmsv(config, args.out, jobs=args.jobs)
    print(f"{'m':>6} {'in-band':>8} {'mean rho_min':>13} {'mean rho_max':>13}")
    for m in config["estimation"]["m_sweep"]:
        block = summary["per_m"][str(m)]
        print(
            f"{m:>6} {block['fraction_in_band']:>8.2f}"
            f" {block['mean_rho_min']:>13.4f} {block['mean_rho_max']:>13.4f}"
        )
    print(json.dumps({"config_hash": summary["config_hash"], "out": args.out}))


if __name__ == "__main__":
    sys.exit(main())
