#!/usr/bin/env python3
"""Bounds ledger demo: realized basis-pursuit error on oracle-sized instances
versus the two bound families (constrained-singular-value and restricted-
isometry), across a grid of noise levels.

The instance is kept at n1*n2 <= 9 so the minimal constrained singular value
can be brute-forced rather than estimated.
"""

import argparse
import sys

from nucrec.cli import EXIT_CONFIG
from nucrec.config_schema import ConfigError, validate
from nucrec.experiments import run_bounds_ledger


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n1", type=int, default=2)
    parser.add_argument("--n2", type=int, default=2)
    parser.add_argument("--m", type=int, default=8)
    parser.add_argument("--rank", type=int, default=1)
    parser.add_argument(
        "--epsilon-grid", type=float, nargs="+", default=[0.0, 0.02, 0.05, 0.1, 0.2]
    )
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out/bounds_ledger")
    args = parser.parse_args()

    config = {
        "kind": "bounds",
        "ensemble": {
            "kind": "gaussian",
            "n1": args.n1,
            "n2": args.n2,
            "m": args.m,
            "normalize": True,
        },
        "signal": {"r": args.rank},
        "epsilon_grid": args.epsilon_grid,
        "trials": args.trials,
        "seed": args.seed,
    }
    try:
        validate(config)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary = run_bounds_ledger(config, args.out)
    header = f"{'eps':>6} {'trial':>5} {'error':>10} {'csv bound':>10} {'ric bound':>12}"
    print(header)
    for row in summary["rows"]:
        ric = row["mric_bound"] if row["mric_applicable"] else "n/a"
        ric_s = f"{ric:>12.4f}" if isinstance(ric, float) else f"{ric:>12}"
        cb = row["cmsv_bound"]
        cb_s = f"{cb:>10.4f}" if isinstance(cb, float) else f"{cb:>10}"
        print(
            f"{row['epsilon']:>6.3f} {row['trial']:>5} {row['realized_error']:>10.5f}"
            f" {cb_s} {ric_s}"
        )
    print(f"wrote {args.out}/bounds.csv and bounds.json")


if __name__ == "__main__":
    sys.exit(main())
