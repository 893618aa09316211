"""The benchmark's workloads: the nucrec CLI invocations each one runs, with
configs made from the benchmark seed.

Every config is normalized (entries scaled by 1/sqrt(m)), so the extremal
singular values sit near 1 and the checks can use fixed bands.  The shapes
fix which layer does the work; see README.md.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

# Davidson-Szarek slack for the concentration band, on top of sqrt(n1*n2/m).
BAND_SLACK = 0.15
BAND_M = 512
RECOVERY_EPSILON = 0.05
RECOVERY_M = 160


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation.  ``make_config(seed, ref_dir)`` returns its config;
    ``ref_dir`` holds the outputs of the earlier invocations of the
    reference round, for configs calibrated from them."""

    name: str
    subcommand: str
    make_config: Callable


def _ensemble(kind, n1, n2, m):
    return {"kind": kind, "n1": n1, "n2": n2, "m": m, "normalize": True}


def _montecarlo(seed, ref_dir):
    return {
        "kind": "montecarlo",
        "ensemble": _ensemble("gaussian", 8, 8, BAND_M),
        "estimation": {"tau": 2.0, "starts": 8, "m_sweep": [64, BAND_M], "epsilon_band": 0.35},
        "trials": 1,
        "seed": seed,
    }


def _cmsv(seed, ref_dir):
    return {
        "kind": "cmsv",
        "ensemble": _ensemble("rademacher", 6, 10, 120),
        "estimation": {"tau": 3.0, "starts": 8},
        "trials": 1,
        "seed": seed,
    }


def _noise_cal(seed, ref_dir):
    # Gaussian noise of the same expected norm as the bounded noise below.
    return {
        "kind": "noise-calibration",
        "ensemble": _ensemble("gaussian", 12, 12, RECOVERY_M),
        "noise": {"kind": "gaussian", "sigma": RECOVERY_EPSILON / math.sqrt(RECOVERY_M)},
        "trials": 200,
        "seed": seed,
    }


def _calibration(ref_dir):
    with open(ref_dir / "noise-cal" / "noise_cal.json") as fh:
        return json.load(fh)


def _recover_12(trials, algorithm):
    def make_config(seed, ref_dir):
        return {
            "kind": "recover",
            "ensemble": _ensemble("gaussian", 12, 12, RECOVERY_M),
            "signal": {"r": 2},
            "noise": {"kind": "bounded", "epsilon": RECOVERY_EPSILON},
            "algorithm": algorithm(ref_dir),
            "trials": trials,
            "seed": seed,
        }

    return make_config


def _bounds(seed, ref_dir):
    return {
        "kind": "bounds",
        "ensemble": _ensemble("gaussian", 3, 3, 20),
        "signal": {"r": 1},
        "epsilon_grid": [0.0, 0.05, 0.1, 0.2],
        "trials": 1,
        "seed": seed,
    }


def _recover_3(seed, ref_dir):
    return {
        "kind": "recover",
        "ensemble": _ensemble("gaussian", 3, 3, 12),
        "signal": {"r": 1},
        "noise": {"kind": "bounded", "epsilon": RECOVERY_EPSILON},
        "algorithm": {"name": "mbp", "epsilon": RECOVERY_EPSILON},
        "trials": 8,
        "seed": seed,
    }


WORKLOADS = {
    "concentration": (
        Invocation("montecarlo", "montecarlo", _montecarlo),
        Invocation("cmsv", "cmsv", _cmsv),
    ),
    "recovery": (
        Invocation("noise-cal", "noise-cal", _noise_cal),
        Invocation("mbp", "recover", _recover_12(16, lambda d: {"name": "mbp", "epsilon": RECOVERY_EPSILON})),
        Invocation("mds", "recover", _recover_12(2, lambda d: {"name": "mds", "lambda": _calibration(d)["suggested_lambda"]})),
        Invocation("mlasso", "recover", _recover_12(6, lambda d: {"name": "mlasso", "mu": _calibration(d)["suggested_mu"]})),
    ),
    "oracle": (
        Invocation("bounds", "bounds", _bounds),
        Invocation("recover", "recover", _recover_3),
    ),
}
