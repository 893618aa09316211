"""Closed-form stability bounds for the three recovery programs, the
restricted-isometry-based alternatives, the noise correlation calibration
helper, and the assembled bound-versus-realized-error report.
"""

import math
from dataclasses import dataclass

import numpy as np

from nucrec.linalg import (
    frobenius_norm,
    nuclear_norm,
    lstar_rank,
    numerical_rank,
    decompose_error,
    operator_norm,
)
from nucrec.operators import adjoint, apply_op
from nucrec.ensembles import draw_gaussian_noise, derive_seed

SQRT2 = math.sqrt(2.0)


class BoundInapplicable(ValueError):
    """The bound's validity condition fails (not a numerical error)."""


def bound_mbp(epsilon, rho_8r):
    """Basis Pursuit error bound 2*epsilon / rho."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if rho_8r <= 0:
        raise BoundInapplicable("bound requires rho > 0")
    return 2.0 * epsilon / rho_8r


def bound_mds(r, lam, rho_8r):
    """Dantzig Selector error bound 4*sqrt(2)*sqrt(r)*lambda / rho^2."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if rho_8r <= 0:
        raise BoundInapplicable("bound requires rho > 0")
    return 4.0 * SQRT2 * math.sqrt(r) * lam / rho_8r**2


def lasso_subscript(r, kappa):
    """Constraint level for the LASSO bound's rho estimate: 8r/(1-kappa)^2."""
    if not 0 < kappa < 1:
        raise ValueError("kappa must lie in (0, 1)")
    return 8.0 * r / (1.0 - kappa) ** 2


def bound_mlasso(r, mu, kappa, rho):
    """LASSO error bound (1+kappa)/(1-kappa) * 2*sqrt(2)*sqrt(r)*mu / rho^2.

    ``rho`` must be the estimate at constraint level ``lasso_subscript(r,
    kappa)``.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not 0 < kappa < 1:
        raise ValueError("kappa must lie in (0, 1)")
    if rho <= 0:
        raise BoundInapplicable("bound requires rho > 0")
    return (1.0 + kappa) / (1.0 - kappa) * 2.0 * SQRT2 * math.sqrt(r) * mu / rho**2


def bound_mbp_mric(epsilon, delta_4r):
    """Restricted-isometry Basis Pursuit bound, valid for delta_4r < sqrt(2)-1."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if delta_4r < 0:
        raise ValueError("delta must be nonnegative")
    if delta_4r >= SQRT2 - 1.0:
        raise BoundInapplicable("requires delta_4r < sqrt(2) - 1")
    return 4.0 * math.sqrt(1.0 + delta_4r) / (1.0 - (1.0 + SQRT2) * delta_4r) * epsilon


@dataclass
class BoundReport:
    """Realized error versus the matching closed-form bound for one solve.

    ``holds`` is recorded, never assumed, at the level the solve reached
    (see :func:`verify_bound`); ``bound_value`` and ``slack_ratio`` are
    nominal.  ``rho_onesided`` is False only for an exact rho; a false
    ``holds`` with it set means the rho input was one-sided evidence, so a
    miss does not contradict the guarantee with the true rho.
    """

    algorithm: str
    realized_error: float
    bound_value: float
    holds: bool
    slack_ratio: float
    cone_check: dict
    rho_onesided: bool


def expected_subscript(algorithm, r, kappa, n_min):
    """Constraint level tau of the rho estimate a bound needs:
    min(8r, n_min) for mBP and mDS, min(8r/(1-kappa)^2, n_min) for mLASSO."""
    if algorithm in ("mbp", "mds"):
        return min(8.0 * r, float(n_min))
    return min(lasso_subscript(r, kappa), float(n_min))


def verify_bound(scenario, result, algorithm, params, rho_estimate):
    """Assemble a :class:`BoundReport` for a completed solve.

    ``params`` carries the program parameter ('epsilon', 'lambda' or 'mu',
    plus 'kappa' for the LASSO).  ``rho_estimate`` must be a tau-constrained
    estimate at the algorithm's constraint level (:func:`expected_subscript`);
    a rank-constrained estimate or another level raises ValueError.

    A solver meets its constraint only to its tolerance, so for mBP and mDS
    ``holds`` takes the bound at the mean of the nominal level and the level
    the result reached: eps' = max(eps, ||y - A(x_hat)||), giving (eps +
    eps')/rho, and lambda' = max(lambda, ||A*(y - A(x_hat))||_op).
    """
    if algorithm not in ("mbp", "mds", "mlasso"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    x_true = np.asarray(scenario.x_true)
    h = np.asarray(result.x_hat) - x_true
    realized = frobenius_norm(h)
    r = max(1, numerical_rank(x_true))
    n_min = min(x_true.shape)
    kappa = params.get("kappa", 0.0)
    expected_tau = expected_subscript(algorithm, r, kappa, n_min)
    tau = rho_estimate.tau
    if tau is None or abs(tau - expected_tau) > 1e-9 * max(1.0, expected_tau):
        raise ValueError(
            f"rho estimate at tau={tau}, algorithm needs {expected_tau}"
        )
    rho = rho_estimate.value

    op = scenario.operator
    if algorithm == "mbp":
        noise_param = params["epsilon"]
        bound = bound_mbp(noise_param, rho)
        reached = float(np.linalg.norm(scenario.y - apply_op(op, result.x_hat)))
        bound_reached = bound_mbp(0.5 * (noise_param + max(noise_param, reached)), rho)
        tau_limit = 8.0 * r
    elif algorithm == "mds":
        noise_param = params["lambda"]
        bound = bound_mds(r, noise_param, rho)
        reached = operator_norm(adjoint(op, scenario.y - apply_op(op, result.x_hat)))
        bound_reached = bound_mds(r, 0.5 * (noise_param + max(noise_param, reached)), rho)
        tau_limit = 8.0 * r
    else:
        noise_param = params["mu"]
        bound = bound_reached = bound_mlasso(r, noise_param, kappa, rho)
        tau_limit = lasso_subscript(r, kappa)

    h0, hc = decompose_error(h, x_true)
    cone_tol = 1e-6
    if realized <= 1e-12:
        tau_h = 1.0
        cone_ok = True
    else:
        tau_h = lstar_rank(h)
        factor = 1.0 if algorithm in ("mbp", "mds") else (1.0 + kappa) / (1.0 - kappa)
        cone_ok = (
            nuclear_norm(hc) <= factor * nuclear_norm(h0) + cone_tol
            and tau_h <= tau_limit + cone_tol
        )
    return BoundReport(
        algorithm=algorithm,
        realized_error=realized,
        bound_value=bound,
        holds=realized <= bound_reached,
        slack_ratio=bound / max(realized, 1e-12),
        cone_check={"tau_H": tau_h, "tau_limit": tau_limit, "satisfied": cone_ok},
        rho_onesided=rho_estimate.evidence != "exact",
    )


def noise_operator_bound(op, sigma, n2, trials, seed, c=8.0):
    """Empirical distribution of ||A*(w)||_2 over Gaussian noise draws.

    Returns a dict with the sorted values, quantiles, and the fraction
    exceeding c*sqrt(n2)*sigma.  Used to calibrate lambda and mu.
    """
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    values = np.empty(trials)
    for t in range(trials):
        w = draw_gaussian_noise(op.m, sigma, derive_seed(seed, t))
        values[t] = operator_norm(adjoint(op, w))
    values.sort()
    threshold = c * math.sqrt(n2) * sigma
    qs = [0.5, 0.9, 0.95, 0.99]
    return {
        "values": values,
        "threshold": threshold,
        "exceed_fraction": float(np.mean(values > threshold)),
        "quantiles": {str(q): float(np.quantile(values, q)) for q in qs},
        "sigma": float(sigma),
        "c": float(c),
    }
