"""Convex recovery programs for low-rank matrix reconstruction.

Three programs are solved at desk scale:

* matrix Basis Pursuit:    min ||Z||_*  s.t. ||y - A(Z)||_2 <= eps
* matrix Dantzig Selector: min ||Z||_*  s.t. ||A*(y - A(Z))||_2 <= lam
                           (operator norm of the residual correlation matrix)
* matrix LASSO:            min 0.5*||y - A(Z)||_2^2 + mu*||Z||_*

The constrained programs use linearized ADMM (singular value soft-threshold
as the Z-update, a Euclidean-ball or operator-norm-ball projection as the
auxiliary update); the penalized program uses FISTA with adaptive restart.
Non-convergence is flagged on the result, never raised, so Monte Carlo
drivers can count failures.

``SolverConfig.admm_rho`` is the ADMM penalty.  mDS keeps it fixed.  mBP
starts from it and balances the residuals (Boyd et al. 2011, section 3.4.1):
while fewer than 200 iterations have run and epsilon > 0, the penalty
doubles when the primal residual exceeds 10 times the dual residual and
halves in the opposite case, and the scaled dual variable is rescaled to
match.  The gradient step 1/(1.01 lambda_max) does not depend on the
penalty; the soft-threshold 1/(1.01 rho lambda_max) does.  At epsilon = 0
the dual residual is identically 0, so the penalty stays fixed there.
"""

from dataclasses import dataclass

import numpy as np

from nucrec.linalg import prox_nuclear, nuclear_norm, operator_norm, svd
from nucrec.operators import apply_op, adjoint, gram_apply


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20000
    abs_tol: float = 1e-8
    rel_tol: float = 1e-6
    admm_rho: float = 1.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.admm_rho <= 0:
            raise ValueError("admm_rho must be positive")


@dataclass
class RecoveryResult:
    x_hat: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    feasible: bool
    converged: bool


def power_iteration_gram_norm(op, tol=1e-10, max_iters=1000):
    """Largest eigenvalue of the Gram composition adjoint(apply(.)).

    Equals the square of the unconstrained maximal singular value of the
    operator.  Deterministic: the start vector depends only on the shape.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0x9E3779B9)))
    v = rng.standard_normal(op.shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        gv = gram_apply(op, v)
        nrm = np.linalg.norm(gv)
        if nrm == 0.0:
            return 0.0
        lam_new = float(np.tensordot(v, gv, axes=([0, 1], [0, 1])))
        v = gv / nrm
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-300):
            return lam_new
        lam = lam_new
    return lam


def _project_ball(p, center, radius):
    d = p - center
    nrm = np.linalg.norm(d)
    if nrm <= radius or nrm == 0.0:
        return p
    return center + d * (radius / nrm)


def _project_opnorm_ball(w, radius, shape):
    """Clip the singular values of the vectorized ``shape`` matrix ``w``."""
    f = svd(w.reshape(shape))
    return ((f.u * np.minimum(f.sigma, radius)) @ f.v.T).reshape(-1)


# mBP residual balancing, as described in the module docstring
BALANCE_RATIO = 10.0
BALANCE_ITERS = 200


def solve_mbp(scenario, epsilon, cfg=None):
    """Matrix Basis Pursuit via linearized ADMM with residual balancing.

    The splitting introduces v = A(Z) constrained to the epsilon-ball around
    y (the single point {y} when epsilon = 0).  The loop runs on vectorized
    Z through ``op.flat`` and reuses A(Z) from the previous iteration.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    cfg = cfg or SolverConfig()
    op = scenario.operator
    y = scenario.y
    rho = cfg.admm_rho
    lam_gram = power_iteration_gram_norm(op)
    if lam_gram == 0.0:
        # zero operator: any feasibility is decided by ||y|| vs epsilon
        x_hat = np.zeros(op.shape)
        feas = np.linalg.norm(y) <= epsilon + cfg.abs_tol
        return RecoveryResult(x_hat, 0, float(np.linalg.norm(y)), 0.0, 0.0, feas, feas)
    a = op.flat
    step = 1.0 / (lam_gram * 1.01)
    # at epsilon = 0, v == y and the dual residual is 0: never balance there
    balance_iters = BALANCE_ITERS if epsilon > 0 else 0

    z = np.zeros(a.shape[1])
    az = np.zeros(op.m)
    v = _project_ball(az, y, epsilon)
    u = np.zeros(op.m)
    converged = False
    it = 0
    pri = dual = np.inf
    for it in range(1, cfg.max_iters + 1):
        z = prox_nuclear((z - step * ((az - v + u) @ a)).reshape(op.shape), step / rho).reshape(-1)
        az = a @ z
        v_old = v
        v = _project_ball(az + u, y, epsilon)
        u = u + az - v
        pri = float(np.linalg.norm(az - v))
        dual = float(rho * np.linalg.norm((v - v_old) @ a))
        if pri <= cfg.abs_tol and dual <= cfg.abs_tol:
            converged = True
            break
        if it < balance_iters:
            if pri > BALANCE_RATIO * dual:
                rho, u = 2.0 * rho, u / 2.0
            elif dual > BALANCE_RATIO * pri:
                rho, u = rho / 2.0, 2.0 * u
    x_hat = z.reshape(op.shape)
    feasible = float(np.linalg.norm(y - az)) <= epsilon + 10 * cfg.abs_tol
    return RecoveryResult(x_hat, it, pri, dual, nuclear_norm(x_hat), feasible, converged)


def solve_mds(scenario, lam, cfg=None):
    """Matrix Dantzig Selector via linearized ADMM at the fixed penalty.

    Auxiliary matrix variable W = A*(y) - A*(A(Z)) is kept inside the
    operator-norm ball of radius lam by singular value clipping.  The loop
    runs on vectorized matrices through ``op.flat`` and reuses G(Z) =
    A*(A(Z)) from the previous iteration.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    cfg = cfg or SolverConfig()
    op = scenario.operator
    y = scenario.y
    rho = cfg.admm_rho
    lam_gram = power_iteration_gram_norm(op)
    if lam_gram == 0.0:
        x_hat = np.zeros(op.shape)
        return RecoveryResult(x_hat, 0, 0.0, 0.0, 0.0, True, True)
    # linear map G = A* A; Lipschitz constant of G o G is lam_gram^2
    t = 1.0 / (rho * lam_gram**2 * 1.01)
    step = t * rho
    a = op.flat
    c = y @ a

    def g(x):
        return (a @ x) @ a

    z = np.zeros(a.shape[1])
    gz = np.zeros(a.shape[1])
    w = _project_opnorm_ball(c, lam, op.shape)
    u = np.zeros(a.shape[1])
    converged = False
    it = 0
    pri = dual = np.inf
    for it in range(1, cfg.max_iters + 1):
        z = prox_nuclear((z - step * g(gz + w - c + u)).reshape(op.shape), t).reshape(-1)
        gz = g(z)
        w_old = w
        w = _project_opnorm_ball(c - gz - u, lam, op.shape)
        u = u + gz + w - c
        pri = float(np.linalg.norm(gz + w - c))
        dual = float(rho * np.linalg.norm(g(w - w_old)))
        if pri <= cfg.abs_tol and dual <= cfg.abs_tol:
            converged = True
            break
    x_hat = z.reshape(op.shape)
    resid_corr = adjoint(op, y - apply_op(op, x_hat))
    feasible = operator_norm(resid_corr) <= lam + 10 * cfg.abs_tol
    return RecoveryResult(x_hat, it, pri, dual, nuclear_norm(x_hat), feasible, converged)


def solve_mlasso(scenario, mu, cfg=None):
    """Matrix LASSO via FISTA with adaptive (function value) restart.

    The returned ``feasible`` flag certifies stationarity through the
    nuclear-norm subgradient characterization: every singular value of
    A*(y - A(x_hat)) is at most mu*(1 + rel_tol) and the residual
    correlation aligns with x_hat, <A*(y - A(x_hat)), x_hat> >=
    mu*||x_hat||_* * (1 - rel_tol).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    cfg = cfg or SolverConfig()
    op = scenario.operator
    y = scenario.y
    lam_gram = power_iteration_gram_norm(op)
    step = 1.0 / (lam_gram * 1.0000001) if lam_gram > 0 else 1.0

    def objective(x):
        r = y - apply_op(op, x)
        return 0.5 * float(r @ r) + mu * nuclear_norm(x)

    z = np.zeros(op.shape)
    x_prev = z.copy()
    theta = 1.0
    f_prev = objective(z)
    converged = False
    restarted = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        grad = -adjoint(op, y - apply_op(op, z))
        x = prox_nuclear(z - step * grad, step * mu)
        f_x = objective(x)
        if f_x > f_prev + 1e-14 * max(1.0, abs(f_prev)):  # adaptive restart
            if restarted:
                # a fresh prox-gradient step from the incumbent cannot
                # increase the objective except by roundoff: we are done
                converged = True
                break
            theta = 1.0
            z = x_prev.copy()
            restarted = True
            continue
        restarted = False
        theta_new = 0.5 * (1 + np.sqrt(1 + 4 * theta**2))
        z = x + ((theta - 1) / theta_new) * (x - x_prev)
        theta = theta_new
        change = float(np.linalg.norm(x - x_prev))
        x_prev = x
        if abs(f_prev - f_x) <= 1e-13 * max(1.0, abs(f_x)) and change <= cfg.abs_tol * max(
            1.0, float(np.linalg.norm(x))
        ):
            converged = True
            break
        f_prev = f_x
    x_hat = x_prev
    resid_corr = adjoint(op, y - apply_op(op, x_hat))
    top = operator_norm(resid_corr)
    align = float(np.tensordot(resid_corr, x_hat, axes=([0, 1], [0, 1])))
    nn = nuclear_norm(x_hat)
    stationary = top <= mu * (1 + cfg.rel_tol) + cfg.abs_tol and align >= mu * nn * (
        1 - cfg.rel_tol
    ) - cfg.abs_tol
    return RecoveryResult(x_hat, it, 0.0, 0.0, objective(x_hat), stationary, converged)
