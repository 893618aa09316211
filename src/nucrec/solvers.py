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
"""

from dataclasses import dataclass, field

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
    history: list = field(default_factory=list)


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


def _project_opnorm_ball(w, radius):
    f = svd(w)
    s = np.minimum(f.sigma, radius)
    return (f.u * s) @ f.v.T


def solve_mbp(scenario, epsilon, cfg=None):
    """Matrix Basis Pursuit via linearized ADMM.

    The splitting introduces v = A(Z) constrained to the epsilon-ball around
    y (the single point {y} when epsilon = 0).
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
    t = 1.0 / (rho * lam_gram * 1.01)

    z = np.zeros(op.shape)
    v = _project_ball(np.zeros(op.m), y, epsilon)
    u = np.zeros(op.m)
    history = []
    converged = False
    it = 0
    pri = dual = np.inf
    for it in range(1, cfg.max_iters + 1):
        az = apply_op(op, z)
        z = prox_nuclear(z - t * rho * adjoint(op, az - v + u), t)
        az = apply_op(op, z)
        v_old = v
        v = _project_ball(az + u, y, epsilon)
        u = u + az - v
        pri = float(np.linalg.norm(az - v))
        dual = float(rho * np.linalg.norm(adjoint(op, v - v_old)))
        if it % 100 == 0 or it == 1:
            history.append((it, nuclear_norm(z), pri))
        if pri <= cfg.abs_tol and dual <= cfg.abs_tol:
            converged = True
            break
    obj = nuclear_norm(z)
    history.append((it, obj, pri))
    feasible = float(np.linalg.norm(y - apply_op(op, z))) <= epsilon + 10 * cfg.abs_tol
    return RecoveryResult(z, it, pri, dual, obj, feasible, converged, history)


def solve_mds(scenario, lam, cfg=None):
    """Matrix Dantzig Selector via linearized ADMM.

    Auxiliary matrix variable W = A*(y) - A*(A(Z)) is kept inside the
    operator-norm ball of radius lam by singular value clipping.
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
    c = adjoint(op, y)

    def g(x):
        return gram_apply(op, x)

    z = np.zeros(op.shape)
    w = _project_opnorm_ball(c, lam)
    u = np.zeros(op.shape)
    history = []
    converged = False
    it = 0
    pri = dual = np.inf
    for it in range(1, cfg.max_iters + 1):
        gz = g(z)
        z = prox_nuclear(z - t * rho * g(gz + w - c + u), t)
        gz = g(z)
        w_old = w
        w = _project_opnorm_ball(c - gz - u, lam)
        u = u + gz + w - c
        pri = float(np.linalg.norm(gz + w - c))
        dual = float(rho * np.linalg.norm(g(w - w_old)))
        if it % 100 == 0 or it == 1:
            history.append((it, nuclear_norm(z), pri))
        if pri <= cfg.abs_tol and dual <= cfg.abs_tol:
            converged = True
            break
    obj = nuclear_norm(z)
    history.append((it, obj, pri))
    resid_corr = adjoint(op, y - apply_op(op, z))
    feasible = operator_norm(resid_corr) <= lam + 10 * cfg.abs_tol
    return RecoveryResult(z, it, pri, dual, obj, feasible, converged, history)


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
    history = [(0, f_prev, np.inf)]
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
        if it % 100 == 0 or it == 1:
            history.append((it, f_x, change))
        if abs(f_prev - f_x) <= 1e-13 * max(1.0, abs(f_x)) and change <= cfg.abs_tol * max(
            1.0, float(np.linalg.norm(x))
        ):
            f_prev = f_x
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
    obj = objective(x_hat)
    history.append((it, obj, 0.0))
    return RecoveryResult(x_hat, it, 0.0, 0.0, obj, stationary, converged, history)
