"""Convex recovery programs for low-rank matrix reconstruction.

Three programs are solved at desk scale:

* matrix Basis Pursuit:    min ||Z||_*  s.t. ||y - A(Z)||_2 <= eps
* matrix Dantzig Selector: min ||Z||_*  s.t. ||A*(y - A(Z))||_2 <= lam
                           (operator norm of the residual correlation matrix)
* matrix LASSO:            min 0.5*||y - A(Z)||_2^2 + mu*||Z||_*

Both constrained programs are min ||Z||_* s.t. M(Z) in C, solved by one
linearized ADMM loop (singular value soft-threshold as the Z-update,
projection onto C as the auxiliary update): mBP has M = A and C the eps-ball
around y; mDS has M = A*A and C the operator-norm ball of radius lam around
A*(y).  The penalized program uses FISTA with adaptive restart.
Non-convergence is flagged on the result, never raised, so Monte Carlo
drivers can count failures.

``SolverConfig`` holds what a solve reads: ``max_iters`` and ``abs_tol``
for all three programs, and ``admm_rho``, the ADMM penalty, for the two
constrained ones (mLASSO has none).  mDS keeps the penalty fixed.  mBP
starts from it and balances the residuals (Boyd et al. 2011, section 3.4.1):
while fewer than 200 iterations have run and epsilon > 0, the penalty
doubles when the primal residual exceeds 10 times the dual residual and
halves in the opposite case, and the scaled dual variable is rescaled to
match.  With lambda_M the largest eigenvalue of M*M, the gradient step
1/(1.01 lambda_M) does not depend on the penalty; the soft-threshold
1/(1.01 rho lambda_M) does.  At epsilon = 0 the dual residual is
identically 0, so the penalty stays fixed there.  Both programs over-relax
the loop (Eckstein & Bertsekas, Math. Program. 1992; Boyd et al. 2011,
section 3.4.3): the projection and the dual update take the relaxed point
h = RELAXATION*M(Z) + (1 - RELAXATION)*v_old, with RELAXATION = 1.8, in
place of M(Z).  The residuals, and so the stop test, are those of the
unrelaxed iterate.

lambda_M is the exact ``MeasurementOperator.gram_norm`` for mBP and its
square for mDS, computed once per operator and shared by every solve and
estimate on it; mDS and the mLASSO gradient G(Z) - A*(y) apply A*A with
``MeasurementOperator.gram_rows``, through the cached matrix
``MeasurementOperator.gram`` when 2m >= n1*n2.
"""

from dataclasses import dataclass

import numpy as np

from nucrec.linalg import prox_nuclear, nuclear_norm, operator_norm, svd
from nucrec.operators import apply_op, adjoint, gram_apply


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 20000
    abs_tol: float = 1e-8
    admm_rho: float = 1.0

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
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


def power_iteration_gram_norm(op):
    """Largest eigenvalue of the Gram composition adjoint(apply(.)), by
    power iteration.

    Equals the square of the unconstrained maximal singular value of the
    operator.  Deterministic: the start vector depends only on the shape.
    Stops once an iterate changes the estimate by at most 1e-10 of its
    value, or after 1000 iterations.

    No library path calls it: the solvers and ``estimate_cmsv`` read the
    exact ``MeasurementOperator.gram_norm``.  It stays as the tests'
    independent reference and as a name the benchmark tracer times.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0x9E3779B9)))
    v = rng.standard_normal(op.shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(1000):
        gv = gram_apply(op, v)
        nrm = np.linalg.norm(gv)
        if nrm == 0.0:
            return 0.0
        lam_new = float(np.tensordot(v, gv, axes=([0, 1], [0, 1])))
        v = gv / nrm
        if abs(lam_new - lam) <= 1e-10 * max(lam_new, 1e-300):
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
# over-relaxation of the v- and u-updates, as described in the module docstring
RELAXATION = 1.8


def _linearized_admm(forward, backward, project, lam_m, shape, cfg, balance_iters):
    """min ||Z||_* s.t. M(Z) in C on vectorized Z, with v = M(Z) in C and
    scaled dual u.  ``forward`` applies M, ``backward`` M*, ``project``
    projects onto C; ``lam_m`` is lambda_max(M*M).  M(Z) is reused from the
    previous iteration, and the penalty is balanced while fewer than
    ``balance_iters`` iterations have run.  The v- and u-updates are
    over-relaxed: with h = RELAXATION*M(Z) + (1 - RELAXATION)*v_old, they
    are v = project(h + u) and u = u + h - v.  Returns (Z, M(Z), iterations,
    primal residual ||M(Z) - v||, dual residual rho*||M*(v - v_old)||,
    converged).
    """
    rho = cfg.admm_rho
    step = 1.0 / (lam_m * 1.01)
    z = np.zeros(shape[0] * shape[1])
    mz = forward(z)
    v = project(mz)
    u = np.zeros_like(v)
    it, pri, dual, converged = 0, np.inf, np.inf, False
    for it in range(1, cfg.max_iters + 1):
        z = prox_nuclear((z - step * backward(mz - v + u)).reshape(shape), step / rho).reshape(-1)
        mz = forward(z)
        v_old = v
        h = RELAXATION * mz + (1.0 - RELAXATION) * v_old
        v = project(h + u)
        u = u + h - v
        pri = float(np.linalg.norm(mz - v))
        dual = float(rho * np.linalg.norm(backward(v - v_old)))
        if pri <= cfg.abs_tol and dual <= cfg.abs_tol:
            converged = True
            break
        if it < balance_iters:
            if pri > BALANCE_RATIO * dual:
                rho, u = 2.0 * rho, u / 2.0
            elif dual > BALANCE_RATIO * pri:
                rho, u = rho / 2.0, 2.0 * u
    return z, mz, it, pri, dual, converged


def solve_mbp(scenario, epsilon, cfg=None):
    """Matrix Basis Pursuit: the ADMM loop with M = A, applied through
    ``op.flat``, and C the epsilon-ball around y, with residual balancing."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    cfg = cfg or SolverConfig()
    op = scenario.operator
    y = scenario.y
    if op.gram_norm == 0.0:
        # zero operator: any feasibility is decided by ||y|| vs epsilon
        x_hat = np.zeros(op.shape)
        feas = np.linalg.norm(y) <= epsilon + cfg.abs_tol
        return RecoveryResult(x_hat, 0, float(np.linalg.norm(y)), 0.0, 0.0, feas, feas)
    a = op.flat
    # at epsilon = 0, v == y and the dual residual is 0: never balance there
    z, az, it, pri, dual, converged = _linearized_admm(
        lambda x: a @ x, lambda r: r @ a, lambda p: _project_ball(p, y, epsilon),
        op.gram_norm, op.shape, cfg, BALANCE_ITERS if epsilon > 0 else 0)
    x_hat = z.reshape(op.shape)
    feasible = float(np.linalg.norm(y - az)) <= epsilon + 10 * cfg.abs_tol
    return RecoveryResult(x_hat, it, pri, dual, nuclear_norm(x_hat), feasible, converged)


def solve_mds(scenario, lam, cfg=None):
    """Matrix Dantzig Selector: the ADMM loop at the fixed penalty with
    M = A*A, applied by ``op.gram_rows``, and C the operator-norm ball of
    radius lam around c = A*(y), reached by clipping the singular values of
    c - p."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    cfg = cfg or SolverConfig()
    op = scenario.operator
    y = scenario.y
    if op.gram_norm == 0.0:
        x_hat = np.zeros(op.shape)
        return RecoveryResult(x_hat, 0, 0.0, 0.0, 0.0, True, True)
    c = y @ op.flat
    z, _, it, pri, dual, converged = _linearized_admm(
        op.gram_rows, op.gram_rows, lambda p: c - _project_opnorm_ball(c - p, lam, op.shape),
        op.gram_norm**2, op.shape, cfg, 0)
    x_hat = z.reshape(op.shape)
    resid_corr = adjoint(op, y - apply_op(op, x_hat))
    feasible = operator_norm(resid_corr) <= lam + 10 * cfg.abs_tol
    return RecoveryResult(x_hat, it, pri, dual, nuclear_norm(x_hat), feasible, converged)


# the relative slack of solve_mlasso's stationarity certificate
STATIONARY_REL_TOL = 1e-6


def solve_mlasso(scenario, mu, cfg=None):
    """Matrix LASSO via FISTA with adaptive (function value) restart.

    The returned ``feasible`` flag certifies stationarity through the
    nuclear-norm subgradient characterization: every singular value of
    A*(y - A(x_hat)) is at most mu*(1 + STATIONARY_REL_TOL) and the residual
    correlation aligns with x_hat, <A*(y - A(x_hat)), x_hat> >=
    mu*||x_hat||_* * (1 - STATIONARY_REL_TOL), each up to ``cfg.abs_tol``.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    cfg = cfg or SolverConfig()
    op = scenario.operator
    y = scenario.y
    lam_gram = op.gram_norm
    step = 1.0 / (lam_gram * 1.0000001) if lam_gram > 0 else 1.0

    def objective(x):
        r = y - apply_op(op, x)
        return 0.5 * float(r @ r) + mu * nuclear_norm(x)

    aty = y @ op.flat
    z = np.zeros(op.shape)
    x_prev = z.copy()
    theta = 1.0
    f_prev = objective(z)
    converged = False
    restarted = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        grad = (op.gram_rows(z.reshape(-1)) - aty).reshape(op.shape)
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
    stationary = top <= mu * (1 + STATIONARY_REL_TOL) + cfg.abs_tol and align >= mu * nn * (
        1 - STATIONARY_REL_TOL
    ) - cfg.abs_tol
    return RecoveryResult(x_hat, it, 0.0, 0.0, objective(x_hat), stationary, converged)
