"""Estimators for the extremal ratios ||A(X)||_2 / ||X||_F over
nuclear-norm-constrained and rank-constrained unit-Frobenius matrices,
together with a brute-force oracle for tiny instances (exact where the
constraint is vacuous, sampled elsewhere) and the derived
restricted-isometry-constant bound.

All estimates are one-sided evidence: any feasible witness upper-bounds an
infimum and lower-bounds a supremum.  Witness feasibility is re-verified on
every returned estimate.
"""

from dataclasses import dataclass

import numpy as np

from nucrec.linalg import lstar_rank, numerical_rank
from nucrec.operators import apply_op
from nucrec.solvers import SolverConfig
from nucrec.ensembles import derive_seed


@dataclass(frozen=True, kw_only=True)
class Estimate:
    """One-sided estimate of an extremal singular value of an operator over
    unit-Frobenius matrices, constrained either by the nuclear-norm ratio
    ||X||_*^2 <= tau ||X||_F^2 (``tau`` set) or by rank(X) <= r (``r`` set).
    Exactly one of ``tau`` and ``r`` is given, and the witness is checked
    against it on construction.  An estimate from the sweeps of
    :func:`estimate_cmsv` reports how many sweeps ran (``iterations``) and
    why they stopped (``stop_reason``: 'tolerance', 'cap' or 'degenerate');
    other estimates leave both None.
    """

    tau: float | None = None
    r: int | None = None
    direction: str
    value: float
    witness: np.ndarray
    starts: int
    per_start_values: tuple = ()
    iterations: int | None = None
    stop_reason: str | None = None

    def __post_init__(self):
        if self.direction not in ("min", "max"):
            raise ValueError("direction must be 'min' or 'max'")
        if (self.tau is None) == (self.r is None):
            raise ValueError("give exactly one of tau and r")
        w = np.asarray(self.witness, dtype=float)
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError("witness must have unit Frobenius norm")
        if self.tau is not None and lstar_rank(w) > self.tau * (1 + 1e-9):
            raise ValueError("witness violates the nuclear-norm-ratio constraint")
        if self.r is not None and numerical_rank(w, 1e-9) > self.r:
            raise ValueError("witness violates the rank constraint")

    @property
    def evidence(self):
        """'upper_bound_on_min' for direction='min', 'lower_bound_on_max'
        for direction='max'."""
        return "upper_bound_on_min" if self.direction == "min" else "lower_bound_on_max"


def _project_singular_values(sigmas, tau):
    """Project each nonincreasing, nonnegative row of ``sigmas`` onto
    {s >= 0, ||s||_2 = 1, ||s||_1 <= sqrt(tau)}, maximizing alignment with
    the row.

    Exact and iteration-free (Hoyer, JMLR 2004): when the l1 constraint is
    active the solution is a soft-threshold of the row, normalized.  The
    support size k is the first breakpoint at which thresholding at the
    next entry reaches l1/l2 >= sqrt(tau); on that support the closed form
    s_i = sqrt(tau)/k - beta*(d_i - mean_k d) has l1 = sqrt(tau) and l2 = 1.
    Everything is written in the distances d_i = s_1 - s_i below the top
    entry, which are exact for near-ties and make the centred sums stable.

    A tied top group of t >= tau entries has no such threshold: every
    point of the group with l1 = sqrt(tau) is a maximizer.  The tie breaks
    deterministically as the limit of the row perturbed by -eps*i.
    """
    target = np.sqrt(tau)
    s = sigmas / np.linalg.norm(sigmas, axis=1, keepdims=True)
    need = np.sum(s, axis=1) > target
    if not np.any(need):
        return s
    sub = s[need]
    rows = np.arange(len(sub))
    k = np.arange(1.0, sub.shape[1] + 1)
    d = sub[:, :1] - sub
    top = np.count_nonzero(d == 0.0, axis=1)
    tied = top >= tau
    # the -eps*i perturbation of a tied group, rescaled: distances 0..t-1
    d[tied] = np.minimum(k - 1, top[tied, None] - 1)
    e1 = np.cumsum(d, axis=1)
    mean = e1 / k
    # sum of squared deviations; d_1 = 0 bounds the cancellation by k + 1
    dev2 = np.maximum(np.cumsum(d * d, axis=1) - e1 * mean, 0.0)
    # distance of the next breakpoint; thresholding at 0 ends the row
    gap = np.concatenate([d[:, 1:], sub[:, :1]], axis=1) - mean
    # gap = 0: the threshold ties the whole support, which leaves it empty
    passes = (gap > 0) & (k * (k - tau) * gap**2 >= tau * dev2)
    passes[:, -1] = True  # the whole row has l1 > sqrt(tau)
    passes[rows[tied], top[tied] - 1] = True  # the support of a tie ends at the group
    last = np.argmax(passes, axis=1)
    size = last + 1.0
    spread = dev2[rows, last]
    beta = np.sqrt(
        np.divide(np.maximum(size - tau, 0.0), size * spread, out=np.zeros_like(spread), where=spread > 0)
    )
    out = target / size[:, None] - beta[:, None] * (d - mean[rows, last][:, None])
    out = np.where(k <= size[:, None], np.maximum(out, 0.0), 0.0)
    s[need] = out / np.linalg.norm(out, axis=1, keepdims=True)
    return s


def retract(batch, tau):
    """Nearest points of {||X||_F = 1, ||X||_*^2 <= tau} to a (b, n1, n2)
    batch: each matrix keeps its singular vectors and has its singular
    values projected by :func:`_project_singular_values`.
    """
    u, s, vt = np.linalg.svd(batch, full_matrices=False)
    return (u * _project_singular_values(s, tau)[:, None, :]) @ vt


def _check_tau(shape, tau):
    n_min = min(shape)
    if not 1.0 <= tau <= n_min + 1e-12:
        raise ValueError(f"tau={tau} out of range [1, {n_min}]")


def project_htau(x, tau):
    """Retract ``x`` onto the unit-Frobenius sphere intersected with the
    nuclear-norm ball ||X||_*^2 <= tau (:func:`retract` on a batch of one).
    """
    x = np.asarray(x, dtype=float)
    _check_tau(x.shape, tau)
    if not np.any(x):
        raise ValueError("cannot retract the zero matrix")
    return retract(x[None], tau)[0]


def _witness_values(op, batch):
    """||A(X)||_2 for a batch of matrices, shape (b, n1, n2) -> (b,)."""
    meas = batch.reshape(len(batch), -1) @ op.flat.T
    return np.linalg.norm(meas, axis=1)


def _gram_values(op, batch):
    """G(X) for a (b, n1, n2) batch, as (b, n1*n2) rows, and ||A(X)||_2 =
    sqrt(<X, G(X)>) from the same product.  The square root of the clamped
    quadratic form is accurate only to about 1e-8 * sigma_max, so these
    values serve the stop test and :func:`_witness_values` ranks the starts."""
    rows = batch.reshape(len(batch), -1)
    g_rows = op.gram_rows(rows)
    return g_rows, np.sqrt(np.maximum(np.sum(rows * g_rows, axis=1), 0.0))


def estimate_cmsv(op, tau, direction, starts=32, seed=0, cfg=None, max_iters=None):
    """Multi-start projected gradient estimate of the constrained extremal
    singular value.

    Descends (direction='min') or ascends ('max') the squared measurement
    norm with the fixed scale-equivariant step 1/(2*lambda_max(Gram)),
    retracting onto the feasible set after each step.  lambda_max is the
    exact, cached ``op.gram_norm``, and one Gram map ``op.gram_rows`` per
    sweep gives the next gradient and the values the stop test compares;
    the starts are ranked, and ``per_start_values`` reported, by ||A(X)||
    from one pass through ``op.flat`` after the last sweep.  The estimate
    records the sweep count and the stop reason: no per-start value moved
    by more than ``cfg.rel_tol`` ('tolerance'), ``max_iters`` sweeps ran
    ('cap'), or the operator is zero ('degenerate').  Ties across starts
    resolve to the lowest start index.
    """
    _check_tau(op.shape, tau)
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    if starts < 1:
        raise ValueError("starts must be >= 1")
    cfg = cfg or SolverConfig()
    lam = op.gram_norm
    n1, n2 = op.shape
    sign = -1.0 if direction == "min" else 1.0
    if max_iters is None:
        # short default budget: each sweep is a full batched step, and
        # Monte Carlo callers run many estimates
        max_iters = min(cfg.max_iters, 300)

    # starts run in lockstep as one batch; updates are independent per start
    x0 = np.stack(
        [
            np.random.Generator(np.random.Philox(np.random.SeedSequence(derive_seed(seed, k))))
            .standard_normal((n1, n2))
            for k in range(starts)
        ]
    )
    x = retract(x0, tau)
    iterations = 0
    stop_reason = "degenerate"
    if lam > 0.0:
        stop_reason = "cap"
        step = 1.0 / (2.0 * lam)
        gx, vals = _gram_values(op, x)
        for iterations in range(1, max_iters + 1):
            grad = 2.0 * gx.reshape(x.shape)
            stepped = x + sign * step * grad
            # a descent step can annihilate an iterate when the operator acts
            # as a multiple of the identity on it; keep the incumbent there
            dead = np.linalg.norm(stepped, axis=(1, 2)) <= 1e-12
            if np.any(dead):
                stepped[dead] = x[dead]
            x = retract(stepped, tau)
            gx, new_vals = _gram_values(op, x)
            if np.all(np.abs(new_vals - vals) <= cfg.rel_tol * np.maximum(vals, 1e-300)):
                stop_reason = "tolerance"
                break
            vals = new_vals
    vals = _witness_values(op, x)
    best = int(np.argmin(vals)) if direction == "min" else int(np.argmax(vals))
    witness = x[best]
    value = float(np.linalg.norm(apply_op(op, witness)))
    return Estimate(
        tau=float(tau),
        direction=direction,
        value=value,
        witness=witness,
        starts=starts,
        per_start_values=tuple(float(v) for v in vals),
        iterations=iterations,
        stop_reason=stop_reason,
    )


def _exact_cmsv(op, tau, direction):
    """Extremal value at tau >= n_min, where ||X||_*^2 <= tau ||X||_F^2 holds
    for every X: the extreme singular value of the m x (n1*n2) operator
    matrix, witnessed by its right singular vector.  The full factorization
    keeps the null vectors of an operator with m < n1*n2.  When the matrix
    has numerical rank below n1*n2 the minimum is reported as exactly 0,
    not as the roundoff-level norm of the null witness.
    """
    _, sv, vt = np.linalg.svd(op.flat, full_matrices=True)
    witness = vt[-1 if direction == "min" else 0].reshape(op.shape)
    witness = witness / np.linalg.norm(witness)
    value = float(np.linalg.norm(apply_op(op, witness)))
    rank = np.count_nonzero(sv > sv[0] * max(op.flat.shape) * np.finfo(float).eps)
    if direction == "min" and rank < vt.shape[0]:
        value = 0.0
    return Estimate(
        tau=float(tau),
        direction=direction,
        value=value,
        witness=witness,
        starts=1,
    )


def brute_force_cmsv(op, tau, direction, samples=100_000, seed=0, refine=True):
    """Oracle for tiny instances (n1*n2 <= 9 enforced).

    At tau >= n_min the constraint is vacuous and the value is exact: the
    extreme singular value of the operator matrix, from one SVD, with its
    right singular vector as witness; ``samples``, ``seed`` and ``refine``
    are then not used.

    Below n_min it is a sampling oracle: it evaluates the measurement norm
    over quasi-uniform feasible points and, when ``refine`` is set, over
    shrinking neighborhoods of the incumbent.  Same one-sided evidence
    semantics as :func:`estimate_cmsv`.  With ``refine=False`` and a shared
    seed, two operators are evaluated on the identical sample set.
    """
    _check_tau(op.shape, tau)
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    n1, n2 = op.shape
    if n1 * n2 > 9:
        raise ValueError("brute force limited to n1*n2 <= 9")
    if samples < 10_000:
        raise ValueError("samples must be >= 10000")
    if tau >= min(n1, n2):
        return _exact_cmsv(op, tau, direction)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(derive_seed(seed, 0))))
    pick = np.argmin if direction == "min" else np.argmax

    best_x = None
    best_val = None
    chunk = 20_000
    remaining = samples
    while remaining > 0:
        count = min(chunk, remaining)
        remaining -= count
        batch = retract(rng.standard_normal((count, n1, n2)), tau)
        vals = _witness_values(op, batch)
        i = int(pick(vals))
        cand = float(vals[i])
        better = best_val is None or (cand < best_val if direction == "min" else cand > best_val)
        if better:
            best_val = cand
            best_x = batch[i]

    if refine:
        radius = 0.3
        for round_idx in range(1, 11):
            rng_r = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(derive_seed(seed, round_idx)))
            )
            noise = rng_r.standard_normal((2000, n1, n2))
            cand = retract(best_x[None, :, :] + radius * noise, tau)
            vals = _witness_values(op, cand)
            i = int(pick(vals))
            better = vals[i] < best_val if direction == "min" else vals[i] > best_val
            if better:
                best_val = float(vals[i])
                best_x = cand[i]
            radius *= 0.5

    # exact feasibility of the reported witness
    witness = project_htau(best_x, tau)
    value = float(np.linalg.norm(apply_op(op, witness)))
    return Estimate(
        tau=float(tau),
        direction=direction,
        value=value,
        witness=witness,
        starts=samples,
    )


def _rayleigh_factor_step(phi, gram_factor, direction):
    """Extremal generalized eigenvector of (phi^T phi, gram_factor)."""
    m_mat = phi.T @ phi
    # symmetrize against roundoff; regularize the metric for stability
    b = 0.5 * (gram_factor + gram_factor.T)
    b = b + 1e-12 * np.trace(b) / b.shape[0] * np.eye(b.shape[0])
    # Cholesky reduction b = L L^T to the standard problem for L^-1 M L^-T;
    # back-solving with L^T gives the b-normalized eigenvector
    low = np.linalg.cholesky(b)
    half = np.linalg.solve(low, 0.5 * (m_mat + m_mat.T))
    _, vecs = np.linalg.eigh(np.linalg.solve(low, half.T))
    idx = 0 if direction == "min" else -1
    return np.linalg.solve(low.T, vecs[:, idx])


def estimate_rcsv(op, r, direction, starts=8, seed=0):
    """Alternating Rayleigh-quotient optimization over the factorization
    X = L R^T with rank(X) <= r and unit Frobenius norm.

    Each half-step solves a generalized eigenvalue problem exactly, so the
    quotient is monotone along sweeps.  A start stops after 40 sweeps, or
    once a sweep changes the quotient by at most 1e-9 of its value.
    One-sided evidence semantics.
    """
    n1, n2 = op.shape
    if not 1 <= r <= min(n1, n2):
        raise ValueError(f"r={r} out of range [1, {min(n1, n2)}]")
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    mats = op.matrices

    per_start = []
    witnesses = []
    for k in range(starts):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(derive_seed(seed, k))))
        left = rng.standard_normal((n1, r))
        right = rng.standard_normal((n2, r))
        prev = None
        for _ in range(40):
            # left update: rows of phi are (A_k @ right).flatten()
            phi = (mats @ right).reshape(op.m, -1)
            gf = np.kron(np.eye(n1), right.T @ right)
            left = _rayleigh_factor_step(phi, gf, direction).reshape(n1, r)
            # right update: rows of phi are (A_k^T @ left).flatten()
            phi = (np.transpose(mats, (0, 2, 1)) @ left).reshape(op.m, -1)
            gf = np.kron(np.eye(n2), left.T @ left)
            right = _rayleigh_factor_step(phi, gf, direction).reshape(n2, r)
            x = left @ right.T
            nrm = np.linalg.norm(x)
            if nrm == 0.0:
                break
            val = float(np.linalg.norm(apply_op(op, x / nrm)))
            if prev is not None and abs(val - prev) <= 1e-9 * max(val, 1e-300):
                prev = val
                break
            prev = val
        x = left @ right.T
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            x = np.zeros((n1, n2))
            x[0, 0] = 1.0
            nrm = 1.0
        x = x / nrm
        per_start.append(float(np.linalg.norm(apply_op(op, x))))
        witnesses.append(x)

    vals = np.asarray(per_start)
    best = int(np.argmin(vals)) if direction == "min" else int(np.argmax(vals))
    witness = witnesses[best]
    # exact renormalization for the feasibility invariant
    witness = witness / np.linalg.norm(witness)
    value = float(np.linalg.norm(apply_op(op, witness)))
    return Estimate(
        r=int(r),
        direction=direction,
        value=value,
        witness=witness,
        starts=starts,
        per_start_values=tuple(per_start),
    )


def mric_upper_bound(rho_min, rho_max):
    """max(|1 - rho_min^2|, |rho_max^2 - 1|).

    With rank-constrained extremal values this is the restricted isometry
    constant exactly; with the nuclear-norm-constrained values it is an
    upper bound.
    """
    if not 0 <= rho_min <= rho_max:
        raise ValueError("need 0 <= rho_min <= rho_max")
    return max(abs(1.0 - rho_min**2), abs(rho_max**2 - 1.0))
