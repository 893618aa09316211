"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: a one-sided Jacobi
SVD, grid searches, and explicit vectorized-operator linear algebra.
"""

import numpy as np


def jacobi_singular_values(x, sweeps=60, tol=1e-14):
    """Singular values via one-sided Jacobi rotations on the columns.

    Works on the transposed matrix when rows < cols so the iteration always
    orthogonalizes the shorter column set.
    """
    a = np.array(x, dtype=float)
    if a.shape[0] < a.shape[1]:
        a = a.T
    n = a.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(a[:, p] @ a[:, q])
                app = float(a[:, p] @ a[:, p])
                aqq = float(a[:, q] @ a[:, q])
                off = max(off, abs(apq))
                if abs(apq) <= tol * np.sqrt(app * aqq) or apq == 0.0:
                    continue
                zeta = (aqq - app) / (2.0 * apq)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                col_p = a[:, p].copy()
                a[:, p] = c * col_p - s * a[:, q]
                a[:, q] = s * col_p + c * a[:, q]
        if off <= tol:
            break
    sv = np.linalg.norm(a, axis=0)
    return np.sort(sv)[::-1]


def prox_nuclear_grid_2x2(x, threshold, step=1e-3):
    """Grid-search minimizer of 0.5*||Z - x||_F^2 + threshold*||Z||_* for 2x2.

    Exploits that the minimizer shares x's singular subspaces, so the search
    reduces to a grid over the two singular values.
    """
    u, sig, vt = np.linalg.svd(x)
    grid0 = np.arange(0.0, sig[0] + step, step)
    grid1 = np.arange(0.0, sig[1] + step, step)
    s0, s1 = np.meshgrid(grid0, grid1, indexing="ij")
    obj = 0.5 * ((s0 - sig[0]) ** 2 + (s1 - sig[1]) ** 2) + threshold * (s0 + s1)
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    s = np.array([grid0[i], grid1[j]])
    return (u * s) @ vt


def vectorized_apply(matrices, x):
    """apply() through an explicit m x (n1*n2) matrix-vector product."""
    m = matrices.shape[0]
    a_mat = matrices.reshape(m, -1)
    return a_mat @ np.asarray(x).reshape(-1)


def tensordot_apply(matrices, x):
    """apply() as a contraction of the (m, n1, n2) stack with x."""
    return np.tensordot(matrices, x, axes=([1, 2], [0, 1]))


def tensordot_adjoint(matrices, z):
    """adjoint() as the z-weighted sum of the (m, n1, n2) stack."""
    return np.tensordot(z, matrices, axes=1)


def mbp_orthonormal_oracle(y_mat, epsilon):
    """Closed form for nuclear-norm minimization subject to an l2 data ball
    when the operator is the orthonormal matrix-entry basis.

    The solution keeps y's singular subspaces; the singular values are
    soft-shrunk by the level theta at which the shrinkage spends exactly
    epsilon of Frobenius budget.
    """
    u, sig, vt = np.linalg.svd(y_mat)
    if np.linalg.norm(sig) <= epsilon:
        return np.zeros_like(y_mat)

    def spent(theta):
        s = np.maximum(sig - theta, 0.0)
        return np.linalg.norm(s - sig)

    lo, hi = 0.0, float(sig[0])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if spent(mid) < epsilon:
            lo = mid
        else:
            hi = mid
    s = np.maximum(sig - lo, 0.0)
    return (u * s) @ vt


def rank1_angle_grid_value(matrices, direction, points=720):
    """Extremal ||A(u v^T)||_2 over unit rank-1 2x2 matrices via an angle grid."""
    angles = np.linspace(0.0, np.pi, points, endpoint=False)
    u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    x = np.einsum("ai,bj->abij", u, u).reshape(-1, 2, 2)
    meas = np.tensordot(x, matrices, axes=([1, 2], [1, 2]))
    vals = np.linalg.norm(meas, axis=1)
    return float(vals.min() if direction == "min" else vals.max())


def htau_sigma_grid_2d(sigma, tau, points=4000):
    """Best alignment <s, sigma> over the feasible arc
    {s >= 0, ||s||_2 = 1, ||s||_1 <= sqrt(tau)} for a 2-vector sigma."""
    angles = np.linspace(0.0, np.pi / 2, points)
    s = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    feasible = s.sum(axis=1) <= np.sqrt(tau)
    s = s[feasible]
    scores = s @ sigma
    return s[np.argmax(scores)]


def project_sigma_bisection(sigma, tau, steps=200):
    """Reference projection of a nonincreasing, nonnegative vector onto
    {s >= 0, ||s||_2 = 1, ||s||_1 <= sqrt(tau)}, maximizing alignment.

    Bisects in np.longdouble on c = s_1 - theta, the height of the top
    entry above the soft threshold theta, so near-ties are resolved below
    the float64 spacing.  The result is the normalized soft-threshold on the
    feasible side, l1 <= sqrt(tau).  A tied top group of t >= tau entries
    has no threshold; it returns the point of the group with one entry x
    and t - 1 entries y, x + (t-1) y = sqrt(tau) and x^2 + (t-1) y^2 = 1.
    """
    s = np.asarray(sigma, dtype=np.longdouble)
    s = s / np.sqrt(np.sum(s * s))
    target = np.sqrt(np.longdouble(tau))
    if np.sum(s) <= target:
        return s
    d = s[0] - s
    top = int(np.count_nonzero(d == 0))
    if top >= tau:
        x = (target + np.sqrt((top - 1) * (top - np.longdouble(tau)))) / top
        out = np.zeros_like(s)
        out[0] = x
        if top > 1:
            out[1:top] = (target - x) / (top - 1)
        return out
    lo, hi = np.longdouble(0), s[0]
    for _ in range(steps):
        mid = (lo + hi) / 2
        sh = np.maximum(mid - d, 0)
        if np.sum(sh) / np.sqrt(np.sum(sh * sh)) > target:
            hi = mid
        else:
            lo = mid
    sh = np.maximum(lo - d, 0)
    return sh / np.sqrt(np.sum(sh * sh))
