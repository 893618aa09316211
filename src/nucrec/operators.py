"""Linear measurement operators on matrix space, stored as a stack of
measurement matrices.

An operator maps an n1 x n2 matrix X to the m-vector whose k-th component is
the trace inner product <A_k, X>.  The adjoint maps z to sum_k z_k A_k.
"""

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MeasurementOperator:
    """Stack of m measurement matrices, shape (m, n1, n2)."""

    matrices: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[0] < 1:
            raise ValueError("matrices must have shape (m, n1, n2) with m >= 1")
        mats = mats.copy()
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    @property
    def m(self):
        return self.matrices.shape[0]

    @property
    def shape(self):
        return self.matrices.shape[1:]

    # cached_property writes the instance __dict__ directly, so it works on
    # this frozen dataclass as long as the class has no __slots__
    @functools.cached_property
    def flat(self):
        """The m x (n1*n2) matrix acting on row-major vectorized input; a
        read-only view of ``matrices``, so every apply is one matmul."""
        return self.matrices.reshape(self.m, -1)

    @functools.cached_property
    def gram(self):
        """The (n1*n2) x (n1*n2) matrix ``flat.T @ flat`` of the Gram map
        adjoint(apply(.)), computed once per operator; read-only."""
        g = self.flat.T @ self.flat
        g.setflags(write=False)
        return g

    @functools.cached_property
    def gram_norm(self):
        """Exact lambda_max of the Gram map, the squared largest singular
        value of ``flat``: the top eigenvalue of the smaller of ``flat @
        flat.T`` and ``gram``, clamped at 0; computed once per operator."""
        small = self.flat @ self.flat.T if self.m < self.flat.shape[1] else self.gram
        return max(float(np.linalg.eigvalsh(small)[-1]), 0.0)

    def gram_rows(self, rows):
        """The Gram map adjoint(apply(.)) on row-major vectorized input, one
        vector or a (b, n1*n2) batch of rows.  A row costs (n1*n2)^2 flops
        through ``gram`` against 2*m*n1*n2 through ``flat`` twice, so the
        cached matrix is used only when 2m >= n1*n2; below that, the
        low-rank recovery regime, ``gram`` is never built."""
        if 2 * self.m >= self.flat.shape[1]:
            return rows @ self.gram
        return (rows @ self.flat.T) @ self.flat


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model plus the realized noise vector.

    kind is one of 'none', 'bounded' (with ``epsilon``), 'gaussian' (with
    ``sigma`` and ``seed``).  ``realized_w`` records the draw actually added
    to the measurements.
    """

    kind: str
    realized_w: np.ndarray
    epsilon: float = 0.0
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "bounded", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        w = np.asarray(self.realized_w, dtype=float).copy()
        w.setflags(write=False)
        object.__setattr__(self, "realized_w", w)
        if self.kind == "bounded" and np.linalg.norm(w) > self.epsilon * (1 + 1e-12) + 1e-15:
            raise ValueError("bounded noise realization exceeds epsilon")


@dataclass(frozen=True)
class MeasurementScenario:
    """Operator, true signal, noise model, and the observed vector y."""

    operator: MeasurementOperator
    x_true: np.ndarray
    noise: NoiseSpec
    y: np.ndarray


def _check_shape(op, x):
    x = np.asarray(x, dtype=float)
    if x.shape != op.shape:
        raise ValueError(f"matrix shape {x.shape} does not match operator shape {op.shape}")
    return x


def apply_op(op, x):
    """Forward map: component k is the trace inner product <A_k, x>."""
    x = _check_shape(op, x)
    return op.flat @ x.reshape(-1)


def adjoint(op, z):
    """Adjoint map: sum_k z_k A_k."""
    z = np.asarray(z, dtype=float)
    if z.shape != (op.m,):
        raise ValueError(f"vector length {z.shape} does not match m={op.m}")
    return (z @ op.flat).reshape(op.shape)


def scale(op, c):
    """Operator with every measurement matrix multiplied by ``c``."""
    return MeasurementOperator(matrices=op.matrices * float(c))


def gram_apply(op, x):
    """Composition adjoint(apply(x)); self-adjoint and PSD on matrix space."""
    return adjoint(op, apply_op(op, x))


def as_matrix(op):
    """Explicit m x (n1*n2) matrix acting on row-major vectorized input: the
    read-only view ``op.flat``, not a copy."""
    return op.flat


def make_scenario(op, x_true, noise_kind="none", epsilon=0.0, sigma=0.0, seed=0):
    """Assemble a scenario with y = apply(op, x_true) + w.

    For 'bounded' noise, w is a seeded draw on the epsilon-sphere; for
    'gaussian', w ~ N(0, sigma^2 I).  Both draws come from ``seed``.
    """
    x_true = _check_shape(op, x_true)
    clean = apply_op(op, x_true)
    if noise_kind == "none":
        w = np.zeros(op.m)
        noise = NoiseSpec(kind="none", realized_w=w)
    elif noise_kind == "bounded":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        w = rng.standard_normal(op.m)
        nrm = np.linalg.norm(w)
        w = w * (epsilon / nrm) if nrm > 0 else w
        noise = NoiseSpec(kind="bounded", realized_w=w, epsilon=float(epsilon), seed=int(seed))
    elif noise_kind == "gaussian":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        w = sigma * rng.standard_normal(op.m)
        noise = NoiseSpec(kind="gaussian", realized_w=w, sigma=float(sigma), seed=int(seed))
    else:
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    y = clean + noise.realized_w
    y.setflags(write=False)
    xt = x_true.copy()
    xt.setflags(write=False)
    return MeasurementScenario(operator=op, x_true=xt, noise=noise, y=y)

