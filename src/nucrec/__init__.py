"""Nuclear-norm based low-rank matrix recovery and stability analysis.

Dense-matrix primitives, measurement operators as stacks of matrices,
seeded random ensembles, three convex recovery solvers (matrix Basis
Pursuit, matrix Dantzig Selector, matrix LASSO), estimators for
nuclear-norm-constrained extremal singular values of an operator, and
closed-form stability bounds with empirical verification utilities.
"""

__version__ = "0.1.0"

from nucrec.linalg import (
    SvdFactors,
    svd,
    nuclear_norm,
    frobenius_norm,
    operator_norm,
    numerical_rank,
    lstar_rank,
    prox_nuclear,
    decompose_error,
    nuclear_additivity_check,
)
from nucrec.operators import (
    MeasurementOperator,
    NoiseSpec,
    MeasurementScenario,
    apply_op,
    adjoint,
    scale,
    gram_apply,
    as_matrix,
    make_scenario,
)
from nucrec.ensembles import (
    EnsembleSpec,
    draw_operator,
    draw_gaussian_noise,
    draw_low_rank_signal,
    derive_seed,
)
from nucrec.solvers import (
    SolverConfig,
    RecoveryResult,
    solve_mbp,
    solve_mds,
    solve_mlasso,
    power_iteration_gram_norm,
)
from nucrec.cmsv import (
    Estimate,
    project_htau,
    estimate_cmsv,
    brute_force_cmsv,
    estimate_rcsv,
    mric_upper_bound,
)
from nucrec.bounds import (
    BoundReport,
    bound_mbp,
    bound_mds,
    bound_mlasso,
    lasso_subscript,
    bound_mbp_mric,
    bound_mds_mric,
    verify_bound,
    noise_operator_bound,
)
