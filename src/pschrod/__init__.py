"""Numerical laboratory for p-Schrodinger equations with integrable data
and confining-in-measure potentials on truncated grids.

The package discretizes the whole-space problem

    -Div(|grad u|^(p-2) grad u) + V |u|^(p-2) u = f,    p >= 2,

on a box with zero Dirichlet data, solves the regularized problems for the
truncated data ``T_k(f) . indicator(|x| < k)``, and checks every
quantitative estimate of the underlying theory (energy, tail, stability,
localized identity, superlevel bounds, compactness conditions) at desk
scale.
"""

from .asymptotic import (
    EstimateReport,
    ExponentP,
    lambda_dist,
    lambda_fnorm,
    lambda_fnorm_rows,
    lambda_mass_rows,
    lp_norm,
    superlevel_measure,
    tail_lambda,
    truncate,
    weak_lq_quasinorm,
    x_norm_p,
)
from .compactness import (
    FamilyReport,
    FunctionFamily,
    ark_check,
    epsilon_net,
    kr_report,
    translation_defect,
)
from .grid import (
    GridFunction,
    GridSpec,
    abs_power,
    cell_gradient_adjoint,
    cell_gradient_squared,
    energy_sums,
    gradient,
    integrate,
    load_grid_function,
    sample,
    save_grid_function,
    zero_boundary,
)
from .pipeline import (
    SchemeConfig,
    SchemeResult,
    check_energy_estimate,
    check_localized_identity,
    check_stability,
    check_superlevel_bound,
    check_tail_bound,
    distributional_residual,
    mollify_datum,
    regularize_datum,
    run_scheme,
    truncation_perturbation,
)
from .potentials import (
    ConfinementReport,
    Potential,
    bad_set_measure,
    bad_set_measure_mc,
    confinement_report,
    constant_potential,
    polynomial_trap,
    sample_potential,
    sparse_wells,
)
from .solver import (
    Problem,
    SolveResult,
    energy,
    monotonicity_margin,
    pflux,
    residual,
    solve,
)

__version__ = "0.1.0"
