"""Continuous stochastic Runge-Kutta (CSRK) methods for weak approximation
of Ito SDEs, with dense output, order-condition verification, deterministic
Monte Carlo estimation, and exact finite-support enumeration oracles.
"""

__version__ = "0.1.0"

from .conditions import (
    CATALOG,
    ConditionReport,
    check_conditions,
    default_theta_grid,
    evaluate_condition,
)
from .increments import (
    CapacityError,
    enumerate_outcomes,
    moments_exact,
    outcome_count,
    sample_batch,
    uniforms_per_step,
)
from .integrator import (
    BlowupError,
    StageCache,
    TimeGrid,
    compute_step_arrays,
    evaluate_dense,
)
from .sde import (
    Functional,
    ReferenceSolution,
    SdeProblem,
    functional_from_name,
    linear_problem,
    ode_problem,
    system2d_problem,
)
from .stats import (
    ContinuousPath,
    ErrorRecord,
    MonteCarloEstimate,
    OrderEstimate,
    dense_error_profile,
    empirical_order,
    error_table,
    exact_weak_expectation,
    grid_for_step,
    mc_expectation,
    mc_expectations_at,
    simulate_path,
)
from .streams import stream_keys, uniforms
from .tableau import (
    ConditionId,
    CsrkTableau,
    SchemeMeta,
    TableauError,
    WeightPolynomial,
    builtin_scheme,
    parse_tableau,
    scheme_names,
    tableau_to_json,
)

__all__ = [
    "__version__",
    "WeightPolynomial",
    "ConditionId",
    "SchemeMeta",
    "CsrkTableau",
    "TableauError",
    "builtin_scheme",
    "scheme_names",
    "parse_tableau",
    "tableau_to_json",
    "CATALOG",
    "ConditionReport",
    "check_conditions",
    "evaluate_condition",
    "default_theta_grid",
    "Functional",
    "ReferenceSolution",
    "SdeProblem",
    "functional_from_name",
    "linear_problem",
    "system2d_problem",
    "ode_problem",
    "CapacityError",
    "sample_batch",
    "enumerate_outcomes",
    "outcome_count",
    "moments_exact",
    "uniforms_per_step",
    "TimeGrid",
    "StageCache",
    "ContinuousPath",
    "BlowupError",
    "compute_step_arrays",
    "evaluate_dense",
    "simulate_path",
    "MonteCarloEstimate",
    "ErrorRecord",
    "OrderEstimate",
    "mc_expectation",
    "mc_expectations_at",
    "exact_weak_expectation",
    "error_table",
    "empirical_order",
    "dense_error_profile",
    "grid_for_step",
    "stream_keys",
    "uniforms",
]
