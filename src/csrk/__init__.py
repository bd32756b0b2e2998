"""Continuous stochastic Runge-Kutta (CSRK) methods for weak approximation
of Ito SDEs, with dense output, order-condition verification, deterministic
Monte Carlo estimation, and exact finite-support enumeration oracles.

``import csrk`` imports no submodule: each exported name, and each module of
``_EXPORTS`` named as an attribute (``csrk.stats``), imports its module on
first use, so a command loads only the code it runs.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "tableau": ("WeightPolynomial", "ConditionId", "SchemeMeta", "CsrkTableau",
                "TableauError", "builtin_scheme", "scheme_names",
                "parse_tableau", "tableau_to_json"),
    "conditions": ("CATALOG", "ConditionReport", "check_conditions",
                   "evaluate_condition", "default_theta_grid"),
    "sde": ("Functional", "ReferenceSolution", "SdeProblem",
            "functional_from_name", "linear_problem", "system2d_problem",
            "ode_problem"),
    "increments": ("CapacityError", "sample_batch", "enumerate_outcomes",
                   "outcome_count", "moments_exact", "uniforms_per_step"),
    "integrator": ("TimeGrid", "StageCache", "BlowupError",
                   "compute_step_arrays", "evaluate_dense"),
    "stats": ("ContinuousPath", "simulate_path", "MonteCarloEstimate",
              "ErrorRecord", "OrderEstimate", "mc_expectation",
              "mc_expectations_at", "exact_weak_expectation", "error_table",
              "empirical_order", "dense_error_profile", "grid_for_step"),
    "streams": ("stream_keys", "uniforms"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    # called only for a name not yet bound here; binding it makes the next
    # lookup an ordinary one
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
