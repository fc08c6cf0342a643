"""Exact stationary tail asymptotics for queues with an unreliable server.

Two models are covered: a single M/M/1-type queue whose server alternates
between Up and Down states, and a two-station tandem whose first server is
unreliable, with feedback routing.  The package computes the geometric decay
rate and the closed-form tail prefactors, cross-checked by matrix-geometric
solves, truncated sparse solves, and simulation.
"""

from .params import (DOWN, UP, InvalidParameters, InvalidState, Model,
                     ModelParams, UnstableParameters, make_params,
                     params_from_dict, params_from_json)
from .kernels import TransitionRow, free_kernel, full_kernel
from .spectral import characteristic_roots, feynman_kac, stability
from .twist import harmonic, twist_summary
from .qbd import (ConvergenceError, StationaryTable, TruncationError,
                  boundary_vector, exact_stationary_model1, neuts_stability,
                  rate_matrix, rate_matrix_closed_form, stationary_table,
                  truncated_stationary)
from .asymptotics import (alpha_limits, mm1_comparison, prefactors, tail_constants,
                          tail_fit, two_term_tail)
from .simulate import (EmpiricalDistribution, Excursion, Trajectory,
                       conditioned_excursion_slope, empirical_distribution,
                       excursion_verdict, ld_excursions, regime_prediction, simulate)
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "DOWN", "UP", "Model", "ModelParams", "InvalidParameters", "InvalidState",
    "UnstableParameters", "make_params",
    "params_from_dict", "params_from_json",
    "TransitionRow", "free_kernel", "full_kernel",
    "characteristic_roots", "feynman_kac", "stability",
    "harmonic", "twist_summary",
    "ConvergenceError", "StationaryTable", "TruncationError",
    "boundary_vector", "exact_stationary_model1", "neuts_stability",
    "rate_matrix", "rate_matrix_closed_form", "stationary_table",
    "truncated_stationary",
    "alpha_limits", "mm1_comparison", "prefactors", "tail_constants", "tail_fit",
    "two_term_tail",
    "EmpiricalDistribution", "Excursion", "Trajectory",
    "conditioned_excursion_slope", "empirical_distribution",
    "excursion_verdict", "ld_excursions",
    "regime_prediction", "simulate",
    "run_checks",
]
