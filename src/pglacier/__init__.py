"""Finite-element toolkit for shear-thinning glacier flow.

Solves the regularized power-law momentum balance on triangulated
cross-sections (quadratic velocity, linear pressure), identifies the
ice rheology and basal friction coefficients from surface-velocity
observations via an adjoint-based Tikhonov least-squares fit, and
numerically verifies the inequalities that make both problems
well-posed.
"""

from .adjoint import (Observation, factor_adjoint, misfit,
                      misfit_derivative_rhs, solve_adjoint)
from .assembly import (AssembledSystem, assemble_adjoint_operator,
                       assemble_jacobian, assemble_residual, norm,
                       solver_sign)
from .config import ConfigError, RunConfig, config_from_text, load_config, \
    realize_field
from .fieldio import (FieldIOError, load_field_csv, load_observation,
                      save_field_csv, save_observation, save_vtk)
from .forward import (ForwardSolution, SolveReport, SolverConfig, SolverError,
                      solve_forward)
from .inversion import (InversionResult, InversionState, OptimizationConfig,
                        evaluate_gradient, make_state, make_twin_data,
                        project_onto_W, run_inversion, taylor_test)
from .mesh import (BoundaryTag, Mesh, MeshError, MeshFormatError,
                   generate_slab_mesh, load_mesh, save_mesh,
                   with_observed_span)
from .spaces import (Field, FunctionSpace, SpaceKind, Spaces, build_spaces,
                     constant_field, field_from_callable, zero_field)
from .tensor_ops import (PhysicsParams, monotonicity_witness, s_gamma,
                         s_gamma_prime_apply, s_omega, s_omega_prime_apply)
from .verify import CheckResult, discrete_suite, pointwise_suite

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem", "BoundaryTag", "CheckResult", "ConfigError", "Field",
    "FieldIOError", "ForwardSolution", "FunctionSpace", "InversionResult",
    "InversionState", "Mesh", "MeshError", "MeshFormatError", "Observation",
    "OptimizationConfig", "PhysicsParams", "RunConfig", "SolveReport",
    "SolverConfig", "SolverError", "SpaceKind", "Spaces",
    "assemble_adjoint_operator", "assemble_jacobian", "assemble_residual",
    "build_spaces", "config_from_text", "constant_field",
    "discrete_suite", "evaluate_gradient", "factor_adjoint",
    "field_from_callable", "generate_slab_mesh", "load_config",
    "load_field_csv", "load_mesh", "load_observation", "make_state",
    "make_twin_data", "misfit", "misfit_derivative_rhs",
    "monotonicity_witness", "norm", "pointwise_suite", "project_onto_W",
    "realize_field", "run_inversion", "s_gamma", "s_gamma_prime_apply",
    "s_omega", "s_omega_prime_apply", "save_field_csv", "save_mesh",
    "save_observation", "save_vtk", "solve_adjoint", "solve_forward",
    "solver_sign", "taylor_test", "with_observed_span", "zero_field",
]
