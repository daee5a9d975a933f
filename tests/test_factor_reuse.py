"""One sparse LU per accepted iterate: the dual operator's factorization
serves the dual solves at its state, preconditions nearby forward
solves, and is made only when a gradient is requested."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import pglacier as pg
from pglacier import adjoint, forward, inversion
from pglacier.adjoint import factor_adjoint, solve_adjoint
from pglacier.inversion import OptimizationConfig, make_state, run_inversion
from pglacier.verify import discrete_suite

from conftest import raise_trial_costs, truth_friction, truth_rheology


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def perturbed(spaces, base, scale):
    B, tau = base
    wave = np.sin(3.0 * spaces.mesh.vertices[:, 0])
    return (pg.Field(spaces.coeff_omega, B.values * (1.0 + scale * wave)),
            pg.Field(spaces.coeff_basal, tau.values * (1.0 + scale)))


def test_run_inversion_factors_dual_once_per_accepted_iterate(
        monkeypatch, slab_spaces, tilted_params, tight_solver, twin_obs,
        base_coeffs):
    operators = count_calls(monkeypatch, adjoint, "assemble_adjoint_operator")
    solves = count_calls(monkeypatch, inversion, "solve_adjoint")
    # the first step is rejected twice before one is accepted
    trials = raise_trial_costs(monkeypatch, {1, 2})
    result = run_inversion(*base_coeffs, twin_obs, tilted_params,
                           OptimizationConfig(max_iterations=3), tight_solver)
    assert len(operators) == len(result.history)
    assert len(solves) == len(result.history)
    # rejected trials made forward solves but no dual solve
    assert len(trials) == 1 + len(result.trials) > len(result.history)
    assert result.state.adjoint_lu is not None


def test_make_state_solves_no_dual_until_a_gradient_is_requested(
        monkeypatch, slab_spaces, tilted_params, tight_solver, twin_obs,
        base_coeffs):
    operators = count_calls(monkeypatch, adjoint, "assemble_adjoint_operator")
    state = make_state(*base_coeffs, twin_obs, tilted_params, tight_solver)
    assert operators == [] and state.adjoint_state is None
    inversion.evaluate_gradient(state, tilted_params)
    lam, lu = state.adjoint_state, state.adjoint_lu
    inversion.gradient_duals(state, tilted_params)
    assert len(operators) == 1
    assert state.adjoint_state is lam and state.adjoint_lu is lu


def test_stale_state_is_refused_before_any_dual_solve(
        monkeypatch, slab_spaces, tilted_params, tight_solver, twin_obs,
        base_coeffs):
    operators = count_calls(monkeypatch, adjoint, "assemble_adjoint_operator")
    B, tau = base_coeffs
    state = make_state(pg.Field(slab_spaces.coeff_omega, B.values.copy()), tau,
                       twin_obs, tilted_params, tight_solver)
    state.rheology.values[0] += 0.1
    with pytest.raises(ValueError, match="stale"):
        inversion.gradient_duals(state, tilted_params)
    assert operators == [] and state.adjoint_state is None


def test_preconditioned_forward_solve_matches_and_needs_no_factorization(
        slab_spaces, tilted_params, tight_solver, base_solution, base_coeffs):
    B, tau = base_coeffs
    lu = factor_adjoint(base_solution.velocity, B, tau, tilted_params)
    nearby = perturbed(slab_spaces, base_coeffs, 0.05)
    warm = (base_solution.velocity, base_solution.pressure)
    plain = pg.solve_forward(*nearby, tilted_params, tight_solver,
                             warm_start=warm)
    pre = pg.solve_forward(*nearby, tilted_params, tight_solver,
                           warm_start=warm, preconditioner=lu)
    assert plain.report.converged and pre.report.converged
    assert pre.report.factorizations == 0
    assert pre.report.krylov_iterations > 0
    for a, b in ((plain.velocity, pre.velocity), (plain.pressure, pre.pressure)):
        assert np.linalg.norm(a.values - b.values) \
            <= 1e-9 * np.linalg.norm(a.values)


def test_refactorization_leaves_the_callers_lu_alone(
        monkeypatch, slab_spaces, tilted_params, tight_solver, base_solution,
        base_coeffs, twin_obs):
    B, tau = base_coeffs
    lu = factor_adjoint(base_solution.velocity, B, tau, tilted_params)
    lam = solve_adjoint(base_solution.velocity, twin_obs, lu)
    monkeypatch.setattr(forward, "GMRES_RESTART", 0)    # every GMRES misses
    sol = pg.solve_forward(*perturbed(slab_spaces, base_coeffs, 0.05),
                           tilted_params, tight_solver,
                           warm_start=(base_solution.velocity,
                                       base_solution.pressure),
                           preconditioner=lu)
    assert sol.report.converged
    assert sol.report.factorizations == sol.report.iterations
    again = solve_adjoint(base_solution.velocity, twin_obs, lu)
    assert np.array_equal(again.values, lam.values)


def test_discrete_suite_factors_three_times(monkeypatch, slab_spaces,
                                            tilted_params):
    # forward solve, dual operator and trace constant; the dual operator
    # used to be factored again for each of its 11 solves.  A fresh
    # bundle, as the trace constant is cached per mesh.
    spaces = pg.build_spaces(slab_spaces.mesh)
    factorizations = count_calls(monkeypatch, spla, "splu")
    results = discrete_suite(truth_rheology(spaces), truth_friction(spaces),
                             tilted_params)
    assert all(r.passed for r in results)
    assert len(factorizations) == 3


def test_cold_preconditioned_solve_runs_gmres_from_its_first_step(
        monkeypatch, slab_spaces, tilted_params, base_solution, base_coeffs):
    # a solve started at rest with a caller's LU runs GMRES on every
    # Newton step, the first included, and factorizes nothing
    B, tau = base_coeffs
    lu = factor_adjoint(base_solution.velocity, B, tau, tilted_params)
    nearby = perturbed(slab_spaces, base_coeffs, 0.05)
    plain = pg.solve_forward(*nearby, tilted_params)
    cycles = count_calls(monkeypatch, forward, "_gmres")
    pre = pg.solve_forward(*nearby, tilted_params, preconditioner=lu)
    assert plain.report.converged and pre.report.converged
    assert pre.report.energy_history[0] == 0.0
    assert len(cycles) == pre.report.iterations > 0
    assert pre.report.factorizations == 0
    for a, b in ((plain.velocity, pre.velocity), (plain.pressure, pre.pressure)):
        assert np.linalg.norm(a.values - b.values) \
            <= 1e-9 * np.linalg.norm(a.values)
