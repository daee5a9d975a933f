"""Damped Newton forward solver: exact special cases, convergence
behaviour, warm starts, sensitivity solves and failure paths."""

import numpy as np
import pytest
import scipy.sparse.linalg

import pglacier as pg
from pglacier import forward
from pglacier.assembly import (assemble_coeff_derivative, assemble_jacobian,
                               solver_sign)
from pglacier.forward import (SolverConfig, SolverError, energy_bound,
                              solve_forward, solve_linearized, solve_system)
from pglacier.tensor_ops import PhysicsParams

from conftest import TILTED_FORCE

rng = np.random.default_rng(23)


def coeffs(spaces, b=1.0, t=0.5):
    return (pg.constant_field(spaces.coeff_omega, b),
            pg.constant_field(spaces.coeff_basal, t))


def test_zero_force_gives_rest_state(slab_spaces):
    B, tau = coeffs(slab_spaces)
    sol = solve_forward(B, tau, PhysicsParams(body_force=(0.0, 0.0)))
    assert sol.report.converged
    assert sol.report.iterations == 0
    assert np.array_equal(sol.velocity.values, np.zeros(slab_spaces.n_u))
    assert sol.report.final_energy == 0.0


def test_linear_problem_needs_one_step(slab_spaces):
    # p = 2 makes the residual affine; Newton lands exactly in one solve
    B, tau = coeffs(slab_spaces)
    params = PhysicsParams(p=2.0, delta=0.5, body_force=TILTED_FORCE)
    sol = solve_forward(B, tau, params)
    assert sol.report.converged
    assert sol.report.iterations == 1
    assert sol.report.residual_history[-1] <= 1e-12 * sol.report.residual_history[0]


def test_hydrostatic_rest_state(fine_spaces):
    # straight-down load on a flat slab: velocity zero and linear
    # pressure 1 - y solve the discrete problem exactly
    B, tau = coeffs(fine_spaces)
    params = PhysicsParams(p=4.0 / 3.0, delta=0.1, mu0=0.01,
                           body_force=(0.0, -1.0))
    sol = solve_forward(B, tau, params)
    assert sol.report.converged
    assert np.max(np.abs(sol.velocity.values)) <= 1e-12
    y = fine_spaces.mesh.vertices[:, 1]
    assert np.max(np.abs(sol.pressure.values - (1.0 - y))) <= 1e-10


def test_tilted_solution_properties(base_solution, tilted_params):
    rep = base_solution.report
    assert rep.converged
    assert rep.iterations <= 10
    assert rep.residual_history[-1] <= 1e-10
    assert rep.final_energy <= rep.energy_bound
    assert rep.energy_bound == energy_bound(
        base_solution.velocity.space.parent, tilted_params)
    # residual history is strictly decreasing under the line search
    assert all(b < a for a, b in zip(rep.residual_history,
                                     rep.residual_history[1:]))


def test_warm_start_resolves_immediately(slab_spaces, tilted_params,
                                         base_solution, tight_solver):
    B, tau = coeffs(slab_spaces)
    again = solve_forward(B, tau, tilted_params, tight_solver,
                          warm_start=(base_solution.velocity,
                                      base_solution.pressure))
    assert again.report.converged
    assert again.report.iterations <= 1


def test_zero_initial_guess_converges(slab_spaces, tilted_params):
    B, tau = coeffs(slab_spaces)
    sol = solve_forward(B, tau, tilted_params,
                        SolverConfig(initial_guess="zero"))
    assert sol.report.converged
    assert sol.report.residual_history[-1] <= 1e-10


def test_unknown_initial_guess_rejected(slab_spaces):
    B, tau = coeffs(slab_spaces)
    with pytest.raises(ValueError, match="initial guess"):
        solve_forward(B, tau, PhysicsParams(),
                      SolverConfig(initial_guess="bogus"))


@pytest.mark.parametrize("b,t,msg", [
    (0.01, 0.5, "rheology"),    # below rheology_min
    (10.0, 0.5, "rheology"),    # above rheology_max
    (1.0, -0.1, "friction"),
    (1.0, 100.0, "friction"),
])
def test_out_of_box_coefficients_rejected(slab_spaces, b, t, msg):
    B, tau = coeffs(slab_spaces, b, t)
    with pytest.raises(ValueError, match=msg):
        solve_forward(B, tau, PhysicsParams())


def test_zero_delta_rejected(slab_spaces):
    B, tau = coeffs(slab_spaces)
    with pytest.raises(ValueError, match="delta > 0"):
        solve_forward(B, tau, PhysicsParams(delta=0.0))


def test_swapped_fields_rejected(slab_spaces):
    B, tau = coeffs(slab_spaces)
    with pytest.raises(ValueError, match="vertex space"):
        solve_forward(tau, tau, PhysicsParams())


def test_exhausted_budget_reports_not_converged(slab_spaces, tilted_params):
    B, tau = coeffs(slab_spaces)
    sol = solve_forward(B, tau, tilted_params,
                        SolverConfig(max_newton=0, initial_guess="zero"))
    assert not sol.report.converged
    assert sol.report.continuation_used


def test_trace_csv_round_trips(tmp_path, slab_spaces, tilted_params):
    B, tau = coeffs(slab_spaces)
    path = tmp_path / "trace.csv"
    sol = solve_forward(B, tau, tilted_params,
                        SolverConfig(trace_path=str(path)))
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,residual,step_length,energy"
    assert len(lines) == 2 + sol.report.iterations
    for k, line in enumerate(lines[1:]):
        it, res, step, en = line.split(",")
        assert int(it) == k
        assert float(res) == sol.report.residual_history[k]
        assert float(en) == sol.report.energy_history[k]
        if k == 0:
            assert step == "0.0"
        else:
            assert float(step) == sol.report.step_lengths[k - 1]


def test_solve_system_satisfies_reduced_equations(slab_spaces, tilted_params):
    B, tau = coeffs(slab_spaces)
    full = rng.standard_normal(slab_spaces.n_sys) * 0.1
    vel = pg.Field(slab_spaces.velocity,
                   slab_spaces.expand_vector(
                       slab_spaces.reduce_vector(full))[:slab_spaces.n_u])
    system = assemble_jacobian(vel, B, tau, tilted_params)
    rhs = rng.standard_normal(slab_spaces.n_sys)
    x = solve_system(system, rhs)
    lhs = slab_spaces.reduce_vector(system.matrix @ x)
    want = slab_spaces.reduce_vector(rhs)
    assert np.max(np.abs(lhs - want)) <= 1e-10 * max(np.max(np.abs(want)), 1.0)
    # the expanded solution satisfies the constraints exactly
    assert slab_spaces.constraints.satisfies(x[:slab_spaces.n_u], tol=1e-14)


def test_solve_linearized_zero_rhs(slab_spaces, tilted_params):
    B, tau = coeffs(slab_spaces)
    v = pg.constant_field(slab_spaces.velocity, 0.0)
    out = solve_linearized(v, B, tau, np.zeros(slab_spaces.n_sys),
                           tilted_params)
    assert np.array_equal(out.values, np.zeros(slab_spaces.n_u))


def test_solve_linearized_is_coefficient_sensitivity(slab_spaces,
                                                     tilted_params,
                                                     tight_solver):
    # dv/dB in a direction: difference quotients of the forward map
    # converge at first order to the linearized solve
    spaces = slab_spaces
    B, tau = coeffs(spaces)
    dB = pg.Field(spaces.coeff_omega,
                  rng.standard_normal(spaces.coeff_omega.dof_count))
    dt = pg.Field(spaces.coeff_basal,
                  rng.standard_normal(spaces.coeff_basal.dof_count))
    base = solve_forward(B, tau, tilted_params, tight_solver)
    sign = solver_sign(spaces)
    d = assemble_coeff_derivative(base.velocity, dB, dt, tilted_params)
    dv = solve_linearized(base.velocity, B, tau, -(sign * d), tilted_params)
    errs, hs = [], [1e-2, 1e-3, 1e-4]
    for h in hs:
        Bh = pg.Field(spaces.coeff_omega, B.values + h * dB.values)
        th = pg.Field(spaces.coeff_basal, tau.values + h * dt.values)
        sol_h = solve_forward(Bh, th, tilted_params, tight_solver,
                              warm_start=(base.velocity, base.pressure))
        fd = (sol_h.velocity.values - base.velocity.values) / h
        errs.append(np.linalg.norm(fd - dv.values) / np.linalg.norm(dv.values))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 0.9


def test_energy_bound_formula(slab_spaces, tilted_params):
    f = np.hypot(*TILTED_FORCE)
    want = f * np.sqrt(2.0) / tilted_params.mu0
    assert abs(energy_bound(slab_spaces, tilted_params) - want) <= 1e-12 * want


def test_solver_error_is_exception():
    assert issubclass(SolverError, Exception)


@pytest.mark.parametrize("field_name", ["rheology", "friction"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coefficients_rejected(slab_spaces, field_name, bad):
    # NaN fails every comparison, so a plain box check let it through to
    # the factorization
    B, tau = coeffs(slab_spaces)
    target = B if field_name == "rheology" else tau
    target.values[1] = bad
    with pytest.raises(ValueError, match=field_name):
        solve_forward(B, tau, PhysicsParams())


def test_p2_warm_start_factorizes_once(slab_spaces, tilted_params):
    # the warm-start LU preconditions every Newton step
    B, tau = coeffs(slab_spaces)
    sol = solve_forward(B, tau, tilted_params)
    assert sol.report.converged
    assert sol.report.iterations >= 2
    assert sol.report.factorizations == 1
    assert sol.report.krylov_iterations > 0


def test_warm_started_solve_factorizes_once(slab_spaces, tilted_params,
                                            base_solution):
    B, tau = coeffs(slab_spaces, b=1.2)
    sol = solve_forward(B, tau, tilted_params,
                        warm_start=(base_solution.velocity,
                                    base_solution.pressure))
    assert sol.report.converged
    assert sol.report.factorizations == 1


def test_failed_gmres_falls_back_to_one_factorization_per_step(
        monkeypatch, slab_spaces, tilted_params):
    B, tau = coeffs(slab_spaces)
    default = solve_forward(B, tau, tilted_params)
    monkeypatch.setattr(forward, "GMRES_RESTART", 0)
    direct = solve_forward(B, tau, tilted_params)
    assert direct.report.converged
    assert direct.report.krylov_iterations == 0
    # the warm start plus one refactorization per Newton step
    assert direct.report.factorizations == 1 + direct.report.iterations
    diff = np.linalg.norm(direct.velocity.values - default.velocity.values)
    assert diff <= 1e-9 * np.linalg.norm(default.velocity.values)


def test_gmres_residual_is_the_true_residual(slab_spaces, tilted_params,
                                             base_solution):
    # right preconditioning by the LU of another operator: the returned
    # solution meets the tolerance on the operator itself
    B, tau = coeffs(slab_spaces)
    matrix = assemble_jacobian(base_solution.velocity, B, tau,
                               tilted_params).reduced()
    nearby = assemble_jacobian(pg.zero_field(slab_spaces.velocity), B, tau,
                               tilted_params).reduced()
    lu = scipy.sparse.linalg.splu(nearby.tocsc())
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    x, iterations = forward._gmres(matrix, lu, rhs, 1e-8)
    assert 0 < iterations <= forward.GMRES_RESTART
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)
