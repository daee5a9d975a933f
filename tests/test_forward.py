"""Damped Newton forward solver: exact special cases, convergence
behaviour, warm starts, sensitivity solves and failure paths."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg

import pglacier as pg
from pglacier import forward
from pglacier.adjoint import factor_adjoint
from pglacier.assembly import (AssembledSystem, _reduced_coupling,
                               assemble_jacobian, solver_sign, velocity_mass)
from pglacier.config import SCHEMA
from pglacier.forward import (SolverConfig, SolverError, energy_bound,
                              solve_forward)
from pglacier.tensor_ops import PhysicsParams

from conftest import (TILTED_FORCE, coeff_derivative, full_operator,
                      jittered_file_mesh, truth_friction, truth_rheology)

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


def test_linear_problem_needs_one_step(slab_spaces, tight_solver):
    # p = 2 makes the residual affine, so an exact linear solve lands in
    # one step.  The first step solves only to ETA_FIRST by GMRES, even
    # where the shared rest LU is the exact Jacobian, so a second step,
    # asked for the tight tolerance, finishes (measured: 1.5e-15 relative)
    B, tau = coeffs(slab_spaces)
    params = PhysicsParams(p=2.0, delta=0.5, body_force=TILTED_FORCE)
    sol = solve_forward(B, tau, params, tight_solver)
    assert sol.report.converged
    assert sol.report.iterations <= 2
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
    assert rep.energy_bound == energy_bound(base_solution.velocity, tilted_params)
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
                        SolverConfig(max_newton=1))
    assert not sol.report.converged
    assert sol.report.iterations == 1


def test_slow_plain_newton_converges_within_the_default_budget(fine_spaces):
    # nearly plastic flow under a strong load: plain Newton from rest
    # takes 55 steps here (measured), more than a budget of 30 allows
    sol = solve_forward(truth_rheology(fine_spaces), truth_friction(fine_spaces),
                        PhysicsParams(p=1.05, delta=1e-6, body_force=(5.0, -10.0)))
    assert sol.report.converged
    assert sol.report.iterations <= SolverConfig().max_newton
    assert sol.report.lu_fallbacks == 0


@pytest.mark.parametrize("kwargs, name", [
    (dict(newton_rtol=-1.0), "newton_rtol"),
    (dict(newton_rtol=0.0), "newton_rtol"),
    (dict(newton_rtol=float("nan")), "newton_rtol"),
    (dict(newton_atol=float("nan")), "newton_atol"),
    (dict(newton_atol=float("inf")), "newton_atol"),
    (dict(newton_atol=-1e-12), "newton_atol"),
    (dict(max_newton=0), "max_newton"),
    (dict(max_newton=-3), "max_newton"),
])
def test_solver_config_rejects_out_of_range_values(kwargs, name):
    # the config file's rules: tolerances finite and > 0, max_newton >= 1;
    # a solve with any of these used to end after no Newton step or stop
    # on the absolute floor alone
    with pytest.raises(ValueError, match=name):
        SolverConfig(**kwargs)


def test_infinite_first_residual_is_not_converged():
    # the residual norm of this load overflows to inf, and the relative
    # tolerance used to overflow with it and report convergence
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    B, tau = coeffs(spaces)
    sol = solve_forward(B, tau, PhysicsParams(body_force=(0.0, 1e160)))
    assert sol.report.residual_history[0] == np.inf
    assert not sol.report.converged


def test_solve_builds_only_the_gram_matrix_it_reads():
    # the energy history reads the velocity stiffness; no forward solve
    # needs the velocity mass matrix, which is as large
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    solve_forward(*coeffs(spaces), PhysicsParams(body_force=TILTED_FORCE))
    assert "velocity_v2" in spaces._cache
    assert "velocity_mass" not in spaces._cache


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
    # the held-LU solve: the LU of the reduced Jacobian, which is the
    # dual operator, against the reduced right-hand side
    system = assemble_jacobian(vel, B, tau, tilted_params)
    lu = factor_adjoint(vel, B, tau, tilted_params)
    rhs = rng.standard_normal(slab_spaces.n_sys)
    x = slab_spaces.expand_vector(lu.solve(slab_spaces.reduce_vector(rhs)))
    lhs = slab_spaces.reduce_vector(full_operator(system) @ x)
    want = slab_spaces.reduce_vector(rhs)
    assert np.max(np.abs(lhs - want)) <= 1e-10 * max(np.max(np.abs(want)), 1.0)
    # the expanded solution satisfies the constraints exactly
    assert slab_spaces.constraints.satisfies(x[:slab_spaces.n_u], tol=1e-14)


def test_solve_linearized_is_coefficient_sensitivity(slab_spaces,
                                                     tilted_params,
                                                     tight_solver):
    # dv/dB in a direction: difference quotients of the forward map
    # converge at first order to the linearized solve, made with the
    # held LU of the Jacobian at the base state
    spaces = slab_spaces
    B, tau = coeffs(spaces)
    dB = pg.Field(spaces.coeff_omega,
                  rng.standard_normal(spaces.coeff_omega.dof_count))
    dt = pg.Field(spaces.coeff_basal,
                  rng.standard_normal(spaces.coeff_basal.dof_count))
    base = solve_forward(B, tau, tilted_params, tight_solver)
    sign = solver_sign(spaces)
    d = coeff_derivative(base.velocity, dB, dt, tilted_params)
    lu = factor_adjoint(base.velocity, B, tau, tilted_params)
    dv = spaces.expand_vector(lu.solve(spaces.reduce_vector(-(sign * d))))
    dv = dv[:spaces.n_u]
    errs, hs = [], [1e-2, 1e-3, 1e-4]
    for h in hs:
        Bh = pg.Field(spaces.coeff_omega, B.values + h * dB.values)
        th = pg.Field(spaces.coeff_basal, tau.values + h * dt.values)
        sol_h = solve_forward(Bh, th, tilted_params, tight_solver,
                              warm_start=(base.velocity, base.pressure))
        fd = (sol_h.velocity.values - base.velocity.values) / h
        errs.append(np.linalg.norm(fd - dv) / np.linalg.norm(dv))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 0.9


def test_energy_bound_formula(base_solution, tilted_params):
    # sqrt(|f . int v| / mu0), the integral of each component taken as
    # the mass-matrix pairing with the constant unit field
    v = base_solution.velocity
    mass = velocity_mass(v.space.parent)
    load = sum(f * pg.field_from_callable(v.space, lambda x, y: unit).values
               @ (mass @ v.values)
               for f, unit in zip(TILTED_FORCE, ((1.0, 0.0), (0.0, 1.0))))
    want = np.sqrt(abs(load) / tilted_params.mu0)
    assert abs(energy_bound(v, tilted_params) - want) <= 1e-12 * want


@pytest.mark.parametrize("p,delta,ratio", [(4.0 / 3.0, 0.1, 0.79),
                                           (1.2, 1e-4, 0.95)])
def test_long_slab_solve_meets_its_energy_bound(p, delta, ratio):
    # the area bound |f| |Omega|^(1/2) / mu0 assumed ||v||_L2 <= |v|_V2,
    # false with Dirichlet sides 20 apart, and raised "energy bound
    # violated" after these converged solves (|v|_V2 52,935 and 76,744
    # against 50,000)
    length = 20.0
    spaces = pg.build_spaces(pg.generate_slab_mesh(length, 1.0, 80, 8))
    wave = lambda x: 2.0 * np.pi * x / length
    B = pg.field_from_callable(spaces.coeff_omega,
                               lambda x, y: 1.25 + 0.75 * np.sin(wave(x)))
    tau = pg.field_from_callable(spaces.coeff_basal,
                                 lambda x, y: 0.5 + 0.4 * np.cos(wave(x)))
    sol = solve_forward(B, tau, PhysicsParams(p=p, delta=delta,
                                              body_force=(50.0, -100.0)))
    rep = sol.report
    assert rep.converged
    assert rep.final_energy > 50000.0
    assert rep.final_energy <= ratio * rep.energy_bound


def test_line_search_backtracks_by_powers_of_the_shrink_factor(tmp_path):
    # measured: 10 Newton steps, 2 of them halved once
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    path = tmp_path / "trace.csv"
    sol = solve_forward(*coeffs(spaces),
                        PhysicsParams(p=1.05, delta=1e-6, body_force=(50.0, -100.0)),
                        SolverConfig(trace_path=str(path)))
    rep = sol.report
    assert rep.converged
    steps = np.array(rep.step_lengths)
    assert np.any(steps < 1.0)
    shrinks = np.round(np.log(steps) / np.log(forward.LS_SHRINK))
    assert np.array_equal(steps, forward.LS_SHRINK ** shrinks)
    traced = [float(line.split(",")[2])
              for line in path.read_text().splitlines()[2:]]
    assert traced == rep.step_lengths


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


def test_cold_solve_starts_at_rest_and_factorizes_once(slab_spaces,
                                                       tilted_params):
    # the mesh's shared LU of the Jacobian at rest preconditions every
    # Newton step; the first cold solve on fresh spaces builds it and a
    # second one, with other coefficients, factors nothing
    spaces = pg.build_spaces(slab_spaces.mesh)
    B, tau = coeffs(spaces)
    sol = solve_forward(B, tau, tilted_params)
    raw = pg.assemble_residual(pg.zero_field(spaces.velocity),
                               pg.zero_field(spaces.pressure), B, tau,
                               tilted_params)
    at_rest = spaces.reduce_vector(solver_sign(spaces) * raw)
    assert sol.report.energy_history[0] == 0.0
    assert sol.report.residual_history[0] == np.linalg.norm(at_rest)
    assert sol.report.converged
    assert sol.report.iterations >= 2
    assert sol.report.factorizations == 1
    assert sol.report.krylov_iterations > 0
    again = solve_forward(*coeffs(spaces, b=1.3, t=0.2), tilted_params)
    assert again.report.converged
    assert again.report.factorizations == 0


def same_bits(a, b):
    return (np.array_equal(a.velocity.values, b.velocity.values)
            and np.array_equal(a.pressure.values, b.pressure.values)
            and a.report.residual_history == b.report.residual_history)


def test_cold_solve_does_not_depend_on_who_built_the_rest_lu(slab_spaces,
                                                            tilted_params):
    fresh = pg.build_spaces(slab_spaces.mesh)
    built = solve_forward(*coeffs(fresh, b=1.3, t=0.2), tilted_params)
    shared = pg.build_spaces(slab_spaces.mesh)
    solve_forward(*coeffs(shared), tilted_params)
    reused = solve_forward(*coeffs(shared, b=1.3, t=0.2), tilted_params)
    assert built.report.factorizations == 1
    assert reused.report.factorizations == 0
    assert same_bits(built, reused)


def test_rest_lu_is_factored_again_when_the_exponent_changes(slab_spaces,
                                                             tilted_params):
    spaces = pg.build_spaces(slab_spaces.mesh)
    B, tau = coeffs(spaces)
    runs = [solve_forward(B, tau, replace(tilted_params, p=p, s=p))
            for p in (4.0 / 3.0, 1.2, 4.0 / 3.0)]
    assert all(run.report.converged for run in runs)
    assert [run.report.factorizations for run in runs] == [1, 1, 1]
    held = [key for key, value in spaces._cache.items()
            if isinstance(value, tuple)
            and any(isinstance(v, forward._SingleLU) for v in value)]
    assert held == ["rest_lu"]
    assert same_bits(runs[0], runs[2])


def test_rest_coefficients_are_the_config_field_defaults():
    assert forward.REST_COEFFICIENTS == (float(SCHEMA["fields.rheology"][1]),
                                         float(SCHEMA["fields.friction"][1]))


@pytest.mark.parametrize("p", [1.01, 1.05])
def test_nearly_plastic_flow_converges_without_continuation(p):
    # nearly plastic flow: the Jacobian at rest is finite for delta > 0,
    # and plain Newton from there needs no second LU (from the p = 2
    # solution it stalled)
    spaces = bedded_spaces_16x8()
    sol = solve_forward(*coeffs(spaces),
                        PhysicsParams(p=p, delta=1e-8, body_force=TILTED_FORCE))
    assert sol.report.converged
    assert sol.report.factorizations == 1
    assert sol.report.lu_fallbacks == 0


def test_bedded_32x16_solve_stays_within_its_krylov_budget():
    # measured: 5 Newton steps and 15 Krylov iterations from rest, where
    # the p = 2 start took 27
    mesh = pg.generate_slab_mesh(2.0, 1.0, 32, 16,
                                 bed_profile=lambda x: 0.05 * np.sin(np.pi * x))
    spaces = pg.build_spaces(mesh)
    sol = solve_forward(*coeffs(spaces), PhysicsParams(body_force=TILTED_FORCE))
    assert sol.report.converged
    assert sol.report.factorizations == 1
    assert sol.report.krylov_iterations <= 18


def test_warm_started_solve_factorizes_once(slab_spaces, tilted_params,
                                            base_solution):
    # the shared rest LU serves warm starts too: built by the first call
    spaces = pg.build_spaces(slab_spaces.mesh)
    B, tau = coeffs(spaces, b=1.2)
    warm = (pg.Field(spaces.velocity, base_solution.velocity.values),
            pg.Field(spaces.pressure, base_solution.pressure.values))
    sol = solve_forward(B, tau, tilted_params, warm_start=warm)
    assert sol.report.converged
    assert sol.report.factorizations == 1
    again = solve_forward(B, tau, tilted_params, warm_start=warm)
    assert again.report.converged
    assert again.report.factorizations == 0


def test_failed_gmres_falls_back_to_one_factorization_per_step(
        monkeypatch, slab_spaces, tilted_params):
    B, tau = coeffs(slab_spaces)
    default = solve_forward(B, tau, tilted_params)
    monkeypatch.setattr(forward, "GMRES_RESTART", 0)
    direct = solve_forward(B, tau, tilted_params)
    assert direct.report.converged
    assert direct.report.krylov_iterations == 0
    # a start at rest: one refactorization per Newton step
    assert direct.report.factorizations == direct.report.iterations
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
    x, iterations, _ = forward._gmres(matrix, lu, rhs, 1e-8)
    assert 0 < iterations <= forward.GMRES_RESTART
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-8 * np.linalg.norm(rhs)


def jacobians(spaces, solution, params):
    """The reduced Jacobian at ``solution`` and the one at rest."""
    B, tau = coeffs(spaces)
    return (assemble_jacobian(solution.velocity, B, tau, params).reduced(),
            assemble_jacobian(pg.zero_field(spaces.velocity), B, tau,
                              params).reduced())


@pytest.mark.parametrize("rtol", [1e-4, 1e-8, 1e-11])
def test_gmres_residual_estimate_is_the_true_residual(
        slab_spaces, tilted_params, base_solution, rtol):
    # the rotated right-hand side's last entry is the residual norm of
    # the returned iterate, also when a float32 LU preconditions
    matrix, nearby = jacobians(slab_spaces, base_solution, tilted_params)
    lu, fell_back = forward._factorize(nearby, "NATURAL", single=True)
    assert not fell_back
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    x, iterations, estimate = forward._gmres(matrix, lu, rhs, rtol)
    true = np.linalg.norm(matrix @ x - rhs)
    assert true <= rtol * np.linalg.norm(rhs)
    assert abs(estimate - true) <= 1e-10 * np.linalg.norm(rhs)


def test_forward_lu_is_single_precision_and_dual_lu_double(
        monkeypatch, slab_spaces, tilted_params):
    real = scipy.sparse.linalg.splu
    dtypes = []

    def splu(matrix, **kwargs):
        dtypes.append(matrix.dtype)
        return real(matrix, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    # fresh spaces, so that the solve builds its rest LU under this splu
    spaces = pg.build_spaces(slab_spaces.mesh)
    B, tau = coeffs(spaces)
    sol = solve_forward(B, tau, tilted_params)
    assert sol.report.factorizations >= 1
    assert sol.report.lu_fallbacks == 0
    assert dtypes == [np.float32] * sol.report.factorizations
    del dtypes[:]
    factor_adjoint(sol.velocity, B, tau, tilted_params)
    assert dtypes == [np.float64]


def test_double_precision_lus_solve_without_refinement(
        slab_spaces, tilted_params, base_solution):
    # the dual operator's LU and the H1 Riesz maps' LUs are exact solves
    matrix, _ = jacobians(slab_spaces, base_solution, tilted_params)
    lu = factor_adjoint(base_solution.velocity, *coeffs(slab_spaces),
                        tilted_params)
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    x = lu.solve(rhs)
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
    for which, space in (("omega", slab_spaces.coeff_omega),
                         ("basal", slab_spaces.coeff_basal)):
        mass, stiffness = pg.assembly.gram_matrices(space)
        dual = rng.standard_normal(space.dof_count)
        x = pg.inversion.represent(dual, slab_spaces, which)
        assert (np.linalg.norm((mass + stiffness) @ x - dual)
                <= 1e-12 * np.linalg.norm(dual))


@pytest.mark.filterwarnings("error")
def test_single_precision_lu_solves_a_huge_right_hand_side(
        slab_spaces, tilted_params, base_solution):
    # each right-hand side is scaled to unit max-abs before the float32
    # cast, which would overflow 1e300 to inf; the linear solver's own
    # path, GMRES included, is covered by the test below
    matrix, _ = jacobians(slab_spaces, base_solution, tilted_params)
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    lu, fell_back = forward._factorize(matrix, "NATURAL", single=True)
    assert not fell_back
    unrefined, refined = [], []
    for b in (rhs, 1e300 * rhs):
        x = forward._refined_solve(matrix, lu, b, forward.DIRECT_REFINEMENTS)
        refined.append(np.abs(matrix @ x - b).max() / np.abs(b).max())
        x = lu.solve(b)
        unrefined.append(np.abs(matrix @ x - b).max() / np.abs(b).max())
    assert unrefined[1] == pytest.approx(unrefined[0], rel=1e-6)
    assert max(refined) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_linear_solver_scales_a_huge_right_hand_side(
        slab_spaces, tilted_params, base_solution):
    # GMRES's norm of a right-hand side near 1e300 would overflow; the
    # solver divides it by a power of two first, which leaves the result
    # of an ordinary right-hand side bitwise unchanged
    matrix, nearby = jacobians(slab_spaces, base_solution, tilted_params)
    lu = forward._factorize(nearby, "NATURAL", single=True)[0]
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    linear = forward._LinearSolver(lu)
    x = linear.solve(matrix, rhs, 1e-10)
    assert np.array_equal(x, forward._gmres(matrix, lu, rhs, 1e-10)[0])
    unit = rhs / np.abs(rhs).max()
    # the second max-abs lies above 2**1023, whose next power of two is
    # not finite; the scaled matrix keeps its solution finite
    for a, big in ((matrix, 4e300), (1e4 * matrix, 1.5e308)):
        huge = linear.solve(a, big * unit, 1e-10) / big
        assert np.linalg.norm(a @ huge - unit) <= 1e-9 * np.linalg.norm(unit)
    assert linear.factorizations == 0


@pytest.mark.filterwarnings("error")
def test_jacobian_beyond_single_precision_falls_back_to_double(
        monkeypatch, slab_spaces, tilted_params, base_solution):
    matrix, nearby = jacobians(slab_spaces, base_solution, tilted_params)
    matrix = 1e39 * matrix
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    monkeypatch.setattr(forward, "GMRES_RESTART", 0)    # every GMRES misses
    linear = forward._LinearSolver(forward.factorize(nearby))
    x = linear.solve(matrix, rhs, 1e-8)
    assert linear.factorizations == linear.fallbacks == 1
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


class _ProbeFailingLU:
    """Stands in for a symmetric-mode LU whose solves are useless."""

    def solve(self, rhs):
        return np.full_like(rhs, np.nan)


def _symmetric_splu_fails(monkeypatch, how):
    """Make every symmetric-mode ``splu`` call fail as ``how`` says
    (``raise`` or ``probe``); returns the list of option sets called."""
    real = scipy.sparse.linalg.splu
    calls = []

    def splu(matrix, **kwargs):
        calls.append(kwargs)
        if kwargs.get("options", {}).get("SymmetricMode"):
            if how == "raise":
                raise RuntimeError("Factor is exactly singular")
            return _ProbeFailingLU()
        return real(matrix, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    return calls


@pytest.mark.parametrize("how", ["raise", "probe"])
def test_failed_symmetric_lu_falls_back_to_colamd(monkeypatch, slab_spaces,
                                                  tilted_params, how):
    B, tau = coeffs(slab_spaces)
    matrix = assemble_jacobian(pg.zero_field(slab_spaces.velocity), B, tau,
                               tilted_params).reduced()
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    calls = _symmetric_splu_fails(monkeypatch, how)
    x = forward.factorize(matrix).solve(rhs)
    # the symmetric attempt, then SuperLU's default COLAMD with pivoting
    assert [c.get("permc_spec") for c in calls] == ["MMD_AT_PLUS_A", None]
    assert calls[1] == {}
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    # fresh spaces, so that the solve builds its rest LU under this splu
    spaces = pg.build_spaces(slab_spaces.mesh)
    sol = solve_forward(*coeffs(spaces), tilted_params)
    assert sol.report.converged
    assert sol.report.factorizations == 1
    assert sol.report.lu_fallbacks == 1


def test_symmetric_lu_fills_less_than_colamd():
    # a bedded slab rotates its slip rows into the bed frame, as the
    # benchmark's slabs do; the symmetric LU still needs no fallback
    mesh = pg.generate_slab_mesh(2.0, 1.0, 16, 8,
                                 bed_profile=lambda x: 0.05 * np.sin(np.pi * x))
    spaces = pg.build_spaces(mesh)
    B, tau = coeffs(spaces)
    params = PhysicsParams(body_force=TILTED_FORCE)
    sol = solve_forward(B, tau, params)
    assert sol.report.converged
    assert sol.report.lu_fallbacks == 0
    matrix = assemble_jacobian(sol.velocity, B, tau, params).reduced().tocsc()
    lu, fell_back = forward._factorize(matrix)
    plain = scipy.sparse.linalg.splu(matrix)
    assert not fell_back
    assert lu.L.nnz + lu.U.nnz < plain.L.nnz + plain.U.nnz
    rhs = spaces.reduce_vector(rng.standard_normal(spaces.n_sys))
    x, y = lu.solve(rhs), plain.solve(rhs)
    assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


def bedded_spaces_16x8():
    mesh = pg.generate_slab_mesh(2.0, 1.0, 16, 8,
                                 bed_profile=lambda x: 0.05 * np.sin(np.pi * x))
    return pg.build_spaces(mesh)


def bedded_spaces_4x2():
    mesh = pg.generate_slab_mesh(2.0, 1.0, 4, 2,
                                 bed_profile=lambda x: 0.05 * np.sin(np.pi * x))
    return pg.build_spaces(mesh)


def test_reduced_frame_is_node_blocked():
    spaces = bedded_spaces_4x2()
    n, n_u = spaces.n_sys, spaces.n_u
    R = spaces.reduced_frame().rotation.tocsc()
    assert abs(R.T @ R - scipy.sparse.identity(n)).max() <= 1e-15
    # column k of R holds the plain dofs of reduced dof k: all of one
    # node, its two velocity dofs or the pressure dof of a vertex
    column = np.repeat(np.arange(n), np.diff(R.indptr))
    dof_node = np.where(R.indices < n_u, R.indices // 2, R.indices - n_u)
    node = np.empty(n, dtype=np.int64)
    node[column] = dof_node
    assert np.array_equal(node[column], dof_node)
    pressure = np.zeros(n, dtype=bool)
    pressure[column[R.indices >= n_u]] = True
    # every node's dofs stand together, its velocity dofs first and a
    # vertex's pressure dof last
    first = np.flatnonzero(np.diff(node, prepend=-1))
    assert np.array_equal(np.sort(node[first]), np.arange(spaces.n_vnodes))
    size = np.diff(np.append(first, n))
    assert np.array_equal(size, np.where(node[first] < spaces.mesh.num_vertices, 3, 2))
    place = np.arange(n) - np.repeat(first, size)
    assert np.array_equal(pressure, place == 2)
    # slip nodes keep their tangent/normal pair, normal eliminated
    slip = int(np.count_nonzero(spaces.constraints.kinds
                                == pg.spaces.NodeConstraint.SLIP))
    assert slip > 0
    assert np.count_nonzero(np.diff(R.indptr) == 2) == 2 * slip


def test_reduced_frame_is_built_once_per_mesh(monkeypatch, tilted_params):
    builds = []
    real = pg.spaces._reduced_frame

    def counted(spaces_):
        builds.append(spaces_)
        return real(spaces_)

    monkeypatch.setattr(pg.spaces, "_reduced_frame", counted)
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    B, tau = coeffs(spaces)
    assemble_jacobian(pg.zero_field(spaces.velocity), B, tau, tilted_params)
    assert builds == []           # neither the spaces nor a Jacobian do
    sol = solve_forward(B, tau, tilted_params)
    assert builds == [spaces]
    cached = spaces.reduced_frame()
    factor_adjoint(sol.velocity, B, tau, tilted_params)
    assert spaces.reduced_frame() is cached
    assert builds == [spaces]


@pytest.mark.parametrize("mesh", ["bedded_4x2", "jittered"])
def test_eliminate_scatters_blocks_into_the_reduced_frame(mesh, tmp_path):
    # random element and bed blocks are far from symmetric, so a slot map
    # that swaps rows and columns, or drops the slip weights, would show
    spaces = (bedded_spaces_4x2() if mesh == "bedded_4x2"
              else pg.build_spaces(jittered_file_mesh(tmp_path)))
    nt, n_bed = spaces.mesh.num_triangles, spaces.basal_edge_indices.size
    system = AssembledSystem(spaces, rng.standard_normal((6, 6, 2, 2, nt)),
                             rng.standard_normal((n_bed, 3, 2, 3, 2)))
    reduced = spaces.eliminate(system.blocks, system.bed_blocks,
                               _reduced_coupling(spaces))
    assert reduced.format == "csc"
    frame = spaces.reduced_frame()
    R, cons = frame.rotation, frame.constrained
    want = (R.T @ full_operator(system) @ R).toarray()
    want[cons, :] = 0.0
    want[:, cons] = 0.0
    want[cons, cons] = 1.0
    assert np.abs(reduced.toarray() - want).max() <= 1e-13 * np.abs(want).max()
    assert reduced.indptr is frame.indptr
    assert np.shares_memory(reduced.indices, frame.indices)


def test_saddle_lu_factors_the_reduced_arrays_in_natural_order(
        monkeypatch, slab_spaces, tilted_params, base_solution):
    matrix, _ = jacobians(slab_spaces, base_solution, tilted_params)
    real = scipy.sparse.linalg.splu
    calls = []

    def splu(csc, **kwargs):
        calls.append((csc, kwargs))
        return real(csc, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    forward.factorize(matrix, "NATURAL")
    forward._factorize(matrix, "NATURAL", single=True)
    assert [kwargs["permc_spec"] for _, kwargs in calls] == ["NATURAL"] * 2
    # the double LU gets the operator itself, the single one a float32
    # copy of its data on the same index arrays: nothing is gathered
    assert calls[0][0] is matrix
    single = calls[1][0]
    assert single.dtype == np.float32
    assert np.array_equal(single.data, matrix.data.astype(np.float32))
    assert single.indptr is matrix.indptr
    assert np.shares_memory(single.indices, matrix.indices)


def test_node_order_fills_less_than_dof_minimum_degree():
    spaces = bedded_spaces_16x8()
    B, tau = coeffs(spaces)
    params = PhysicsParams(body_force=TILTED_FORCE)
    sol = solve_forward(B, tau, params)
    assert sol.report.converged
    assert sol.report.lu_fallbacks == 0
    matrix = assemble_jacobian(sol.velocity, B, tau, params).reduced()
    ordered, fell_back = forward._factorize(matrix, "NATURAL")
    dof_mmd, _ = forward._factorize(matrix)
    assert not fell_back
    assert ordered.L.nnz + ordered.U.nnz < dof_mmd.L.nnz + dof_mmd.U.nnz
    plain = scipy.sparse.linalg.splu(matrix)
    rhs = spaces.reduce_vector(rng.standard_normal(spaces.n_sys))
    x, y = ordered.solve(rhs), plain.solve(rhs)
    assert np.linalg.norm(x - y) <= 1e-10 * np.linalg.norm(y)


@pytest.mark.parametrize("how", ["raise", "probe"])
def test_failed_ordered_lu_falls_back_to_unpermuted_colamd(
        monkeypatch, slab_spaces, tilted_params, how):
    B, tau = coeffs(slab_spaces)
    matrix = assemble_jacobian(pg.zero_field(slab_spaces.velocity), B, tau,
                               tilted_params).reduced()
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    real = scipy.sparse.linalg.splu
    calls = []

    def splu(csc, **kwargs):
        calls.append((csc, kwargs))
        if kwargs.get("options", {}).get("SymmetricMode"):
            if how == "raise":
                raise RuntimeError("Factor is exactly singular")
            return _ProbeFailingLU()
        return real(csc, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    lu, fell_back = forward._factorize(matrix, "NATURAL")
    assert fell_back
    # the attempt in the reduced frame's own order, then COLAMD with
    # pivoting on that same matrix
    assert [kwargs.get("permc_spec") for _, kwargs in calls] == ["NATURAL", None]
    assert calls[1][1] == {}
    assert calls[0][0] is matrix and calls[1][0] is matrix
    x = lu.solve(rhs)
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    # fresh spaces, so that the solve builds its rest LU under this splu
    spaces = pg.build_spaces(slab_spaces.mesh)
    sol = solve_forward(*coeffs(spaces), tilted_params)
    assert sol.report.converged
    assert sol.report.factorizations == 1
    assert sol.report.lu_fallbacks == 1
