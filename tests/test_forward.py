"""Damped Newton forward solver: exact special cases, convergence
behaviour, warm starts, sensitivity solves and failure paths."""

import numpy as np
import pytest
import scipy.sparse.linalg

import pglacier as pg
from pglacier import forward
from pglacier.adjoint import factor_adjoint
from pglacier.assembly import (assemble_coeff_derivative, assemble_jacobian,
                               solver_sign)
from pglacier.forward import (SolverConfig, SolverError, energy_bound,
                              solve_forward)
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
                        SolverConfig(max_newton=0))
    assert not sol.report.converged
    assert sol.report.continuation_used


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
    lhs = slab_spaces.reduce_vector(system.matrix @ x)
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
    d = assemble_coeff_derivative(base.velocity, dB, dt, tilted_params)
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
    lu, fell_back = forward._factorize(nearby, slab_spaces.saddle_order(),
                                       single=True)
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
    B, tau = coeffs(slab_spaces)
    sol = solve_forward(B, tau, tilted_params)
    assert sol.report.lu_fallbacks == 0
    assert dtypes == [np.float32] * sol.report.factorizations
    del dtypes[:]
    factor_adjoint(sol.velocity, B, tau, tilted_params)
    assert dtypes == [np.float64]


def test_double_precision_lus_solve_without_refinement(
        slab_spaces, tilted_params, base_solution):
    # the dual operator's LU and the Riesz maps' LUs are exact solves
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
        for representation, gram in (("L2", mass),
                                     ("H1_smoothed", mass + stiffness)):
            x = pg.inversion.represent(dual, slab_spaces, which, representation)
            assert (np.linalg.norm(gram @ x - dual)
                    <= 1e-12 * np.linalg.norm(dual))


@pytest.mark.filterwarnings("error")
def test_single_precision_lu_solves_a_huge_right_hand_side(
        slab_spaces, tilted_params, base_solution):
    # each right-hand side is scaled to unit max-abs before the float32
    # cast, which would overflow 1e300 to inf
    matrix, _ = jacobians(slab_spaces, base_solution, tilted_params)
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    unrefined, refined = [], []
    for b in (rhs, 1e300 * rhs):
        linear = forward._LinearSolver(slab_spaces)
        x = linear.solve(matrix, b)
        assert linear.fallbacks == 0
        refined.append(np.abs(matrix @ x - b).max() / np.abs(b).max())
        x = linear.lu.solve(b)
        unrefined.append(np.abs(matrix @ x - b).max() / np.abs(b).max())
    assert unrefined[1] == pytest.approx(unrefined[0], rel=1e-6)
    assert max(refined) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_jacobian_beyond_single_precision_falls_back_to_double(
        slab_spaces, tilted_params, base_solution):
    matrix, _ = jacobians(slab_spaces, base_solution, tilted_params)
    matrix = 1e39 * matrix
    rhs = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
    linear = forward._LinearSolver(slab_spaces)
    x = linear.solve(matrix, rhs)
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

    sol = solve_forward(B, tau, tilted_params)
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


def test_saddle_order_is_node_blocked():
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    order = spaces.saddle_order().order
    assert np.array_equal(np.sort(order), np.arange(spaces.n_sys))
    position = np.empty(spaces.n_sys, dtype=np.int64)
    position[order] = np.arange(spaces.n_sys)
    # every node's two velocity dofs stand together, and a vertex's
    # pressure dof follows them at once
    nodes = np.arange(spaces.n_vnodes)
    assert np.all(position[2 * nodes + 1] == position[2 * nodes] + 1)
    vertices = np.arange(spaces.mesh.num_vertices)
    assert np.all(position[spaces.n_u + vertices]
                  == position[2 * vertices + 1] + 1)


def test_saddle_order_is_built_once_per_mesh(monkeypatch, tilted_params):
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    builds = []
    real = pg.spaces._saddle_order

    def counted(spaces_):
        builds.append(spaces_)
        return real(spaces_)

    monkeypatch.setattr(pg.spaces, "_saddle_order", counted)
    spaces.saddle_pattern()
    assert builds == []                     # the pattern alone does not
    B, tau = coeffs(spaces)
    sol = solve_forward(B, tau, tilted_params)
    assert builds == [spaces]
    cached = spaces.saddle_order()
    factor_adjoint(sol.velocity, B, tau, tilted_params)
    assert spaces.saddle_order() is cached
    assert builds == [spaces]


def test_gathered_permutation_equals_fancy_indexing():
    spaces = bedded_spaces_16x8()
    pattern = spaces.saddle_pattern()
    matrix = pattern.eliminate(rng.standard_normal(pattern.nnz))
    saddle = spaces.saddle_order()
    gathered = saddle.permute(matrix)
    indexed = matrix[saddle.order][:, saddle.order].tocsc()
    indexed.sort_indices()
    assert gathered.format == "csc"
    assert np.array_equal(gathered.indptr, indexed.indptr)
    assert np.array_equal(gathered.indices, indexed.indices)
    assert np.array_equal(gathered.data, indexed.data)
    with pytest.raises(ValueError, match="saddle pattern"):
        saddle.permute(matrix[:, :-1])


def test_node_order_fills_less_than_dof_minimum_degree():
    spaces = bedded_spaces_16x8()
    B, tau = coeffs(spaces)
    params = PhysicsParams(body_force=TILTED_FORCE)
    sol = solve_forward(B, tau, params)
    assert sol.report.converged
    assert sol.report.lu_fallbacks == 0
    matrix = assemble_jacobian(sol.velocity, B, tau, params).reduced()
    ordered, fell_back = forward._factorize(matrix, spaces.saddle_order())
    dof_mmd, _ = forward._factorize(matrix)
    assert not fell_back
    assert (ordered.lu.L.nnz + ordered.lu.U.nnz
            < dof_mmd.L.nnz + dof_mmd.U.nnz)
    plain = scipy.sparse.linalg.splu(matrix.tocsc())
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
    saddle = slab_spaces.saddle_order()
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
    lu, fell_back = forward._factorize(matrix, saddle)
    assert fell_back
    # the permuted symmetric attempt, then COLAMD with pivoting on the
    # matrix as given
    assert [kwargs.get("permc_spec") for _, kwargs in calls] == ["NATURAL", None]
    assert calls[1][1] == {}
    assert (calls[1][0] != matrix).nnz == 0
    x = lu.solve(rhs)
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    sol = solve_forward(B, tau, tilted_params)
    assert sol.report.converged
    assert sol.report.factorizations == 1
    assert sol.report.lu_fallbacks == 1
