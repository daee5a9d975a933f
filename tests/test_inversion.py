"""Reduced-cost evaluation, adjoint gradients, the Taylor check and
the projected Gauss-Newton iteration."""

import numpy as np
import pytest

import pglacier as pg
from pglacier.forward import SolverConfig, SolverError
from pglacier.inversion import (NonFiniteCostError, OptimizationConfig,
                                directional_derivative, evaluate_gradient,
                                in_box, make_state,
                                make_twin_data, project_onto_W,
                                regularization_parts, represent,
                                run_inversion, taylor_test)
from pglacier.spaces import velocity_trace

from conftest import raise_trial_costs, truth_friction, truth_rheology

rng = np.random.default_rng(47)


def sine_direction(spaces, amp=0.2):
    dB = pg.field_from_callable(spaces.coeff_omega,
                                lambda x, y: amp * np.sin(np.pi * x))
    dt = pg.field_from_callable(spaces.coeff_basal,
                                lambda x, y: amp * np.cos(np.pi * x))
    return dB, dt


def test_cost_at_truth_has_zero_misfit(slab_spaces, tilted_params,
                                       tight_solver, twin_obs):
    B, tau = truth_rheology(slab_spaces), truth_friction(slab_spaces)
    cost = make_state(B, tau, twin_obs, tilted_params, tight_solver).cost
    assert cost.misfit <= 1e-20
    assert cost.total == cost.misfit + cost.reg_rheology + cost.reg_friction


def test_constant_coefficients_have_zero_regularization(slab_spaces,
                                                        tilted_params,
                                                        base_coeffs):
    reg_b, reg_t = regularization_parts(*base_coeffs, tilted_params)
    assert abs(reg_b) <= 1e-15 and abs(reg_t) <= 1e-15


def test_regularization_of_linear_fields(slab_spaces):
    # B = a x has integral of |grad B|^2 equal to a^2 * area; tau = c x
    # integrates c^2 over the flat bed of length 2
    params = pg.PhysicsParams(reg_rheology=1e-3, reg_friction=1e-2)
    B = pg.field_from_callable(slab_spaces.coeff_omega,
                               lambda x, y: 0.7 * x + 1.0)
    tau = pg.field_from_callable(slab_spaces.coeff_basal,
                                 lambda x, y: 0.3 * x + 0.1)
    reg_b, reg_t = regularization_parts(B, tau, params)
    assert abs(reg_b - 0.5 * 1e-3 * 0.7 ** 2 * 2.0) <= 1e-15
    assert abs(reg_t - 0.5 * 1e-2 * 0.3 ** 2 * 2.0) <= 1e-15


def test_zero_weights_make_cost_pure_misfit(slab_spaces, tight_solver,
                                            twin_obs):
    params = pg.PhysicsParams(body_force=(0.5, -1.0), reg_rheology=0.0,
                              reg_friction=0.0)
    B, tau = truth_rheology(slab_spaces), truth_friction(slab_spaces)
    cost = make_state(B, tau, twin_obs, params, tight_solver).cost
    assert cost.total == cost.misfit
    assert cost.reg_rheology == 0.0 and cost.reg_friction == 0.0


def test_cost_rejects_out_of_box(slab_spaces, tilted_params, twin_obs):
    B = pg.constant_field(slab_spaces.coeff_omega, 100.0)
    tau = pg.constant_field(slab_spaces.coeff_basal, 0.5)
    with pytest.raises(ValueError, match="admissible box"):
        make_state(B, tau, twin_obs, tilted_params)


def test_cost_raises_on_solver_failure(slab_spaces, tilted_params, twin_obs,
                                       base_coeffs):
    broken = SolverConfig(max_newton=1)
    with pytest.raises(SolverError, match="did not converge"):
        make_state(*base_coeffs, twin_obs, tilted_params, broken)


def test_stale_state_is_refused(slab_spaces, tilted_params, tight_solver,
                                twin_obs, base_coeffs):
    state = make_state(*base_coeffs, twin_obs, tilted_params, tight_solver)
    state.rheology.values[0] += 1e-3
    with pytest.raises(ValueError, match="stale"):
        evaluate_gradient(state, tilted_params)
    state.rheology.values[0] -= 1e-3  # session fixture, restore


def test_gradient_vanishes_at_truth_without_regularization(slab_spaces,
                                                           tight_solver,
                                                           twin_obs):
    params = pg.PhysicsParams(body_force=(0.5, -1.0), reg_rheology=0.0,
                              reg_friction=0.0)
    B, tau = truth_rheology(slab_spaces), truth_friction(slab_spaces)
    state = make_state(B, tau, twin_obs, params, tight_solver)
    evaluate_gradient(state, params)
    assert np.max(np.abs(state.grad_rheology_dual)) <= 1e-14
    assert np.max(np.abs(state.grad_friction_dual)) <= 1e-14
    assert state.projected_grad_norm <= 1e-12


def test_regularization_only_gradient_identity(slab_spaces, tilted_params,
                                               tight_solver, base_coeffs):
    # data generated by the iterate itself kills the misfit term, so the
    # directional derivative is the exact Tikhonov pairing
    params = pg.PhysicsParams(body_force=(0.5, -1.0), reg_rheology=1e-3,
                              reg_friction=1e-2)
    B = pg.field_from_callable(slab_spaces.coeff_omega,
                               lambda x, y: 1.0 + 0.5 * x)
    tau = pg.field_from_callable(slab_spaces.coeff_basal,
                                 lambda x, y: 0.4 + 0.2 * x)
    sol = pg.solve_forward(B, tau, params, tight_solver)
    samples = velocity_trace(sol.velocity, slab_spaces.mesh.observed_edges)
    obs = pg.Observation(samples)
    state = make_state(B, tau, obs, params, tight_solver)
    dB = pg.field_from_callable(slab_spaces.coeff_omega,
                                lambda x, y: 2.0 * x)
    dt = pg.field_from_callable(slab_spaces.coeff_basal,
                                lambda x, y: -3.0 * x)
    got = directional_derivative(state, dB, dt, params)
    # exact pairings of linear gradients over area 2 and bed length 2
    want = 1e-3 * (0.5 * 2.0) * 2.0 + 1e-2 * (0.2 * -3.0) * 2.0
    assert abs(got - want) <= 1e-11 * abs(want)


def test_adjoint_gradient_matches_central_differences(slab_spaces,
                                                      tilted_params,
                                                      tight_solver, twin_obs,
                                                      base_coeffs):
    state = make_state(*base_coeffs, twin_obs, tilted_params, tight_solver)
    h = 1e-4
    for k in range(3):
        vals_b = rng.standard_normal(slab_spaces.coeff_omega.dof_count)
        vals_t = rng.standard_normal(slab_spaces.coeff_basal.dof_count)
        dB = pg.Field(slab_spaces.coeff_omega, vals_b)
        dt = pg.Field(slab_spaces.coeff_basal, vals_t)
        got = directional_derivative(state, dB, dt, tilted_params)
        fp = make_state(
            pg.Field(slab_spaces.coeff_omega, state.rheology.values + h * vals_b),
            pg.Field(slab_spaces.coeff_basal, state.friction.values + h * vals_t),
            twin_obs, tilted_params, tight_solver).cost.total
        fm = make_state(
            pg.Field(slab_spaces.coeff_omega, state.rheology.values - h * vals_b),
            pg.Field(slab_spaces.coeff_basal, state.friction.values - h * vals_t),
            twin_obs, tilted_params, tight_solver).cost.total
        fd = (fp - fm) / (2.0 * h)
        assert abs(got - fd) <= 1e-5 * max(abs(fd), 1e-12)


def test_taylor_slopes(slab_spaces, tilted_params, tight_solver, twin_obs,
                       base_coeffs):
    dB, dt = sine_direction(slab_spaces)
    state = make_state(*base_coeffs, twin_obs, tilted_params, tight_solver)
    report = taylor_test(state, dB, dt, tilted_params, tight_solver)
    assert np.all(report.h_values[:-1] > report.h_values[1:])
    assert 0.9 <= report.slope_zero <= 1.1
    assert 1.8 <= report.slope_first <= 2.2
    # second-order remainders shrink monotonically with h
    assert np.all(report.remainder_first[:-1] > report.remainder_first[1:])


def test_taylor_zero_direction(slab_spaces, tilted_params, tight_solver,
                               twin_obs, base_coeffs):
    zB = pg.constant_field(slab_spaces.coeff_omega, 0.0)
    zt = pg.constant_field(slab_spaces.coeff_basal, 0.0)
    state = make_state(*base_coeffs, twin_obs, tilted_params, tight_solver)
    report = taylor_test(state, zB, zt, tilted_params, tight_solver)
    assert np.array_equal(report.remainder_zero, np.zeros(4))
    assert np.array_equal(report.remainder_first, np.zeros(4))
    assert report.slope_zero is None and report.slope_first is None


def test_taylor_zero_direction_with_default_solver(
        slab_spaces, tilted_params, twin_obs, base_coeffs):
    # a warm re-solve at the converged state still steps while its
    # residual sits above newton_atol; an unmoved point is not re-solved
    zB = pg.constant_field(slab_spaces.coeff_omega, 0.0)
    zt = pg.constant_field(slab_spaces.coeff_basal, 0.0)
    state = make_state(*base_coeffs, twin_obs, tilted_params)
    report = taylor_test(state, zB, zt, tilted_params)
    assert np.array_equal(report.remainder_zero, np.zeros(4))
    assert np.array_equal(report.remainder_first, np.zeros(4))
    assert report.slope_zero is None and report.slope_first is None


def test_taylor_rejects_box_exit(slab_spaces, tilted_params, tight_solver,
                                 twin_obs, base_coeffs):
    big = pg.constant_field(slab_spaces.coeff_omega, 50.0)
    zt = pg.constant_field(slab_spaces.coeff_basal, 0.0)
    state = make_state(*base_coeffs, twin_obs, tilted_params, tight_solver)
    with pytest.raises(ValueError, match="admissible box at h"):
        taylor_test(state, big, zt, tilted_params, tight_solver)


def test_projection_clips_and_is_idempotent(slab_spaces, tilted_params):
    B = pg.Field(slab_spaces.coeff_omega,
                 rng.uniform(-3.0, 8.0, slab_spaces.coeff_omega.dof_count))
    tau = pg.Field(slab_spaces.coeff_basal,
                   rng.uniform(-3.0, 15.0, slab_spaces.coeff_basal.dof_count))
    pb, pf = project_onto_W(B, tau, tilted_params)
    assert in_box(pb, pf, tilted_params)
    qb, qf = project_onto_W(pb, pf, tilted_params)
    assert np.array_equal(pb.values, qb.values)
    assert np.array_equal(pf.values, qf.values)
    # values already inside the box are untouched
    inside = (B.values >= tilted_params.rheology_min) \
        & (B.values <= tilted_params.rheology_max)
    assert np.array_equal(pb.values[inside], B.values[inside])


def test_represent_validates_name(slab_spaces):
    # only the H1 map is left, and an unknown space name is not taken
    # for the bed
    dual = np.ones(slab_spaces.coeff_omega.dof_count)
    for which, representation, match in (
            ("omega", "H2", "representation 'H2'"),
            ("omega", "L2", "representation 'L2'"),
            ("omgea", "H1_smoothed", "space 'omgea'")):
        with pytest.raises(ValueError, match=match):
            represent(dual, slab_spaces, which, representation)


@pytest.mark.parametrize("field,value,least", [("max_iterations", -1, 0)])
def test_optimization_config_rejects_out_of_range(field, value, least):
    # the config file's bounds hold for API callers too
    with pytest.raises(ValueError,
                       match="%s must be >= %d, got %d" % (field, least, value)):
        OptimizationConfig(**{field: value})
    OptimizationConfig(**{field: least})


def test_zero_iteration_budget(slab_spaces, tilted_params, tight_solver,
                               twin_obs, base_coeffs):
    result = run_inversion(*base_coeffs, twin_obs, tilted_params,
                           OptimizationConfig(max_iterations=0), tight_solver)
    assert result.reason == "iteration_budget_zero"
    assert len(result.history) == 1
    assert result.history[0][0] == 0


def test_descent_from_truth_converges_immediately(slab_spaces, tight_solver,
                                                  twin_obs):
    params = pg.PhysicsParams(body_force=(0.5, -1.0), reg_rheology=0.0,
                              reg_friction=0.0)
    B, tau = truth_rheology(slab_spaces), truth_friction(slab_spaces)
    result = run_inversion(B, tau, twin_obs, params,
                           OptimizationConfig(max_iterations=5), tight_solver)
    assert result.reason == "converged"
    assert len(result.history) == 1


def test_descent_rejects_bad_start(slab_spaces, tilted_params, twin_obs):
    B = pg.constant_field(slab_spaces.coeff_omega, 50.0)
    tau = pg.constant_field(slab_spaces.coeff_basal, 0.5)
    with pytest.raises(ValueError, match="admissible box"):
        run_inversion(B, tau, twin_obs, tilted_params)


def test_small_twin_descent(slab_spaces, tilted_params, tight_solver,
                            twin_obs, base_coeffs):
    result = run_inversion(*base_coeffs, twin_obs, tilted_params,
                           OptimizationConfig(max_iterations=20), tight_solver)
    hist = result.history
    costs = [row[1] for row in hist]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    assert len(hist) == result.state.iteration + 1
    assert [row[0] for row in hist] == list(range(len(hist)))
    assert in_box(result.state.rheology, result.state.friction, tilted_params)
    # measured 84% misfit reduction after 20 steps; demand most of it
    assert hist[-1][2] <= 0.3 * hist[0][2]
    # rows carry the parts consistently
    it, cost, mis, rb, rt, pg_norm, step = hist[-1]
    assert abs(cost - (mis + rb + rt)) <= 1e-15 * cost
    assert pg_norm == result.state.projected_grad_norm
    assert step > 0.0


def test_twin_data_noise_statistics(slab_spaces, tilted_params, tight_solver):
    B, tau = truth_rheology(slab_spaces), truth_friction(slab_spaces)
    sigma = 0.01
    obs = make_twin_data(B, tau, tilted_params, noise_sigma=sigma, seed=5,
                         solver_config=tight_solver)
    assert obs.noise_sigma == sigma
    sol = pg.solve_forward(B, tau, tilted_params, tight_solver)
    mis = pg.misfit(sol.velocity, obs)
    # misfit at the truth is a weighted chi-square: mean sigma^2 L_obs,
    # variance sigma^4 sum of squared weights per component
    w = slab_spaces.quadrature.edge_weights
    lengths = slab_spaces.bedge_lengths[slab_spaces.mesh.observed_edges]
    wl = np.outer(lengths, w)
    mean = sigma ** 2 * lengths.sum()
    std = sigma ** 2 * np.sqrt((wl ** 2).sum())
    assert abs(mis - mean) <= 3.0 * std


def test_twin_data_is_seed_reproducible(slab_spaces, tilted_params,
                                        tight_solver):
    B, tau = truth_rheology(slab_spaces), truth_friction(slab_spaces)
    a = make_twin_data(B, tau, tilted_params, noise_sigma=0.1, seed=3,
                       solver_config=tight_solver)
    b = make_twin_data(B, tau, tilted_params, noise_sigma=0.1, seed=3,
                       solver_config=tight_solver)
    c = make_twin_data(B, tau, tilted_params, noise_sigma=0.1, seed=4,
                       solver_config=tight_solver)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_twin_data_tangential_mode(slab_spaces, tilted_params, tight_solver):
    B, tau = truth_rheology(slab_spaces), truth_friction(slab_spaces)
    obs = make_twin_data(B, tau, tilted_params, mode="tangential",
                         solver_config=tight_solver)
    k = slab_spaces.mesh.observed_edges.size
    m = slab_spaces.quadrature.edge_points.size
    assert obs.samples.shape == (k, m)
    sol = pg.solve_forward(B, tau, tilted_params, tight_solver)
    assert pg.misfit(sol.velocity, obs) <= 1e-25
    with pytest.raises(ValueError, match="projection mode"):
        make_twin_data(B, tau, tilted_params, mode="normal")


def test_twin_data_checks_the_mode_before_the_solve(monkeypatch, slab_spaces,
                                                    tilted_params):
    from pglacier import inversion

    def no_solve(*args, **kwargs):
        raise AssertionError("forward solve before the mode check")

    monkeypatch.setattr(inversion, "solve_forward", no_solve)
    B, tau = truth_rheology(slab_spaces), truth_friction(slab_spaces)
    with pytest.raises(ValueError, match="unknown projection mode 'radial'"):
        make_twin_data(B, tau, tilted_params, mode="radial")


def test_trials_log_every_line_search_trial(monkeypatch, slab_spaces,
                                            tilted_params, tight_solver,
                                            twin_obs, base_coeffs):
    from pglacier import inversion

    calls = []
    original = inversion.solve_forward

    def fails_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:                 # the first line-search trial
            raise SolverError("injected forward failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(inversion, "solve_forward", fails_once)
    raise_trial_costs(monkeypatch, {2})     # and rejects the second
    result = run_inversion(*base_coeffs, twin_obs, tilted_params,
                           OptimizationConfig(max_iterations=3), tight_solver)
    trials = result.trials
    assert len(trials) == len(calls) - 1
    assert trials[0] == (1, 1.0, None, "solver_failure",
                         "injected forward failure")
    assert trials[1][:2] == (1, 0.5)        # the step halves after a failure
    outcomes = [t[3] for t in trials]
    assert set(outcomes) <= {"accepted", "rejected", "solver_failure"}
    assert "rejected" in outcomes
    accepted = [t for t in trials if t[3] == "accepted"]
    assert [(t[0], t[1], t[2]) for t in accepted] \
        == [(row[0], row[6], row[1]) for row in result.history[1:]]
    for it, step, cost, outcome, failure in trials:
        assert (cost is None) == (outcome == "solver_failure")
        assert (failure != "") == (outcome == "solver_failure")


def test_descent_refuses_non_finite_starting_cost(tilted_params, twin_obs,
                                                  base_coeffs):
    # used to run every iteration on an infinite cost and report success
    huge = pg.Observation(np.full_like(twin_obs.samples, 1e300))
    with pytest.raises(NonFiniteCostError, match="misfit inf"), \
            pytest.warns(RuntimeWarning, match="overflow encountered"):
        run_inversion(*base_coeffs, huge, tilted_params)


def test_taylor_refuses_non_finite_base_cost(slab_spaces, tilted_params,
                                             twin_obs, base_coeffs):
    # used to return nan remainders
    huge = pg.Observation(np.full_like(twin_obs.samples, 1e300))
    db = pg.constant_field(slab_spaces.coeff_omega, 0.1)
    df = pg.constant_field(slab_spaces.coeff_basal, 0.1)
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        state = make_state(*base_coeffs, huge, tilted_params)
    with pytest.raises(NonFiniteCostError, match="misfit inf"):
        taylor_test(state, db, df, tilted_params)
