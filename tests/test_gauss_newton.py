"""The Gauss-Newton Hessian on the held dual LU and coefficient
Jacobian, and the projected Gauss-Newton-CG iteration built on it."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import pglacier as pg
from pglacier import adjoint, assembly, inversion
from pglacier.inversion import (OptimizationConfig, evaluate_gradient,
                                gradient_duals, hessian_product, in_box,
                                linearized_state, make_state,
                                regularization_parts, run_inversion)

from conftest import (coeff_derivative, coeff_gradient_duals, truth_friction,
                      truth_rheology)

rng = np.random.default_rng(29)


def random_direction(spaces):
    return (pg.Field(spaces.coeff_omega,
                     rng.standard_normal(spaces.coeff_omega.dof_count)),
            pg.Field(spaces.coeff_basal,
                     rng.standard_normal(spaces.coeff_basal.dof_count)))


def pair(duals, direction):
    return float(sum(g @ d.values for g, d in zip(duals, direction)))


@pytest.fixture
def base_state(slab_spaces, tilted_params, tight_solver, twin_obs,
               base_coeffs):
    state = make_state(*base_coeffs, twin_obs, tilted_params, tight_solver)
    evaluate_gradient(state, tilted_params)
    return state


def test_hessian_is_symmetric(slab_spaces, tilted_params, base_state):
    for _ in range(3):
        d1, d2 = random_direction(slab_spaces), random_direction(slab_spaces)
        a = pair(hessian_product(base_state, *d1, tilted_params), d2)
        b = pair(hessian_product(base_state, *d2, tilted_params), d1)
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_hessian_quadratic_form_is_observed_change_plus_tikhonov(
        slab_spaces, tilted_params, base_state):
    zero = pg.Observation(np.zeros_like(base_state.obs.samples))
    for _ in range(3):
        d = random_direction(slab_spaces)
        du = pg.Field(slab_spaces.velocity,
                      linearized_state(base_state, *d)[:slab_spaces.n_u])
        # |O du|^2 is twice the misfit of du against zero data, and the
        # Tikhonov term twice the regularization parts of d
        want = 2.0 * (pg.misfit(du, zero)
                      + sum(regularization_parts(*d, tilted_params)))
        got = pair(hessian_product(base_state, *d, tilted_params), d)
        assert got > 0.0
        assert abs(got - want) <= 1e-12 * want


def test_hessian_matches_gradient_differences_at_noiseless_truth(
        slab_spaces, tilted_params, tight_solver, twin_obs):
    # zero misfit residual: the dual state vanishes, so Gauss-Newton is
    # Newton and H d is the derivative of the gradient duals along d
    B, tau = truth_rheology(slab_spaces), truth_friction(slab_spaces)
    state = make_state(B, tau, twin_obs, tilted_params, tight_solver)
    evaluate_gradient(state, tilted_params)
    h = 1e-4
    for _ in range(2):
        db, df = (pg.Field(f.space, 0.1 * f.values)
                  for f in random_direction(slab_spaces))
        shifted = [gradient_duals(make_state(
            pg.Field(B.space, B.values + sign * h * db.values),
            pg.Field(tau.space, tau.values + sign * h * df.values),
            twin_obs, tilted_params, tight_solver), tilted_params)
            for sign in (1.0, -1.0)]
        got = np.concatenate(hessian_product(state, db, df, tilted_params))
        fd = (np.concatenate(shifted[0]) - np.concatenate(shifted[1])) / (2 * h)
        assert np.linalg.norm(got - fd) <= 1e-6 * np.linalg.norm(fd)


@pytest.fixture(params=["full_vector", "tangential"])
def mode_state(request, slab_spaces, tilted_params, tight_solver,
               base_coeffs):
    obs = pg.make_twin_data(truth_rheology(slab_spaces),
                            truth_friction(slab_spaces), tilted_params,
                            mode=request.param, solver_config=tight_solver)
    state = make_state(*base_coeffs, obs, tilted_params, tight_solver)
    evaluate_gradient(state, tilted_params)
    return state


def element_path_hessian(state, d_b, d_t, params):
    """The Hessian product as assembled element by element: linearized
    state, misfit derivative against zero data, dual solve and gradient
    duals of that dual state, plus the Tikhonov terms."""
    spaces = state.rheology.space.parent
    n_u, lu = spaces.n_u, state.adjoint_lu

    def held(dual):
        return pg.Field(spaces.velocity, spaces.expand_vector(
            lu.solve(spaces.reduce_vector(dual)))[:n_u])
    du = held(-(pg.solver_sign(spaces)
                * coeff_derivative(state.velocity, d_b, d_t, params)))
    zero = pg.Observation(np.zeros_like(state.obs.samples), state.obs.mode)
    dl = held(-pg.misfit_derivative_rhs(du, zero))
    data = coeff_gradient_duals(state.velocity, dl, params)
    reg = inversion._tikhonov_duals(d_b, d_t, params)
    return np.concatenate([data[0] + reg[0], data[1] + reg[1]])


def test_hessian_matches_the_element_path(slab_spaces, tilted_params,
                                          mode_state):
    for _ in range(3):
        d = random_direction(slab_spaces)
        got = np.concatenate(hessian_product(mode_state, *d, tilted_params))
        want = element_path_hessian(mode_state, *d, tilted_params)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_observation_gram_is_the_reduced_misfit_derivative(slab_spaces,
                                                          mode_state):
    mode = mode_state.obs.mode
    Q = adjoint.observation_gram(slab_spaces, mode)
    assert Q is adjoint.observation_gram(slab_spaces, mode)
    zero = pg.Observation(np.zeros_like(mode_state.obs.samples), mode)
    for _ in range(3):
        w = slab_spaces.reduce_vector(rng.standard_normal(slab_spaces.n_sys))
        du = pg.Field(slab_spaces.velocity,
                      slab_spaces.expand_vector(w)[:slab_spaces.n_u])
        want = slab_spaces.reduce_vector(pg.misfit_derivative_rhs(du, zero))
        assert np.linalg.norm(Q @ w - want) <= 1e-12 * np.linalg.norm(want)


def test_held_coefficient_jacobian_belongs_to_one_state(
        slab_spaces, tilted_params, tight_solver, twin_obs, base_coeffs,
        base_state):
    B, tau = base_coeffs
    other = make_state(pg.Field(B.space, 1.1 * B.values), tau, twin_obs,
                       tilted_params, tight_solver)
    assert other.coeff_jacobian is None
    evaluate_gradient(other, tilted_params)
    assert other.coeff_jacobian is not base_state.coeff_jacobian
    assert abs(other.coeff_jacobian - base_state.coeff_jacobian).max() > 0.0
    # coefficients changed after the solves: every held product refuses
    other.rheology.values[0] += 0.01
    d = random_direction(slab_spaces)
    with pytest.raises(ValueError, match="fresh state"):
        hessian_product(other, *d, tilted_params)
    with pytest.raises(ValueError, match="fresh state"):
        linearized_state(other, *d)
    with pytest.raises(ValueError, match="stale inversion state"):
        gradient_duals(other, tilted_params)


def test_hessian_product_runs_no_element_assembly(monkeypatch, slab_spaces,
                                                  tilted_params, base_state):
    d = random_direction(slab_spaces)
    first = hessian_product(base_state, *d, tilted_params)   # builds Q once

    def refuse(*args, **kwargs):
        raise AssertionError("element assembly in a Hessian product")
    for name in ("_pair_flux", "_pair_volume", "_pair_trace", "_element_matrix"):
        monkeypatch.setattr(assembly, name, refuse)
    monkeypatch.setattr(inversion, "assemble_coeff_jacobian", refuse)
    again = hessian_product(base_state, *d, tilted_params)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    linearized_state(base_state, *d)


def test_hessian_refuses_a_state_without_its_dual_lu(
        slab_spaces, tilted_params, tight_solver, twin_obs, base_coeffs):
    state = make_state(*base_coeffs, twin_obs, tilted_params, tight_solver)
    with pytest.raises(ValueError, match="gradient evaluated"):
        hessian_product(state, *random_direction(slab_spaces), tilted_params)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_iteration_factors_only_the_accepted_dual_operator(
        monkeypatch, slab_spaces, tilted_params, tight_solver, twin_obs,
        base_coeffs):
    args = (*base_coeffs, twin_obs, tilted_params)
    # fills the per-mesh Riesz-map LUs and counts the start's own LUs
    run_inversion(*args, OptimizationConfig(max_iterations=0), tight_solver)
    lus = count_calls(monkeypatch, spla, "splu")
    run_inversion(*args, OptimizationConfig(max_iterations=0), tight_solver)
    start = len(lus)
    solves = count_calls(monkeypatch, inversion, "solve_forward")
    gradients = count_calls(monkeypatch, inversion, "evaluate_gradient")
    products = count_calls(monkeypatch, inversion, "hessian_product")
    operators = count_calls(monkeypatch, adjoint, "assemble_adjoint_operator")
    result = run_inversion(*args, OptimizationConfig(max_iterations=1),
                           tight_solver)
    assert [t[3] for t in result.trials] == ["accepted"]
    assert len(result.history) == 2 and len(products) >= 1
    # the start's LUs again, then the accepted state's dual LU alone:
    # its trial ran on the held LU and the products factor nothing
    assert len(lus) - start == start + 1
    assert len(operators) == len(gradients) == len(result.history)
    assert len(solves) == 1 + len(result.trials)


def test_relative_projected_gradient_stop(monkeypatch, slab_spaces,
                                          tilted_params, tight_solver,
                                          twin_obs, base_coeffs):
    monkeypatch.setattr(inversion, "GRAD_TOL", 0.0)
    result = run_inversion(*base_coeffs, twin_obs, tilted_params,
                           OptimizationConfig(max_iterations=50), tight_solver)
    norms = [row[5] for row in result.history]
    assert result.reason == "converged"
    assert norms[-1] <= inversion.GRAD_RTOL * norms[0] < min(norms[:-1])


def test_cg_forcing_is_the_gradient_ratio_under_a_cap():
    cap = inversion.CG_FORCING_MAX
    assert cap == 0.1
    assert inversion._cg_forcing(3.0, None) == cap
    assert inversion._cg_forcing(2e-3, 1.0) == pytest.approx(2e-3, rel=1e-15)
    assert inversion._cg_forcing(0.5, 1.0) == cap


def test_twin_inversion_reaches_its_target_by_iterate_two(
        monkeypatch, fine_spaces, tilted_params, tight_solver):
    # the criterion-7 twin: the square-root forcing min(0.5, sqrt(|g| /
    # |g0|)) took 11 iterations and 58 Hessian products and reached a
    # misfit ratio of 0.1 at iterate 4; quadratic forcing takes 7 and 63
    # and reaches it at iterate 2
    spaces = fine_spaces
    obs = pg.make_twin_data(truth_rheology(spaces), truth_friction(spaces),
                            tilted_params, solver_config=tight_solver)
    products = count_calls(monkeypatch, inversion, "hessian_product")
    result = run_inversion(pg.constant_field(spaces.coeff_omega, 1.0),
                           pg.constant_field(spaces.coeff_basal, 0.5), obs,
                           tilted_params, OptimizationConfig(max_iterations=100))
    misfits = [row[2] for row in result.history]
    assert result.reason == "converged"
    assert misfits[2] <= 0.1 * misfits[0]
    assert len(result.history) - 1 <= 8
    assert len(products) <= 70


def test_boxed_twin_inversion_converges(fine_spaces, tilted_params,
                                        tight_solver):
    # the criterion-7 truth leaves this box (its rheology falls to 0.5,
    # its friction rises to 0.9), and the fit ends on the rheology bound
    spaces = fine_spaces
    obs = pg.make_twin_data(truth_rheology(spaces), truth_friction(spaces),
                            tilted_params, solver_config=tight_solver)
    boxed = pg.PhysicsParams(body_force=tilted_params.body_force,
                             rheology_min=0.9, friction_max=0.8)
    result = run_inversion(pg.constant_field(spaces.coeff_omega, 1.0),
                           pg.constant_field(spaces.coeff_basal, 0.5), obs,
                           boxed, OptimizationConfig(max_iterations=100))
    # projected gradient descent stopped at iteration 19 with
    # line_search_failed and a misfit ratio of 0.179; measured here under
    # quadratic CG forcing: converged after 6 iterations and 6 trials (44
    # Hessian products) at a ratio of 0.148
    assert result.reason in ("converged", "max_iterations")
    misfits = [row[2] for row in result.history]
    assert misfits[-1] <= 0.179 * misfits[0]
    costs = [row[1] for row in result.history]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    state = result.state
    assert in_box(state.rheology, state.friction, boxed)
    assert np.any(state.rheology.values == 0.9)


@pytest.mark.parametrize("mode", ["full_vector", "tangential"])
def test_noise_misfit_is_the_expected_misfit_of_the_truth(
        slab_spaces, tilted_params, tight_solver, mode):
    truth = (truth_rheology(slab_spaces), truth_friction(slab_spaces))
    exact = pg.make_twin_data(*truth, tilted_params, mode=mode,
                              solver_config=tight_solver)
    assert inversion.noise_misfit(slab_spaces, exact) == 0.0
    velocity = pg.solve_forward(*truth, tilted_params, tight_solver).velocity
    sigma = 1e-3
    draws = [pg.misfit(velocity, pg.Observation(
        exact.samples + sigma * np.random.default_rng(seed).standard_normal(
            exact.samples.shape), mode, sigma)) for seed in range(200)]
    expected = inversion.noise_misfit(
        slab_spaces, pg.Observation(exact.samples, mode, sigma))
    assert abs(np.mean(draws) / expected - 1.0) <= 0.05


def test_noisy_inversion_stops_at_the_noise_level(slab_spaces, tilted_params,
                                                  tight_solver, base_coeffs):
    truth = (truth_rheology(slab_spaces), truth_friction(slab_spaces))
    obs = pg.make_twin_data(*truth, tilted_params, noise_sigma=1e-3,
                            solver_config=tight_solver)
    floor = inversion.DISCREPANCY_TAU * inversion.noise_misfit(slab_spaces, obs)
    result = run_inversion(*base_coeffs, obs, tilted_params,
                           OptimizationConfig(max_iterations=50), tight_solver)
    misfits = [row[2] for row in result.history]
    assert result.reason == "noise_level"
    assert misfits[-1] <= floor < min(misfits[:-1])

    # data that starts within the noise takes no step
    start = run_inversion(*truth, obs, tilted_params,
                          OptimizationConfig(max_iterations=50), tight_solver)
    assert start.reason == "noise_level"
    assert len(start.history) == 1 and start.trials == []



def test_exact_data_never_stops_at_the_noise_level(
        slab_spaces, tilted_params, tight_solver, twin_obs):
    # started at the truth of exact data the misfit is exactly 0, which
    # is at no noise level
    truth = (truth_rheology(slab_spaces), truth_friction(slab_spaces))
    result = run_inversion(*truth, twin_obs, tilted_params,
                           OptimizationConfig(max_iterations=1), tight_solver)
    assert result.history[0][2] == 0.0
    assert result.reason != "noise_level"
