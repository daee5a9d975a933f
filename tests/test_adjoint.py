"""Observations, misfit functional and the dual solve."""

import numpy as np
import pytest

import pglacier as pg
from conftest import truth_friction, truth_rheology
from pglacier.adjoint import (Observation, factor_adjoint, misfit,
                              misfit_derivative_rhs, solve_adjoint)
from pglacier.spaces import velocity_trace

rng = np.random.default_rng(31)


def obs_shape(spaces):
    return (spaces.mesh.observed_edges.size,
            spaces.quadrature.edge_points.size)


def random_velocity(spaces, scale=0.1):
    full = rng.standard_normal(spaces.n_sys) * scale
    full = spaces.expand_vector(spaces.reduce_vector(full))
    return pg.Field(spaces.velocity, full[:spaces.n_u])


def test_mode_validation():
    with pytest.raises(ValueError, match="projection mode"):
        Observation(np.zeros((2, 3, 2)), mode="sideways")
    with pytest.raises(ValueError, match="3-dimensional"):
        Observation(np.zeros((2, 3)), mode="full_vector")
    with pytest.raises(ValueError, match="2-dimensional"):
        Observation(np.zeros((2, 3, 2)), mode="tangential")


@pytest.mark.parametrize("samples,mode,msg", [
    (np.zeros((2, 3, 3)), "full_vector", r"shape \(edges, points, 2\), got \(2, 3, 3\)"),
    (np.zeros((2, 3, 1)), "full_vector", r"got \(2, 3, 1\)"),
    (np.where(np.arange(12).reshape(2, 3, 2) == 7, np.nan, 1.0), "full_vector",
     r"sample \(1, 0, 1\) is nan, not finite"),
    (np.array([[0.0, 1.0, np.inf], [np.nan, 0.0, 0.0]]), "tangential",
     r"sample \(0, 2\) is inf, not finite"),
], ids=["three_components", "one_component", "nan", "inf"])
def test_bad_samples_are_rejected(samples, mode, msg):
    # these used to fail later: a broadcast error in the misfit, or a nan
    # misfit that the inversion reported as observations too large
    with pytest.raises(ValueError, match=msg):
        Observation(samples, mode=mode)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -1e-3])
def test_bad_noise_sigma_is_rejected(slab_spaces, tilted_params, sigma):
    # a nan sigma used to switch the inversion's noise-level stop off, and
    # a negative one to act as its absolute value
    msg = r"noise_sigma must be a finite float >= 0, got %r" % sigma
    with pytest.raises(ValueError, match=msg):
        Observation(np.zeros((2, 3, 2)), noise_sigma=sigma)
    with pytest.raises(ValueError, match=msg):
        pg.make_twin_data(truth_rheology(slab_spaces),
                          truth_friction(slab_spaces), tilted_params,
                          noise_sigma=sigma)


@pytest.mark.parametrize("sigma", [0.0, 1e-3])
def test_valid_noise_sigma_is_kept(slab_spaces, tilted_params, sigma):
    assert Observation(np.zeros((2, 3, 2)), noise_sigma=sigma).noise_sigma == sigma
    obs = pg.make_twin_data(truth_rheology(slab_spaces),
                            truth_friction(slab_spaces), tilted_params,
                            noise_sigma=sigma)
    assert obs.noise_sigma == sigma


def test_alignment_error_names_both_shapes(slab_spaces):
    v = pg.constant_field(slab_spaces.velocity, 0.0)
    obs = Observation(np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match=r"3 edges x 2 points"):
        misfit(v, obs)
    k, m = obs_shape(slab_spaces)
    with pytest.raises(ValueError, match=r"%d observed edges x %d quadrature" % (k, m)):
        misfit(v, obs)


def test_misfit_vanishes_on_exact_data(base_solution):
    v = base_solution.velocity
    spaces = v.space.parent
    samples = velocity_trace(v, spaces.mesh.observed_edges)
    assert misfit(v, Observation(samples)) <= 1e-30


def test_misfit_of_rest_state_against_constant_data(slab_spaces):
    # misfit = 0.5 |c|^2 * observed length; the whole top (length 2) is
    # observed on the slab fixture
    v = pg.constant_field(slab_spaces.velocity, 0.0)
    k, m = obs_shape(slab_spaces)
    samples = np.broadcast_to([0.3, -0.4], (k, m, 2))
    val = misfit(v, Observation(samples))
    assert abs(val - 0.5 * 0.25 * 2.0) <= 1e-14


def test_tangential_misfit_uses_tangential_component(slab_spaces):
    # constant field (a, b) on a flat top: only a enters the tangential
    # misfit, regardless of the stored tangent orientation
    a, b = 0.7, -2.0
    v = pg.Field(slab_spaces.velocity,
                 np.tile([a, b], slab_spaces.n_vnodes))
    k, m = obs_shape(slab_spaces)
    zero = Observation(np.zeros((k, m)), mode="tangential")
    assert abs(misfit(v, zero) - 0.5 * a * a * 2.0) <= 1e-13


def test_tangential_data_round_trip(slab_spaces):
    v = random_velocity(slab_spaces)
    observed = slab_spaces.mesh.observed_edges
    trace = velocity_trace(v, observed)
    t = slab_spaces.bedge_tangents[observed]
    samples = np.einsum("kmc,kc->km", trace, t)
    assert misfit(v, Observation(samples, mode="tangential")) <= 1e-28


@pytest.mark.parametrize("mode", ["full_vector", "tangential"])
def test_derivative_pairing_is_exact_for_quadratic(slab_spaces, mode):
    # the misfit is quadratic in v, so one central difference reproduces
    # the derivative pairing to rounding
    k, m = obs_shape(slab_spaces)
    if mode == "full_vector":
        obs = Observation(rng.standard_normal((k, m, 2)), mode=mode)
    else:
        obs = Observation(rng.standard_normal((k, m)), mode=mode)
    v = random_velocity(slab_spaces)
    z = random_velocity(slab_spaces)
    rhs = misfit_derivative_rhs(v, obs)
    pairing = rhs[:slab_spaces.n_u] @ z.values
    h = 1e-3
    vp = pg.Field(slab_spaces.velocity, v.values + h * z.values)
    vm = pg.Field(slab_spaces.velocity, v.values - h * z.values)
    fd = (misfit(vp, obs) - misfit(vm, obs)) / (2.0 * h)
    assert abs(pairing - fd) <= 1e-11 * max(abs(pairing), 1.0)


def test_derivative_pairs_to_twice_misfit_at_zero_data(slab_spaces):
    k, m = obs_shape(slab_spaces)
    obs = Observation(np.zeros((k, m, 2)))
    v = random_velocity(slab_spaces)
    rhs = misfit_derivative_rhs(v, obs)
    pairing = rhs[:slab_spaces.n_u] @ v.values
    assert abs(pairing - 2.0 * misfit(v, obs)) <= 1e-13 * max(pairing, 1.0)


def test_derivative_vanishes_on_exact_data(base_solution):
    v = base_solution.velocity
    spaces = v.space.parent
    samples = velocity_trace(v, spaces.mesh.observed_edges)
    rhs = misfit_derivative_rhs(v, Observation(samples))
    assert np.array_equal(rhs, np.zeros(spaces.n_sys))


def test_adjoint_state_zero_for_exact_data(base_solution, base_coeffs,
                                           tilted_params):
    B, tau = base_coeffs
    v = base_solution.velocity
    spaces = v.space.parent
    samples = velocity_trace(v, spaces.mesh.observed_edges)
    lu = factor_adjoint(v, B, tau, tilted_params)
    lam = solve_adjoint(v, Observation(samples), lu)
    assert np.array_equal(lam.values, np.zeros(spaces.n_u))


def test_adjoint_state_satisfies_constraints(base_solution, base_coeffs,
                                             tilted_params, slab_spaces):
    B, tau = base_coeffs
    v = base_solution.velocity
    k, m = obs_shape(slab_spaces)
    obs = Observation(rng.standard_normal((k, m, 2)) * 0.01)
    lam = solve_adjoint(v, obs, factor_adjoint(v, B, tau, tilted_params))
    assert slab_spaces.constraints.satisfies(lam.values, tol=1e-14)
    assert np.linalg.norm(lam.values) > 0.0


def test_adjoint_scales_linearly_in_the_data_gap(base_solution, base_coeffs,
                                                 tilted_params, slab_spaces):
    # the dual problem is linear: doubling the residual data doubles it
    B, tau = base_coeffs
    v = base_solution.velocity
    samples = velocity_trace(v, slab_spaces.mesh.observed_edges)
    gap = rng.standard_normal(samples.shape) * 0.01
    lu = factor_adjoint(v, B, tau, tilted_params)
    l1 = solve_adjoint(v, Observation(samples + gap), lu)
    l2 = solve_adjoint(v, Observation(samples + 2.0 * gap), lu)
    assert np.allclose(l2.values, 2.0 * l1.values,
                       atol=1e-12 * np.max(np.abs(l2.values)))
