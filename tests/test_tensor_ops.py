"""Pointwise nonlinear kernels: closed-form values, derivative
consistency and the structural inequalities they must satisfy."""

import numpy as np
import pytest

from pglacier.tensor_ops import (PhysicsParams, monotonicity_witness,
                                 s_gamma, s_gamma_prime_apply, s_omega,
                                 s_omega_prime_apply)

rng = np.random.default_rng(7)


def params(p=4.0 / 3.0, s=None, delta=0.1, **kw):
    return PhysicsParams(p=p, s=s, delta=delta, **kw)


# -- kernel values ------------------------------------------------------


@pytest.mark.parametrize("delta", [0.0, 1e-3, 0.1, 1.0])
def test_matrix_kernel_vanishes_at_zero(delta):
    out = s_omega(np.zeros((2, 2)), params(delta=delta))
    assert np.array_equal(out, np.zeros((2, 2)))


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_linear_limit_is_identity(delta):
    # p = 2 removes the magnitude factor entirely
    P = rng.standard_normal((6, 2, 2))
    assert np.allclose(s_omega(P, params(p=2.0, delta=delta)), P, atol=1e-15)
    v = rng.standard_normal((6, 2))
    assert np.allclose(s_gamma(v, params(p=2.0, delta=delta)), v, atol=1e-15)


def test_matrix_kernel_closed_form():
    # |P| = sqrt(2) for diag(1, -1); factor 2^((p-2)/2) = 2^(-1/3)
    P = np.diag([1.0, -1.0])
    out = s_omega(P, params(delta=0.0))
    assert np.allclose(out, 2.0 ** (-1.0 / 3.0) * P, atol=1e-15)


def test_vector_kernel_closed_form():
    v = np.array([3.0, 4.0])
    pr = params(p=1.5, delta=0.0)
    assert np.allclose(s_gamma(v, pr), 5.0 ** (pr.s - 2.0) * v, atol=1e-14)


def test_delta_shift_enters_magnitude():
    P = np.diag([1.0, -1.0])
    pr = params(delta=0.3)
    expect = (2.0 + 0.09) ** ((pr.p - 2.0) / 2.0) * P
    assert np.allclose(s_omega(P, pr), expect, atol=1e-15)


def test_kernels_broadcast():
    P = rng.standard_normal((3, 5, 2, 2))
    v = rng.standard_normal((4, 7, 2))
    pr = params()
    assert s_omega(P, pr).shape == (3, 5, 2, 2)
    assert s_gamma(v, pr).shape == (4, 7, 2)


def test_derivative_kernels_broadcast():
    # P and v are broadcast against every direction before the flattening
    pr = params()
    P, W = rng.standard_normal((2, 2)), rng.standard_normal((5, 2, 2))
    out = s_omega_prime_apply(P, W, pr)
    assert out.shape == (5, 2, 2)
    want = np.stack([s_omega_prime_apply(P, Wi, pr) for Wi in W])
    assert out.tobytes() == want.tobytes()
    v, w = rng.standard_normal(2), rng.standard_normal((3, 4, 2))
    out = s_gamma_prime_apply(v, w, pr)
    assert out.shape == (3, 4, 2)
    want = np.stack([[s_gamma_prime_apply(v, wij, pr) for wij in wi] for wi in w])
    assert out.tobytes() == want.tobytes()


# -- derivatives --------------------------------------------------------


def test_derivative_at_origin_is_scaled_identity():
    # S'(0) W = delta^(p-2) W
    pr = params(delta=0.2)
    W = rng.standard_normal((2, 2))
    out = s_omega_prime_apply(np.zeros((2, 2)), W, pr)
    assert np.allclose(out, 0.2 ** (pr.p - 2.0) * W, atol=1e-14)
    w = rng.standard_normal(2)
    outv = s_gamma_prime_apply(np.zeros(2), w, pr)
    assert np.allclose(outv, 0.2 ** (pr.s - 2.0) * w, atol=1e-14)


def test_derivative_along_the_state():
    # radial direction: d/dt S(tP) at t=1 has the closed form
    # (p-2) m^((p-4)/2) |P|^2 P + m^((p-2)/2) P with m = |P|^2 + delta^2
    pr = params(p=1.6, delta=0.4)
    P = rng.standard_normal((2, 2))
    m = (P ** 2).sum() + pr.delta ** 2
    expect = ((pr.p - 2.0) * m ** ((pr.p - 4.0) / 2.0) * (P ** 2).sum()
              + m ** ((pr.p - 2.0) / 2.0)) * P
    assert np.allclose(s_omega_prime_apply(P, P, pr), expect, atol=1e-14)


@pytest.mark.parametrize("p,delta", [(1.2, 0.05), (4.0 / 3.0, 0.1),
                                     (1.9, 1.0)])
def test_matrix_derivative_matches_difference_quotient(p, delta):
    pr = params(p=p, delta=delta)
    P = rng.standard_normal((2, 2))
    W = rng.standard_normal((2, 2))
    applied = s_omega_prime_apply(P, W, pr)
    # stop at h = 1e-4: below that rounding pollutes the quotient
    hs = np.logspace(-1, -4, 4)
    errs = []
    for h in hs:
        fd = (s_omega(P + h * W, pr) - s_omega(P - h * W, pr)) / (2.0 * h)
        errs.append(np.max(np.abs(fd - applied)))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.9


def test_vector_derivative_matches_difference_quotient():
    pr = params(p=1.7, s=1.5, delta=0.2)
    v = rng.standard_normal(2)
    w = rng.standard_normal(2)
    applied = s_gamma_prime_apply(v, w, pr)
    h = 1e-5
    fd = (s_gamma(v + h * w, pr) - s_gamma(v - h * w, pr)) / (2.0 * h)
    assert np.max(np.abs(fd - applied)) <= 1e-9


def test_derivative_is_symmetric_bilinear_form():
    pr = params()
    P = rng.standard_normal((2, 2))
    W = rng.standard_normal((2, 2))
    V = rng.standard_normal((2, 2))
    left = (s_omega_prime_apply(P, W, pr) * V).sum()
    right = (s_omega_prime_apply(P, V, pr) * W).sum()
    assert abs(left - right) <= 1e-14 * max(abs(left), 1.0)


@pytest.mark.parametrize("p,delta", [(1.2, 1e-3), (4.0 / 3.0, 0.1),
                                     (1.6, 0.1), (1.9, 1.0)])
def test_derivative_coercivity(p, delta):
    # (S'(P) W) : W >= (p-1)(|P|^2+d^2)^((p-2)/2) |W|^2 for every pair
    pr = params(p=p, delta=delta)
    P = rng.standard_normal((1000, 2, 2)) * 10.0 ** rng.uniform(-2, 2, (1000, 1, 1))
    W = rng.standard_normal((1000, 2, 2))
    quad = (s_omega_prime_apply(P, W, pr) * W).sum(axis=(-2, -1))
    scale = ((P ** 2).sum(axis=(-2, -1)) + delta ** 2) ** ((p - 2.0) / 2.0)
    floor = (p - 1.0) * scale * (W ** 2).sum(axis=(-2, -1))
    assert np.all(quad >= floor * (1.0 - 1e-12))


def test_prime_rejects_zero_delta():
    pr = params(delta=0.0)
    with pytest.raises(ValueError, match="delta > 0"):
        s_omega_prime_apply(np.eye(2), np.eye(2), pr)
    with pytest.raises(ValueError, match="delta > 0"):
        s_gamma_prime_apply(np.ones(2), np.ones(2), pr)


# -- monotonicity -------------------------------------------------------


def test_monotonicity_scaled_pair():
    pr = params(delta=0.0)
    P = np.diag([1.0, 2.0])
    wit = monotonicity_witness(2.0 * P, P, pr)
    assert wit["lhs"] > 0.0
    assert 0.0 < wit["ratio"] <= 1.0


def test_monotonicity_linear_case_is_exact():
    # p = 2: lhs = |P - Q|^2 and bound = |P - Q|^2, ratio exactly 1
    pr = params(p=2.0, delta=0.0)
    P = rng.standard_normal((8, 2, 2))
    Q = rng.standard_normal((8, 2, 2))
    wit = monotonicity_witness(P, Q, pr)
    assert np.allclose(wit["lhs"], ((P - Q) ** 2).sum(axis=(-2, -1)), atol=1e-14)
    assert np.allclose(wit["ratio"], 1.0, atol=1e-13)


def test_monotonicity_bound_holds_in_bulk():
    pr = params(p=1.3, delta=0.05)
    P = rng.standard_normal((500, 2, 2)) * 10.0 ** rng.uniform(-2, 2, (500, 1, 1))
    Q = rng.standard_normal((500, 2, 2)) * 10.0 ** rng.uniform(-2, 2, (500, 1, 1))
    wit = monotonicity_witness(P, Q, pr)
    ok = np.isfinite(wit["ratio"])
    assert np.all(wit["lhs"][ok] >= 0.0)
    # strict positivity away from P = Q, with a uniform scaled floor
    assert wit["ratio"][ok].min() > 0.01


def test_monotonicity_degenerate_pair_flagged():
    pr = params()
    wit = monotonicity_witness(np.eye(2), np.eye(2), pr)
    assert np.isnan(wit["ratio"])
    assert wit["lhs"] == 0.0


# -- parameter validation ----------------------------------------------


@pytest.mark.parametrize("kw,msg", [
    (dict(p=1.0), "exponent p"),
    (dict(p=2.5), "exponent p"),
    (dict(p=1.5, s=1.8), "exponent s"),
    (dict(s=1.0), "exponent s"),
    (dict(delta=-0.1), "delta"),
    (dict(mu0=0.0), "mu0"),
    (dict(body_force=(1.0, 2.0, 3.0)), "2-vector"),
    (dict(reg_rheology=-1e-8), "regularization"),
    (dict(rheology_min=0.0), "rheology_min"),
    (dict(rheology_min=2.0, rheology_max=1.0), "rheology_min"),
    (dict(friction_max=0.0), "friction_max"),
    (dict(delta=np.nan), "delta must be finite"),
    (dict(delta=np.inf), "delta must be finite"),
    (dict(mu0=np.nan), "mu0 must be finite"),
    (dict(mu0=np.inf), "mu0 must be finite"),
    (dict(body_force=(np.nan, -1.0)), "body_force must be finite"),
    (dict(body_force=(-np.inf, -1.0)), "body_force must be finite"),
    (dict(body_force=(0.5, np.inf)), "body_force must be finite"),
    (dict(reg_rheology=np.nan), "reg_rheology must be finite"),
    (dict(reg_rheology=np.inf), "reg_rheology must be finite"),
    (dict(reg_friction=np.nan), "reg_friction must be finite"),
    (dict(reg_friction=np.inf), "reg_friction must be finite"),
    (dict(rheology_max=np.inf), "rheology_max must be finite"),
    (dict(friction_max=np.nan), "friction_max must be finite"),
    (dict(friction_max=np.inf), "friction_max must be finite"),
])
def test_parameter_validation(kw, msg):
    with pytest.raises(ValueError, match=msg):
        PhysicsParams(**kw)


def test_s_defaults_to_p():
    pr = PhysicsParams(p=1.7)
    assert pr.s == 1.7
    assert PhysicsParams(p=1.7, s=1.2).s == 1.2


def test_body_force_coerced_to_floats():
    pr = PhysicsParams(body_force=(1, -2))
    assert pr.body_force == (1.0, -2.0)
    assert all(isinstance(c, float) for c in pr.body_force)
