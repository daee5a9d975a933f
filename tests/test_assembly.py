"""Weak-form assembly: residual consistency, Jacobian correctness
against difference quotients and a naive element-loop oracle, coefficient
derivative linearity and the auxiliary matrices."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

import pglacier as pg
from conftest import coeff_derivative, coeff_gradient_duals
from conftest import derivative_kernel_operator as assemble_adjoint_operator
from conftest import full_operator, physical_gradients
from conftest import quadrature_norm as norm
from pglacier.assembly import (_reduced_coupling, assemble_jacobian,
                               assemble_residual, basal_p1_mass,
                               basal_p1_stiffness, basal_trace_mass,
                               omega_p1_mass,
                               omega_p1_stiffness,
                               solver_sign, velocity_mass,
                               velocity_v2_stiffness)
from pglacier.spaces import (field_from_callable, point_velocity_gradients,
                             velocity_trace)
from pglacier.tensor_ops import PhysicsParams, s_gamma, s_omega

rng = np.random.default_rng(11)


def small_spaces():
    return pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 2, 2))


def random_state(spaces, scale=0.1):
    """Constraint-satisfying random velocity plus random pressure."""
    full = rng.standard_normal(spaces.n_sys) * scale
    full = spaces.expand_vector(spaces.reduce_vector(full))
    vel = pg.Field(spaces.velocity, full[:spaces.n_u])
    pres = pg.Field(spaces.pressure, full[spaces.n_u:])
    return vel, pres


def random_coeffs(spaces):
    B = pg.Field(spaces.coeff_omega,
                 1.0 + 0.5 * rng.random(spaces.coeff_omega.dof_count))
    tau = pg.Field(spaces.coeff_basal,
                   0.3 + 0.4 * rng.random(spaces.coeff_basal.dof_count))
    return B, tau


@pytest.mark.parametrize("p,delta", [(4.0 / 3.0, 0.1), (1.2, 1e-3), (1.6, 0.0)])
def test_matrix_kernel_on_the_component_axis_matches_the_moveaxis_path(
        monkeypatch, p, delta):
    # assembly takes the kernels from one pass over the (q, 4, t) strain
    # and one over the bed trace; residuals and coefficient Jacobians
    # keep the bits of the components-last public kernels
    spaces = pg.build_spaces(pg.generate_slab_mesh(
        2.0, 1.0, 8, 4, bed_profile=lambda x: 0.05 * np.sin(np.pi * x)))
    vel, pres = random_state(spaces)
    B, tau = random_coeffs(spaces)
    params = PhysicsParams(p=p, delta=delta, body_force=(0.5, -1.0))
    residual = pg.assembly._residual_raw(vel, pres, B, tau, params)
    G = pg.assembly.assemble_coeff_jacobian(vel, params)

    def public_passes(velocity, params):
        # in place of each pass, its kernel and the input it runs on
        grad = point_velocity_gradients(velocity)
        strain = np.moveaxis(0.5 * (grad + np.swapaxes(grad, 1, 2)), 3, 1)
        trace = velocity_trace(velocity, spaces.basal_edge_indices)
        return grad, (s_omega, strain), (s_gamma, trace)

    def public_step(magnitude, exponent, out=None, axis=-1):
        kernel, x = magnitude
        value = kernel(x, PhysicsParams(p=exponent, delta=delta))
        return np.moveaxis(value, 1, 3) if kernel is s_omega else value

    monkeypatch.setattr(pg.assembly, "_kernel_passes", public_passes)
    monkeypatch.setattr(pg.assembly, "_power_step", public_step)
    assert np.array_equal(pg.assembly._residual_raw(vel, pres, B, tau, params),
                          residual)
    want = pg.assembly.assemble_coeff_jacobian(vel, params)
    assert np.array_equal(want.indptr, G.indptr)
    assert np.array_equal(want.indices, G.indices)
    assert np.array_equal(want.data, G.data)


def test_residual_vanishes_at_rest_without_load():
    spaces = small_spaces()
    B, tau = random_coeffs(spaces)
    zero_v = pg.constant_field(spaces.velocity, 0.0)
    zero_p = pg.constant_field(spaces.pressure, 0.0)
    params = PhysicsParams(body_force=(0.0, 0.0))
    res = assemble_residual(zero_v, zero_p, B, tau, params)
    assert np.array_equal(res, np.zeros(spaces.n_sys))


def test_load_pairing_against_exact_integral():
    # pair the rest-state residual with w = (x(2-x), 0): quadratic, zero
    # on the sides, tangential on the flat bed, so I_h w = w and the
    # load pairing is -integral of f . w = -f_x * 4/3 on [0,2]x[0,1]
    spaces = small_spaces()
    B, tau = random_coeffs(spaces)
    zero_v = pg.constant_field(spaces.velocity, 0.0)
    zero_p = pg.constant_field(spaces.pressure, 0.0)
    params = PhysicsParams(body_force=(0.7, -0.3))
    res = assemble_residual(zero_v, zero_p, B, tau, params)
    w = field_from_callable(spaces.velocity, lambda x, y: (x * (2.0 - x), 0.0))
    pairing = res[:spaces.n_u] @ w.values
    assert abs(pairing + 0.7 * 4.0 / 3.0) <= 1e-13


def test_continuity_rows_integrate_divergence():
    # v = (x, 0) has div 1; pressure-row pairing with q = 1 is the area
    spaces = small_spaces()
    B, tau = random_coeffs(spaces)
    v = field_from_callable(spaces.velocity, lambda x, y: (x, 0.0))
    zero_p = pg.constant_field(spaces.pressure, 0.0)
    res = assemble_residual(v, zero_p, B, tau, PhysicsParams())
    assert abs(res[spaces.n_u:].sum() - 2.0) <= 1e-13


def test_residual_rejects_mismatched_mesh():
    spaces = small_spaces()
    other = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    v = pg.constant_field(spaces.velocity, 0.0)
    p = pg.constant_field(spaces.pressure, 0.0)
    B_other = pg.constant_field(other.coeff_omega, 1.0)
    tau = pg.constant_field(spaces.coeff_basal, 0.5)
    with pytest.raises(ValueError, match="same mesh"):
        assemble_residual(v, p, B_other, tau, PhysicsParams())


def naive_linear_saddle(spaces, B, tau, mu0):
    """Plain-loop assembly of the p = s = 2 operator, used as an oracle
    for the vectorized Jacobian."""
    q = spaces.quadrature
    n_u = spaces.n_u
    K = np.zeros((n_u, n_u))
    tris = spaces.mesh.triangles
    grads = physical_gradients(spaces)
    for t in range(spaces.mesh.num_triangles):
        for iq in range(q.tri_points.shape[0]):
            w = q.tri_weights[iq] * spaces.det[t]
            G = grads[t, iq]
            Bq = sum(B.values[tris[t, k]] * spaces.p1_vals[iq][k]
                     for k in range(3))
            for a in range(6):
                for c in range(2):
                    A = spaces.tri_vel_dofs[t, 2 * a + c]
                    for b in range(6):
                        for d in range(2):
                            Bd = spaces.tri_vel_dofs[t, 2 * b + d]
                            sym = 0.5 * ((c == d) * (G[a] @ G[b])
                                         + G[b][c] * G[a][d])
                            K[A, Bd] += w * (Bq * sym
                                             + mu0 * (c == d) * (G[a] @ G[b]))
    s_pts = q.edge_points
    for k, e in enumerate(spaces.basal_edge_indices):
        nodes = spaces.bedge_nodes[e]
        dofs = spaces.basal_edge_dofs[k]
        for im in range(s_pts.size):
            lw = q.edge_weights[im] * spaces.bedge_lengths[e]
            tv = spaces.edge_trace_vals[im]
            tq = (1.0 - s_pts[im]) * tau.values[dofs[0]] \
                + s_pts[im] * tau.values[dofs[1]]
            for a in range(3):
                for b in range(3):
                    for c in range(2):
                        K[2 * nodes[a] + c, 2 * nodes[b] + c] += \
                            lw * tq * tv[a] * tv[b]
    C = np.zeros((n_u, spaces.mesh.num_vertices))
    for t in range(spaces.mesh.num_triangles):
        for iq in range(q.tri_points.shape[0]):
            w = q.tri_weights[iq] * spaces.det[t]
            G = grads[t, iq]
            for a in range(6):
                for c in range(2):
                    for k in range(3):
                        C[spaces.tri_vel_dofs[t, 2 * a + c], tris[t, k]] -= \
                            w * G[a][c] * spaces.p1_vals[iq][k]
    top = np.hstack([K, C])
    bottom = np.hstack([C.T, np.zeros((C.shape[1], C.shape[1]))])
    return np.vstack([top, bottom])


def test_linear_jacobian_matches_naive_assembly():
    spaces = small_spaces()
    B, tau = random_coeffs(spaces)
    v, _ = random_state(spaces)
    params = PhysicsParams(p=2.0, delta=0.5, mu0=0.05)
    J = full_operator(assemble_jacobian(v, B, tau, params)).toarray()
    naive = naive_linear_saddle(spaces, B, tau, params.mu0)
    assert np.max(np.abs(J - naive)) <= 1e-12 * np.max(np.abs(naive))


def test_linear_jacobian_is_state_independent():
    spaces = small_spaces()
    B, tau = random_coeffs(spaces)
    v1, _ = random_state(spaces)
    v2, _ = random_state(spaces, scale=3.0)
    params = PhysicsParams(p=2.0, delta=0.5)
    J1 = full_operator(assemble_jacobian(v1, B, tau, params))
    J2 = full_operator(assemble_jacobian(v2, B, tau, params))
    assert abs(J1 - J2).max() <= 1e-13 * abs(J1).max()


def test_jacobian_is_symmetric(slab_spaces, tilted_params):
    B = pg.constant_field(slab_spaces.coeff_omega, 1.0)
    tau = pg.constant_field(slab_spaces.coeff_basal, 0.5)
    v, _ = random_state(slab_spaces)
    J = full_operator(assemble_jacobian(v, B, tau, tilted_params))
    assert abs(J - J.T).max() <= 1e-12 * abs(J).max()


def test_jacobian_matches_difference_quotient(slab_spaces, tilted_params):
    spaces = slab_spaces
    B = pg.constant_field(spaces.coeff_omega, 1.0)
    tau = pg.constant_field(spaces.coeff_basal, 0.5)
    v, pres = random_state(spaces)
    sign = solver_sign(spaces)
    J = full_operator(assemble_jacobian(v, B, tau, tilted_params))
    z = rng.standard_normal(spaces.n_sys)
    z = spaces.expand_vector(spaces.reduce_vector(z))
    Jz = spaces.project_dual(sign * (J @ z))
    r0 = assemble_residual(v, pres, B, tau, tilted_params)
    errs, hs = [], np.logspace(-3, -6, 4)
    for h in hs:
        vh = pg.Field(spaces.velocity, v.values + h * z[:spaces.n_u])
        ph = pg.Field(spaces.pressure, pres.values + h * z[spaces.n_u:])
        fd = (assemble_residual(vh, ph, B, tau, tilted_params) - r0) / h
        errs.append(np.linalg.norm(fd - Jz) / np.linalg.norm(Jz))
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 0.95


@pytest.mark.filterwarnings("error")
def test_jacobian_matches_central_differences_at_huge_velocities():
    # |E|^2 and |v|^2 overflow at velocity scale 1e160, but the kernels'
    # scaled factors do not; with mu0 = 1e-300 the velocity block is the
    # power law's alone.  Pressure stays 0, so only the velocity rows move.
    spaces = pg.build_spaces(pg.generate_slab_mesh(
        2.0, 1.0, 4, 2, bed_profile=lambda x: 0.05 * np.sin(np.pi * x)))
    B, tau = random_coeffs(spaces)
    params = PhysicsParams(mu0=1e-300, body_force=(0.5, -1.0))
    (v, _), (z, _) = random_state(spaces, 1e160), random_state(spaces, 1e160)
    rest = pg.constant_field(spaces.pressure, 0.0)
    n, h = spaces.n_u, 1e-6

    def residual(values):
        return pg.assembly._residual_raw(pg.Field(spaces.velocity, values),
                                         rest, B, tau, params)[:n]

    fd = (residual(v.values + h * z.values) - residual(v.values - h * z.values)) / (2 * h)
    Jz = full_operator(assemble_jacobian(v, B, tau, params))[:n, :n] @ z.values
    assert np.linalg.norm(Jz - fd) <= 1e-6 * np.linalg.norm(fd)


def test_jacobian_rejects_zero_delta(slab_spaces):
    B = pg.constant_field(slab_spaces.coeff_omega, 1.0)
    tau = pg.constant_field(slab_spaces.coeff_basal, 0.5)
    v = pg.constant_field(slab_spaces.velocity, 0.0)
    with pytest.raises(ValueError, match="delta > 0"):
        assemble_jacobian(v, B, tau, PhysicsParams(delta=0.0))


def test_adjoint_operator_equals_jacobian(slab_spaces, tilted_params):
    B, tau = random_coeffs(slab_spaces)
    v, _ = random_state(slab_spaces, scale=0.5)
    J = full_operator(assemble_jacobian(v, B, tau, tilted_params))
    A = full_operator(assemble_adjoint_operator(v, B, tau, tilted_params))
    assert abs(J - A).max() <= 1e-12 * abs(J).max()


def test_coeff_derivative_zero_directions(slab_spaces, tilted_params):
    v, _ = random_state(slab_spaces)
    zB = pg.constant_field(slab_spaces.coeff_omega, 0.0)
    zt = pg.constant_field(slab_spaces.coeff_basal, 0.0)
    d = coeff_derivative(v, zB, zt, tilted_params)
    assert np.array_equal(d, np.zeros(slab_spaces.n_sys))


def test_coeff_derivative_is_linear(slab_spaces, tilted_params):
    spaces = slab_spaces
    v, _ = random_state(spaces)
    B1 = pg.Field(spaces.coeff_omega, rng.standard_normal(spaces.coeff_omega.dof_count))
    B2 = pg.Field(spaces.coeff_omega, rng.standard_normal(spaces.coeff_omega.dof_count))
    t1 = pg.Field(spaces.coeff_basal, rng.standard_normal(spaces.coeff_basal.dof_count))
    t2 = pg.Field(spaces.coeff_basal, rng.standard_normal(spaces.coeff_basal.dof_count))
    combo = coeff_derivative(
        v, pg.Field(spaces.coeff_omega, B1.values + 2.0 * B2.values),
        pg.Field(spaces.coeff_basal, t1.values + 2.0 * t2.values), tilted_params)
    parts = coeff_derivative(v, B1, t1, tilted_params) \
        + 2.0 * coeff_derivative(v, B2, t2, tilted_params)
    assert np.allclose(combo, parts, atol=1e-13 * np.max(np.abs(parts)))


def test_residual_is_affine_in_coefficients(slab_spaces, tilted_params):
    # the operator is linear in (B, tau), so the coefficient derivative
    # reproduces finite coefficient steps exactly
    spaces = slab_spaces
    v, pres = random_state(spaces)
    B, tau = random_coeffs(spaces)
    dB = pg.Field(spaces.coeff_omega, rng.standard_normal(spaces.coeff_omega.dof_count))
    dt = pg.Field(spaces.coeff_basal, rng.standard_normal(spaces.coeff_basal.dof_count))
    r0 = assemble_residual(v, pres, B, tau, tilted_params)
    r1 = assemble_residual(v, pres,
                           pg.Field(spaces.coeff_omega, B.values + dB.values),
                           pg.Field(spaces.coeff_basal, tau.values + dt.values),
                           tilted_params)
    d = coeff_derivative(v, dB, dt, tilted_params)
    assert np.max(np.abs(r1 - r0 - d)) <= 1e-12 * max(np.max(np.abs(r0)), 1.0)


def test_gradient_duals_pair_like_coeff_derivative(slab_spaces, tilted_params):
    # <g_B, Btilde> + <g_tau, tautilde> must equal the coefficient
    # derivative paired with the adjoint velocity
    spaces = slab_spaces
    v, _ = random_state(spaces, scale=0.5)
    lam, _ = random_state(spaces, scale=0.5)
    dB = pg.Field(spaces.coeff_omega, rng.standard_normal(spaces.coeff_omega.dof_count))
    dt = pg.Field(spaces.coeff_basal, rng.standard_normal(spaces.coeff_basal.dof_count))
    g_rheo, g_fric = coeff_gradient_duals(v, lam, tilted_params)
    left = g_rheo @ dB.values + g_fric @ dt.values
    d = coeff_derivative(v, dB, dt, tilted_params)
    right = d[:spaces.n_u] @ lam.values
    assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)


def test_operator_action_pairs_with_energy(slab_spaces, tilted_params):
    # <A(v), v> >= mu0 |v|_V2^2 for any admissible state; the operator
    # action is the velocity residual with zero pressure and no load
    spaces = slab_spaces
    B, tau = random_coeffs(spaces)
    v, _ = random_state(spaces, scale=0.5)
    no_load = dataclasses.replace(tilted_params, body_force=(0.0, 0.0))
    act = assemble_residual(v, pg.zero_field(spaces.pressure), B, tau, no_load)
    pairing = act[:spaces.n_u] @ v.values
    floor = tilted_params.mu0 * norm(v, "V2_seminorm") ** 2
    assert pairing >= floor * (1.0 - 1e-12)


def test_solver_sign_layout(slab_spaces):
    sign = solver_sign(slab_spaces)
    assert np.all(sign[:slab_spaces.n_u] == 1.0)
    assert np.all(sign[slab_spaces.n_u:] == -1.0)


# -- auxiliary matrices -------------------------------------------------


def test_omega_stiffness_annihilates_constants(slab_spaces):
    K = omega_p1_stiffness(slab_spaces)
    assert np.max(np.abs(K @ np.ones(K.shape[0]))) <= 1e-13


def test_omega_mass_total_is_area(slab_spaces):
    M = omega_p1_mass(slab_spaces)
    assert abs(M.sum() - 2.0) <= 1e-13


def test_basal_matrices_totals(slab_spaces):
    K = basal_p1_stiffness(slab_spaces)
    M = basal_p1_mass(slab_spaces)
    assert np.max(np.abs(K @ np.ones(K.shape[0]))) <= 1e-13
    assert abs(M.sum() - 2.0) <= 1e-13  # flat bed length


def test_velocity_mass_total(slab_spaces):
    M = velocity_mass(slab_spaces)
    # both components of the constant field integrate the area
    assert abs(M.sum() - 2.0 * 2.0) <= 1e-12


def test_v2_stiffness_matches_norm(slab_spaces):
    A = velocity_v2_stiffness(slab_spaces)
    v = pg.Field(slab_spaces.velocity,
                 rng.standard_normal(slab_spaces.velocity.dof_count))
    quad = v.values @ (A @ v.values)
    assert abs(quad - norm(v, "V2_seminorm") ** 2) <= 1e-12 * max(quad, 1.0)


def test_basal_trace_mass_matches_quadrature(slab_spaces):
    M = basal_trace_mass(slab_spaces)
    v = pg.Field(slab_spaces.velocity,
                 rng.standard_normal(slab_spaces.velocity.dof_count))
    quad = v.values @ (M @ v.values)
    bed = slab_spaces.basal_edge_indices
    tr = velocity_trace(v, bed)
    lengths = slab_spaces.bedge_lengths[bed]
    w = slab_spaces.quadrature.edge_weights
    direct = np.einsum("m,k,km->", w, lengths, (tr ** 2).sum(axis=2))
    assert abs(quad - direct) <= 1e-12 * max(quad, 1.0)


@pytest.mark.parametrize("build", [velocity_mass, velocity_v2_stiffness,
                                   basal_trace_mass],
                         ids=["mass", "v2_stiffness", "trace_mass"])
def test_velocity_gram_matrices_store_no_component_coupling(build):
    # one node matrix on both components: no stored entry, not even an
    # explicit zero, between the x and y dofs, and the two component
    # blocks bit for bit alike
    spaces = pg.build_spaces(pg.generate_slab_mesh(
        2.0, 1.0, 16, 8, bed_profile=lambda x: 0.05 * np.sin(np.pi * x)))
    A = build(spaces)
    assert A.shape == (spaces.n_u, spaces.n_u)
    assert A[0::2, 1::2].nnz == A[1::2, 0::2].nnz == 0
    x, y = A[0::2, 0::2], A[1::2, 1::2]
    assert x.nnz == y.nnz > 0
    assert np.array_equal(x.indptr, y.indptr)
    assert np.array_equal(x.indices, y.indices)
    assert x.data.tobytes() == y.data.tobytes()


def test_matrix_caching_returns_same_object(slab_spaces):
    assert omega_p1_mass(slab_spaces) is omega_p1_mass(slab_spaces)
    assert _reduced_coupling(slab_spaces) is _reduced_coupling(slab_spaces)


def test_reduced_matrix_has_unit_constrained_rows(slab_spaces, tilted_params):
    B, tau = random_coeffs(slab_spaces)
    v, _ = random_state(slab_spaces)
    system = assemble_jacobian(v, B, tau, tilted_params)
    R = system.reduced().toarray()
    for k in np.flatnonzero(slab_spaces.reduced_frame().constrained):
        row = np.zeros(R.shape[0])
        row[k] = 1.0
        assert np.array_equal(R[k], row)
        assert np.array_equal(R[:, k], row)
