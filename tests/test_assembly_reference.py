"""Fused assembly against a per-quadrature-point reference.

The reference below loops over quadrature points, contracts each with
``einsum`` over all triangles (or bed edges) and sums element blocks by
COO conversion, as the kernels did before they were fused.  It pins the
fused residual, Jacobian, eliminated Jacobian and gradient duals to that
math on a bedded slab with a random constraint-satisfying state, and
the coefficient Jacobian G, held per inversion iterate, to the element
path of the operator derivative and the gradient duals it replaced.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import pglacier as pg
from conftest import (coeff_gradient_duals, derivative_kernel_operator,
                      full_operator, jittered_file_mesh, physical_gradients)
from pglacier.mesh import BoundaryTag
from pglacier.assembly import (_reduced_coupling, _residual_raw,
                               assemble_coeff_jacobian, assemble_jacobian)
from pglacier.spaces import (basal_coeff_on_edges, point_scalar_values,
                             point_velocity_gradients, velocity_trace)
from pglacier.tensor_ops import s_gamma, s_omega

RTOL = 1e-12


def bedded_slab():
    bed = lambda x: 0.07 * np.sin(np.pi * x + 0.5)
    return pg.generate_slab_mesh(2.0, 1.0, 6, 3, bed_profile=bed)


def clamped_slab():
    """The bedded slab with its bed clamped: no bed edges, no slip."""
    mesh = bedded_slab()
    tags = mesh.boundary_tags.copy()
    tags[tags == int(BoundaryTag.BASAL)] = int(BoundaryTag.DIRICHLET)
    return pg.Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges, tags,
                   mesh.observed)


@pytest.fixture(scope="module", params=[bedded_slab, clamped_slab])
def case(request):
    rng = np.random.default_rng(2024)
    spaces = pg.build_spaces(request.param())
    full = spaces.expand_vector(spaces.reduce_vector(
        0.4 * rng.standard_normal(spaces.n_sys)))
    velocity = pg.Field(spaces.velocity, full[:spaces.n_u])
    pressure = pg.Field(spaces.pressure, full[spaces.n_u:])
    adjoint = pg.Field(spaces.velocity, spaces.project_dual(np.concatenate(
        [rng.standard_normal(spaces.n_u),
         np.zeros(spaces.n_sys - spaces.n_u)]))[:spaces.n_u])
    rheology = pg.Field(spaces.coeff_omega,
                        1.0 + 0.5 * rng.random(spaces.coeff_omega.dof_count))
    friction = pg.Field(spaces.coeff_basal,
                        0.3 + 0.4 * rng.random(spaces.coeff_basal.dof_count))
    params = pg.PhysicsParams(body_force=(0.5, -1.0))
    return spaces, velocity, pressure, adjoint, rheology, friction, params


def bed_dofs(spaces):
    nodes = spaces.bedge_nodes[spaces.basal_edge_indices]
    return (2 * nodes[:, :, None] + np.arange(2)).reshape(-1, 6)


def reference_residual(spaces, velocity, pressure, rheology, friction, params):
    q = spaces.quadrature
    nt = spaces.mesh.num_triangles
    grads = physical_gradients(spaces)
    grad = point_velocity_gradients(velocity).transpose(3, 0, 1, 2)
    strain = 0.5 * (grad + np.swapaxes(grad, 2, 3))
    S = s_omega(strain, params)
    B_q = point_scalar_values(rheology).T
    pi_q = point_scalar_values(pressure).T
    div_v = grad[:, :, 0, 0] + grad[:, :, 1, 1]
    f = np.asarray(params.body_force)
    r_u = np.zeros((nt, 6, 2))
    r_p = np.zeros((nt, 3))
    for iq in range(q.tri_weights.size):
        detw = q.tri_weights[iq] * spaces.det
        G = grads[:, iq]
        r_u += np.einsum("t,tcj,taj->tac", detw * B_q[:, iq], S[:, iq], G)
        r_u += params.mu0 * np.einsum("t,tcj,taj->tac", detw, grad[:, iq], G)
        r_u -= np.einsum("t,tac->tac", detw * pi_q[:, iq], G)
        r_u -= np.einsum("t,a,c->tac", detw, spaces.p2_vals[iq], f)
        r_p += np.einsum("t,k->tk", detw * div_v[:, iq], spaces.p1_vals[iq])
    out = np.zeros(spaces.n_sys)
    np.add.at(out, spaces.tri_vel_dofs.ravel(), r_u.ravel())
    np.add.at(out, spaces.n_u + spaces.mesh.triangles.ravel(), r_p.ravel())
    bed = spaces.basal_edge_indices
    v_m = velocity_trace(velocity, bed)
    Sg = s_gamma(v_m, params) * basal_coeff_on_edges(friction)[:, :, None]
    r_e = np.zeros((bed.size, 3, 2))
    for im in range(q.edge_weights.size):
        lw = q.edge_weights[im] * spaces.bedge_lengths[bed]
        r_e += np.einsum("k,kc,a->kac", lw, Sg[:, im], spaces.edge_trace_vals[im])
    np.add.at(out, bed_dofs(spaces).ravel(), r_e.ravel())
    return out


def reference_jacobian_blocks(spaces, velocity, rheology, friction, params):
    """COO rows, columns and values of every element-block entry."""
    q = spaces.quadrature
    nt = spaces.mesh.num_triangles
    grads = physical_gradients(spaces)
    grad = point_velocity_gradients(velocity).transpose(3, 0, 1, 2)
    strain = 0.5 * (grad + np.swapaxes(grad, 2, 3))
    mag2 = (strain ** 2).sum(axis=(2, 3)) + params.delta ** 2
    B_q = point_scalar_values(rheology).T
    c1 = (params.p - 2.0) * mag2 ** ((params.p - 4.0) / 2.0)
    c2 = mag2 ** ((params.p - 2.0) / 2.0)
    eye2 = np.eye(2)
    K = np.zeros((nt, 6, 2, 6, 2))
    C = np.zeros((nt, 6, 2, 3))
    for iq in range(q.tri_weights.size):
        detw = q.tri_weights[iq] * spaces.det
        G = grads[:, iq]
        GG = np.einsum("tad,tbd->tab", G, G)
        Qv = np.einsum("tij,taj->tai", strain[:, iq], G)
        w2 = detw * B_q[:, iq] * c2[:, iq]
        K += np.einsum("t,tab,cd->tacbd", detw * params.mu0 + 0.5 * w2, GG, eye2)
        K += np.einsum("t,tad,tbc->tacbd", 0.5 * w2, G, G)
        K += np.einsum("t,tac,tbd->tacbd", detw * B_q[:, iq] * c1[:, iq], Qv, Qv)
        C -= np.einsum("t,tac,k->tack", detw, G, spaces.p1_vals[iq])
    bed = spaces.basal_edge_indices
    v_m = velocity_trace(velocity, bed)
    tau_m = basal_coeff_on_edges(friction)
    vmag2 = (v_m ** 2).sum(axis=2) + params.delta ** 2
    g1 = (params.s - 2.0) * vmag2 ** ((params.s - 4.0) / 2.0)
    g2 = vmag2 ** ((params.s - 2.0) / 2.0)
    E = np.zeros((bed.size, 3, 2, 3, 2))
    for im in range(q.edge_weights.size):
        lw = q.edge_weights[im] * spaces.bedge_lengths[bed] * tau_m[:, im]
        NN = np.outer(spaces.edge_trace_vals[im], spaces.edge_trace_vals[im])
        E += np.einsum("k,ab,kc,kd->kacbd", lw * g1[:, im], NN, v_m[:, im], v_m[:, im])
        E += np.einsum("k,ab,cd->kacbd", lw * g2[:, im], NN, eye2)

    vel = spaces.tri_vel_dofs
    pres = spaces.n_u + spaces.mesh.triangles
    dofs_b = bed_dofs(spaces)
    parts = [(vel[:, :, None], vel[:, None, :], K.reshape(nt, 12, 12)),
             (dofs_b[:, :, None], dofs_b[:, None, :], E.reshape(-1, 6, 6)),
             (vel[:, :, None], pres[:, None, :], C.reshape(nt, 12, 3)),
             (pres[:, None, :], vel[:, :, None], C.reshape(nt, 12, 3))]
    rows, cols, vals = [], [], []
    for r, c, v in parts:
        rows.append(np.broadcast_to(r, v.shape).ravel())
        cols.append(np.broadcast_to(c, v.shape).ravel())
        vals.append(v.ravel())
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def reference_gradient_duals(spaces, velocity, adjoint, params):
    q = spaces.quadrature
    grad = point_velocity_gradients(velocity).transpose(3, 0, 1, 2)
    S = s_omega(0.5 * (grad + np.swapaxes(grad, 2, 3)), params)
    adjoint_grad = point_velocity_gradients(adjoint).transpose(3, 0, 1, 2)
    inner = (S * adjoint_grad).sum(axis=(2, 3))
    g_rheo = np.zeros(spaces.mesh.num_vertices)
    for iq in range(q.tri_weights.size):
        loc = np.einsum("t,k->tk", q.tri_weights[iq] * spaces.det * inner[:, iq],
                        spaces.p1_vals[iq])
        np.add.at(g_rheo, spaces.mesh.triangles.ravel(), loc.ravel())
    bed = spaces.basal_edge_indices
    pair = (s_gamma(velocity_trace(velocity, bed), params)
            * velocity_trace(adjoint, bed)).sum(axis=2)
    s = q.edge_points
    g_fric = np.zeros(spaces.coeff_basal.dof_count)
    for im in range(s.size):
        lw = q.edge_weights[im] * spaces.bedge_lengths[bed]
        loc = np.einsum("k,a->ka", lw * pair[:, im], np.array([1.0 - s[im], s[im]]))
        np.add.at(g_fric, spaces.basal_edge_dofs.ravel(), loc.ravel())
    return g_rheo, g_fric


def reference_coeff_derivative(spaces, velocity, rheology_dir, friction_dir,
                               params):
    """Velocity dual of (Btilde S(Dv), grad phi) + (tautilde S(v), phi) on
    the bed, element by element."""
    q = spaces.quadrature
    grads = physical_gradients(spaces)
    grad = point_velocity_gradients(velocity).transpose(3, 0, 1, 2)
    S = s_omega(0.5 * (grad + np.swapaxes(grad, 2, 3)), params)
    B_q = point_scalar_values(rheology_dir).T
    r_u = np.zeros((spaces.mesh.num_triangles, 6, 2))
    for iq in range(q.tri_weights.size):
        detw = q.tri_weights[iq] * spaces.det
        r_u += np.einsum("t,tcj,taj->tac", detw * B_q[:, iq], S[:, iq],
                         grads[:, iq])
    out = np.zeros(spaces.n_u)
    np.add.at(out, spaces.tri_vel_dofs.ravel(), r_u.ravel())
    bed = spaces.basal_edge_indices
    Sg = s_gamma(velocity_trace(velocity, bed), params) \
        * basal_coeff_on_edges(friction_dir)[:, :, None]
    r_e = np.zeros((bed.size, 3, 2))
    for im in range(q.edge_weights.size):
        lw = q.edge_weights[im] * spaces.bedge_lengths[bed]
        r_e += np.einsum("k,kc,a->kac", lw, Sg[:, im], spaces.edge_trace_vals[im])
    np.add.at(out, bed_dofs(spaces).ravel(), r_e.ravel())
    return out


def reference_coeff_jacobian(spaces, velocity, params):
    """The coefficient Jacobian from per-point element blocks summed by
    COO conversion."""
    q = spaces.quadrature
    nt, nv = spaces.mesh.num_triangles, spaces.mesh.num_vertices
    grads = physical_gradients(spaces)
    grad = point_velocity_gradients(velocity).transpose(3, 0, 1, 2)
    S = s_omega(0.5 * (grad + np.swapaxes(grad, 2, 3)), params)
    volume = np.zeros((nt, 6, 2, 3))
    for iq in range(q.tri_weights.size):
        volume += np.einsum("t,tcj,taj,k->tack", q.tri_weights[iq] * spaces.det,
                            S[:, iq], grads[:, iq], spaces.p1_vals[iq])
    bed = spaces.basal_edge_indices
    Sg = s_gamma(velocity_trace(velocity, bed), params)
    s = q.edge_points
    edge = np.zeros((bed.size, 3, 2, 2))
    for im in range(s.size):
        lw = q.edge_weights[im] * spaces.bedge_lengths[bed]
        edge += np.einsum("k,kc,a,l->kacl", lw, Sg[:, im],
                          spaces.edge_trace_vals[im], np.array([1.0 - s[im], s[im]]))
    vel_rows = np.broadcast_to(spaces.tri_vel_dofs[:, :, None], (nt, 12, 3))
    vel_cols = np.broadcast_to(spaces.mesh.triangles[:, None, :], (nt, 12, 3))
    bed_rows = np.broadcast_to(bed_dofs(spaces)[:, :, None], (bed.size, 6, 2))
    bed_cols = np.broadcast_to(nv + spaces.basal_edge_dofs[:, None, :], (bed.size, 6, 2))
    return sp.coo_matrix(
        (np.concatenate([volume.ravel(), edge.ravel()]),
         (np.concatenate([vel_rows.ravel(), bed_rows.ravel()]),
          np.concatenate([vel_cols.ravel(), bed_cols.ravel()]))),
        shape=(spaces.n_u, nv + spaces.coeff_basal.dof_count)).tocsr()


def relative_gap(a, b):
    assert a.shape == b.shape
    return np.max(np.abs(a - b)) / np.max(np.abs(b)) if b.size else 0.0


def test_residual_matches_reference(case):
    spaces, v, p, _, B, tau, params = case
    ref = reference_residual(spaces, v, p, B, tau, params)
    assert relative_gap(_residual_raw(v, p, B, tau, params), ref) <= RTOL


def test_jacobian_matches_reference(case):
    spaces, v, _, _, B, tau, params = case
    rows, cols, vals = reference_jacobian_blocks(spaces, v, B, tau, params)
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(spaces.n_sys,) * 2).toarray()
    J = full_operator(assemble_jacobian(v, B, tau, params))
    assert relative_gap(J.toarray(), ref) <= RTOL
    # every element-block position is stored, nothing else
    struct = sp.coo_matrix((np.ones(rows.size), (rows, cols)),
                           shape=(spaces.n_sys,) * 2).tocsr()
    assert np.array_equal(J.indptr, struct.indptr)
    assert np.array_equal(J.indices, struct.indices)


def test_reduced_jacobian_matches_rotated_elimination(case):
    spaces, v, _, _, B, tau, params = case
    rows, cols, vals = reference_jacobian_blocks(spaces, v, B, tau, params)
    n = spaces.n_sys
    M = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).toarray()
    frame = spaces.reduced_frame()
    R, cons = frame.rotation.toarray(), frame.constrained
    ref = R.T @ M @ R
    ref[cons, :] = 0.0
    ref[:, cons] = 0.0
    ref[cons, cons] = 1.0
    reduced = assemble_jacobian(v, B, tau, params).reduced()
    assert relative_gap(reduced.toarray(), ref) <= RTOL
    # The pattern is the structural one of R^T M R restricted to free
    # rows and columns, plus the unit diagonal: products of all-positive
    # pattern matrices, so no entry is lost to cancellation.
    ones = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    R_ones = frame.rotation.copy()
    R_ones.data[:] = 1.0
    keep = sp.diags((~cons).astype(float))
    struct = (keep @ R_ones.T @ ones @ R_ones @ keep
              + sp.diags(cons.astype(float))).tocsr()
    struct.sort_indices()
    assert np.array_equal(reduced.indptr, struct.indptr)
    assert np.array_equal(reduced.indices, struct.indices)


def test_gradient_duals_match_reference(case):
    spaces, v, _, lam, _, _, params = case
    g_rheo, g_fric = coeff_gradient_duals(v, lam, params)
    ref_rheo, ref_fric = reference_gradient_duals(spaces, v, lam, params)
    assert relative_gap(g_rheo, ref_rheo) <= RTOL
    assert relative_gap(g_fric, ref_fric) <= RTOL


def test_pattern_is_shared_per_mesh(case):
    spaces, v, _, _, B, tau, params = case
    a = assemble_jacobian(v, B, tau, params)
    b = assemble_jacobian(pg.zero_field(spaces.velocity), B, tau, params)
    assert spaces.reduced_frame() is spaces.reduced_frame()
    assert np.array_equal(full_operator(a).indices, full_operator(b).indices)
    assert np.array_equal(a.reduced().indices, b.reduced().indices)
    # blocks that are not this mesh's have no slots in its frame
    with pytest.raises(ValueError, match="slot map"):
        spaces.eliminate(a.blocks[..., 1:], a.bed_blocks, _reduced_coupling(spaces))


def random_direction(spaces, seed):
    rng = np.random.default_rng(seed)
    return (pg.Field(spaces.coeff_omega,
                     rng.standard_normal(spaces.coeff_omega.dof_count)),
            pg.Field(spaces.coeff_basal,
                     rng.standard_normal(spaces.coeff_basal.dof_count)))


@pytest.mark.parametrize("seed", [0, 1])
def test_coeff_jacobian_products_match_element_reference(case, seed):
    spaces, v, _, _, _, _, params = case
    d_b, d_t = random_direction(spaces, seed)
    ref = reference_coeff_derivative(spaces, v, d_b, d_t, params)
    G = assemble_coeff_jacobian(v, params)
    assert G.shape == (spaces.n_u, spaces.mesh.num_vertices
                       + spaces.coeff_basal.dof_count)
    d = np.concatenate([d_b.values, d_t.values])
    assert relative_gap(G @ d, ref) <= RTOL
    padded = np.concatenate([ref, np.zeros(spaces.n_sys - spaces.n_u)])
    # in the reduced frame the inversion holds
    assert relative_gap(spaces.velocity_reduction() @ G @ d,
                        spaces.reduce_vector(padded)) <= RTOL


def test_coeff_jacobian_transpose_matches_gradient_reference(case):
    spaces, v, _, lam, _, _, params = case
    g = assemble_coeff_jacobian(v, params).T @ lam.values
    ref_rheo, ref_fric = reference_gradient_duals(spaces, v, lam, params)
    nv = spaces.mesh.num_vertices
    assert relative_gap(g[:nv], ref_rheo) <= RTOL
    assert relative_gap(g[nv:], ref_fric) <= RTOL


def test_coeff_jacobian_entries_match_element_reference(case):
    spaces, v, _, _, _, _, params = case
    G = assemble_coeff_jacobian(v, params)
    ref = reference_coeff_jacobian(spaces, v, params)
    assert np.array_equal(G.indptr, ref.indptr)
    assert np.array_equal(G.indices, ref.indices)
    assert relative_gap(G.data, ref.data) <= 1e-14
    # the pattern is built once per mesh and shared by every G
    again = assemble_coeff_jacobian(pg.zero_field(spaces.velocity), params)
    assert np.shares_memory(again.indices, G.indices)


def unit_slab():
    """The 1x1 slab on [0, 2] x [0, 1]: two triangles, one bed edge whose
    ends sit on the dirichlet walls."""
    B, D, A = (int(BoundaryTag.BASAL), int(BoundaryTag.DIRICHLET),
               int(BoundaryTag.ATMOSPHERE))
    return pg.Mesh(np.array([(0, 0), (2, 0), (2, 1), (0, 1)], dtype=float),
                   np.array([(0, 1, 2), (0, 2, 3)]),
                   np.array([(0, 1), (3, 2), (0, 3), (1, 2)]),
                   np.array([B, A, D, D]), np.array([False, True, False, False]))


@pytest.fixture(scope="module", params=["jittered", "unit"])
def odd_state(request, tmp_path_factory):
    """A random constraint-satisfying state on the jittered file mesh or
    the two-triangle slab."""
    if request.param == "jittered":
        mesh = jittered_file_mesh(tmp_path_factory.mktemp("mesh"))
    else:
        mesh = unit_slab()
    spaces = pg.build_spaces(mesh)
    rng = np.random.default_rng(7)
    full = spaces.expand_vector(spaces.reduce_vector(
        0.4 * rng.standard_normal(spaces.n_sys)))
    return (spaces, pg.Field(spaces.velocity, full[:spaces.n_u]),
            pg.Field(spaces.pressure, full[spaces.n_u:]),
            pg.Field(spaces.coeff_omega,
                     1.0 + 0.5 * rng.random(spaces.coeff_omega.dof_count)),
            pg.Field(spaces.coeff_basal,
                     0.3 + 0.4 * rng.random(spaces.coeff_basal.dof_count)))


@pytest.mark.parametrize("p", [1.2, 2.0])
@pytest.mark.parametrize("delta", [1e-4, 0.1])
def test_contraction_matches_oracle_and_reference(odd_state, p, delta):
    spaces, v, pressure, B, tau = odd_state
    params = pg.PhysicsParams(p=p, delta=delta, body_force=(0.5, -1.0))
    J = full_operator(assemble_jacobian(v, B, tau, params))
    oracle = full_operator(derivative_kernel_operator(v, B, tau, params))
    assert relative_gap(J.data, oracle.data) <= 1e-13
    ref = reference_residual(spaces, v, pressure, B, tau, params)
    assert relative_gap(_residual_raw(v, pressure, B, tau, params), ref) <= 1e-13


def test_slot_maps_follow_the_rotation_and_constraints(odd_state):
    """Every element entry at plain dofs (p, q) goes to the CSC position
    of the free reduced (row, column) that p and q feed, with weight
    R[p, i] R[q, j], or to the dump slot nnz in a fixed node's row or
    column; the reduced dofs are read off the frame's ``rotation`` and
    ``constrained`` alone."""
    spaces = odd_state[0]
    frame = spaces.reduced_frame()
    n, n_u, nnz = spaces.n_sys, spaces.n_u, frame.indices.size
    R = frame.rotation.tocsr()
    free = ~frame.constrained
    plain = np.repeat(np.arange(n), np.diff(R.indptr))
    feeds_free = free[R.indices]
    assert np.bincount(plain[feeds_free], minlength=n).max() <= 1
    feed = np.full(n, -1)
    feed[plain[feeds_free]] = R.indices[feeds_free]
    weight = np.zeros(n)
    weight[plain[feeds_free]] = R.data[feeds_free]
    keys = np.repeat(np.arange(n), np.diff(frame.indptr)) * n + frame.indices

    def expected(rows, cols):
        rows, cols = (a.ravel() for a in np.broadcast_arrays(rows, cols))
        fed = (feed[rows] >= 0) & (feed[cols] >= 0)
        key = feed[cols[fed]] * n + feed[rows[fed]]
        slot = np.full(rows.size, nnz)
        slot[fed] = np.searchsorted(keys, key)
        assert np.array_equal(keys[slot[fed]], key)
        return slot, fed, weight[rows] * weight[cols]

    def check(slot_map, rows, cols, extra_rows=None, extra_cols=None):
        slots, scaled, targets, index, weights = slot_map
        assert slots.dtype == np.int32 and targets.dtype == np.int32
        slot, fed, w = expected(rows, cols)
        # an entry of weight other than 1 is summed through the targets
        got, got_w = slots.astype(np.int64), np.ones(slots.size)
        got[scaled] = targets[index[:scaled.size]]
        got_w[scaled] = weights[:scaled.size]
        assert np.array_equal(got, slot)
        assert np.all(slot[~fed] == nnz) and np.all(slot[fed] < nnz)
        assert np.array_equal(got_w[fed], w[fed])
        if extra_rows is not None:
            slot, fed, w = expected(extra_rows, extra_cols)
            assert np.array_equal(targets[index[scaled.size:]], slot)
            assert np.array_equal(weights[scaled.size:][fed], w[fed])

    # velocity blocks (a, b, c, d, t) and bed blocks (k, a, c, b, d)
    vel = spaces.tri_vel_dofs.T.reshape(6, 2, -1)
    bed = spaces.trace_dofs(spaces.basal_edge_indices).reshape(-1, 3, 2)
    check(frame.jacobian, vel[:, None, :, None], vel[None, :, None],
          bed[..., None, None], bed[:, None, None])
    # coupling blocks (a, c, k, t), first as C and then as C^T
    pres = n_u + spaces.mesh.triangles.T
    c_vel, c_pres = np.broadcast_arrays(vel[:, :, None], pres)
    check(frame.coupling, np.concatenate([c_vel.ravel(), c_pres.ravel()]),
          np.concatenate([c_pres.ravel(), c_vel.ravel()]))
    # the unit diagonal of the constrained dofs, each once
    assert frame.unit_slots.dtype == np.int32
    assert np.array_equal(np.sort(keys[frame.unit_slots]),
                          np.flatnonzero(~free) * (n + 1))
