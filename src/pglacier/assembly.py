"""Assembly of residuals, Jacobians and coefficient derivatives.

The discrete momentum residual tested against a velocity basis function
phi is

    (B S(Dv), grad phi) + mu0 (grad v, grad phi)
        + (tau S(v), phi) on the bed - (pi, div phi) + (f, phi)

with S the power-law kernels, D the symmetric gradient and f the body
force; pressure-test entries are (div v, q).  The assembled operator is
the standard symmetric saddle form [[K, C], [C^T, 0]] with the coupling
C tested as -(pi, div phi), which corresponds to scaling the continuity
rows by -1.  ``solver_sign`` exposes that convention so solvers and
finite-difference checks can flip the pressure block of the residual
consistently.

Every operator and dual vector is one contraction over all quadrature
points by one of three primitives.  Volume point arrays hold the
triangle innermost, axes (q, ..., t), so every pointwise step is a
whole-vector pass.  On affine triangles the physical basis gradients
are the fixed reference gradients pulled back by each triangle's
inverse transpose T, so ``_pair_flux`` pulls a flux back to the
reference element and pairs it with the weighted reference gradients
in one matrix product over all triangles, ``_pair_volume`` pairs a
per-point value with a basis value table the same way, and
``_pair_trace`` pairs one over (boundary edge, point) pairs with edge
trace values.  The Jacobian's velocity block is likewise one product of
a per-mesh table of reference gradient pairs with a per-point geometry
tensor (:func:`assemble_jacobian`).  Dual vectors are scattered with
``np.bincount``; operators are written straight into the data array of
a per-mesh pattern through precomputed slot maps, also with
``np.bincount``: the Jacobian's element blocks into the eliminated
pattern of the reduced frame (:meth:`Spaces.eliminate`), weighted by
the tangent at slip nodes, and the coefficient Jacobian
(:func:`assemble_coeff_jacobian`), whose products are the coefficient
derivative and the gradient duals, into a pattern of its own.  The
reduced frame's pattern and slots come from one keyed pass over the
element entries (:class:`ReducedFrame`), among them the coupling's
element blocks, keyed once as C and once as C^T and scattered once per
mesh.  The auxiliary matrices, built once per mesh, sum their element
blocks by COO conversion.
The four linear-element mass and stiffness matrices keep their closed
forms.  Each space has one pair of Gram matrices (:func:`gram_matrices`)
and its L2, V2 and H1 norms are their quadratic forms; integrals of
nonlinear point values (the Lr norms, the misfit, the verification
checks) go through one scalar quadrature sum, ``_omega_quad_integral``
or ``_basal_quad_integral``.  The quadrature weights are applied only
in this module.  Sums run in a fixed order, so serial assembly is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .spaces import (SpaceKind, _adjacency, _frozen, basal_coeff_on_edges,
                     point_scalar_values, point_velocity_gradients,
                     point_velocity_values, velocity_trace)
from .tensor_ops import _kernel, s_gamma


@dataclass
class AssembledSystem:
    """Symmetric saddle-point operator [[K, C], [C^T, 0]] on ``spaces``.

    K is kept as its element blocks in plain x/y components: ``blocks``
    for the triangles, axes (a, b, c, d, t), and ``bed_blocks`` for the
    bed edges, axes (k, a, c, b, d); C is the mesh's own coupling, whose
    element blocks are keyed as C and as C^T and scattered once per mesh.
    :meth:`reduced` is the operator in the reduced frame of ``spaces``,
    with the dofs of ``spaces.reduced_frame().constrained`` eliminated
    by symmetric row/column elimination with unit diagonal: a CSC matrix
    that a saddle LU factors as it stands, scattered from the blocks on
    the first call, which builds the reduced frame on the mesh's first
    reduction.
    """

    spaces: object
    blocks: np.ndarray = field(repr=False)
    bed_blocks: np.ndarray = field(repr=False)
    _reduced: sp.csc_matrix = field(default=None, repr=False)

    def reduced(self):
        if self._reduced is None:
            self._reduced = self.spaces.eliminate(
                self.blocks, self.bed_blocks, _reduced_coupling(self.spaces))
        return self._reduced


def solver_sign(spaces):
    """Sign vector (+1 velocity rows, -1 pressure rows) relating the
    plain residual to the symmetric-operator convention."""
    sign = np.ones(spaces.n_sys)
    sign[spaces.n_u:] = -1.0
    return sign


def _require_spaces(field_, kind):
    if field_.space.kind is not kind:
        raise ValueError("expected a %s field, got %s"
                         % (kind.value, field_.space.kind.value))
    return field_.space.parent


def _check_args(velocity, rheology, friction):
    spaces = _require_spaces(velocity, SpaceKind.VELOCITY_P2_VEC)
    if rheology.space.kind is not SpaceKind.COEFF_OMEGA_P1 \
            or rheology.space.mesh is not spaces.mesh:
        raise ValueError("rheology field must live on the same mesh's vertex space")
    if friction.space.kind is not SpaceKind.COEFF_BASAL_P1 \
            or friction.space.mesh is not spaces.mesh:
        raise ValueError("friction field must live on the same mesh's bed chain")
    return spaces


def _cached(spaces, key, builder):
    """Per-mesh cache entry ``key`` of ``spaces``, built on first use."""
    if key not in spaces._cache:
        spaces._cache[key] = builder()
    return spaces._cache[key]


# -- the pairing primitives -------------------------------------------


def _reference_tables(spaces):
    """Per-mesh tables of the volume contractions: the weighted reference
    gradients w_q dN_a/dxi_m with rows (q, m), the pair table w_q
    dN_a/dxi_m dN_b/dxi_n with rows (a, b) and columns (q, m, n), and
    the flux pull-back det_t inv_t[j, m, t]."""
    def build():
        w = spaces.quadrature.tri_weights
        ref = spaces.ref_grads
        nq = w.size
        weighted = (ref * w[:, None, None]).reshape(2 * nq, 6)
        pairs = np.einsum("q,qma,qnb->abqmn", w, ref, ref).reshape(36, 4 * nq)
        return weighted, pairs, spaces.inv_t * spaces.det
    return _cached(spaces, "reference_tables", build)


def _pull_back(inv_t, flux):
    """out[q, m, ..., t] = sum_j inv_t[j, m, t] flux[q, j, ..., t]: a flux
    or gradient with physical axis j in reference axis m; a trailing
    flux axis of length 1 broadcasts over triangles."""
    mid = (1,) * (flux.ndim - 3)
    return (flux[:, 0, None] * inv_t[0].reshape((2,) + mid + (-1,))
            + flux[:, 1, None] * inv_t[1].reshape((2,) + mid + (-1,)))


def _pair_flux(spaces, flux):
    """Pair a per-point flux with the gradients of the quadratic basis
    over all (triangle, quadrature point) pairs: out[a, ..., t] =
    sum_{q, j} w_q det_t flux[q, j, ..., t] dN_a/dx_j.  The flux, axes
    (q, j, ..., t) with the triangle innermost, is pulled back to the
    reference element and paired with the weighted reference gradients
    in one matmul.  Returns shape (6, ..., nt)."""
    weighted, _, det_inv_t = _reference_tables(spaces)
    phi = _pull_back(det_inv_t, flux)
    out = weighted.T @ phi.reshape(weighted.shape[0], -1)
    return out.reshape((6,) + phi.shape[2:])


def _pair_volume(spaces, integrand, basis):
    """Pair a per-point integrand with a basis value table ``basis`` (nq,
    n_local) over all (triangle, quadrature point) pairs in one matmul:
    out[a, ..., t] = sum_q w_q det_t integrand[q, ..., t] basis[q, a],
    with the triangle innermost; a trailing integrand axis of length 1
    broadcasts over triangles.  Returns shape (n_local, ..., nt)."""
    weighted = basis * spaces.quadrature.tri_weights[:, None]
    out = weighted.T @ integrand.reshape(integrand.shape[0], -1)
    return out.reshape(basis.shape[1:] + integrand.shape[1:]) * spaces.det


def _omega_quad_integral(spaces, pointwise):
    """Sum w_q det_t pointwise[q, t] over all triangle quadrature points;
    ``pointwise`` is a triangle-innermost point array, shape (nq, nt)."""
    w = spaces.quadrature.tri_weights
    return float(np.einsum("q,t,qt->", w, spaces.det, pointwise))


def _basal_quad_integral(spaces, edges, pointwise):
    """Sum w * length * pointwise over the given boundary edges and
    their quadrature points."""
    w = spaces.quadrature.edge_weights
    lengths = spaces.bedge_lengths[edges]
    return float(np.einsum("m,k,km->", w, lengths, pointwise))


def _pair_trace(spaces, edges, integrand, basis):
    """Pair a per-point integrand with edge basis values ``basis`` (m,
    n_local) over all (boundary edge, quadrature point) pairs of
    ``edges`` in one contraction: out[k, a, ...] = sum_m w_m |e_k|
    integrand[k, m, ...] basis[m, a]; a leading axis of length 1
    broadcasts over edges.  Returns (len(edges), n_local, ...).
    """
    tail = integrand.shape[2:]
    flat = integrand.reshape(integrand.shape[:2] + (int(np.prod(tail)),))
    weighted = basis * spaces.quadrature.edge_weights[:, None]
    out = np.matmul(weighted.T, flat) * spaces.bedge_lengths[edges][:, None, None]
    return out.reshape(out.shape[:2] + tail)


def _scatter(dofs, local, size):
    """Sum local entries into a dual vector; ``dofs`` holds the dof of
    each entry of ``local`` in the same order."""
    return np.bincount(dofs.ravel(), weights=local.ravel(), minlength=size)


def trace_dual(spaces, edges, integrand):
    """Velocity dual vector (length n_u) of the boundary integral of
    integrand . phi over ``edges``; ``integrand`` has shape (k, m, 2) at
    the edge quadrature points."""
    local = _pair_trace(spaces, edges, integrand, spaces.edge_trace_vals)
    return _scatter(spaces.trace_dofs(edges), local, spaces.n_u)


def _element_matrix(blocks, row_dofs, col_dofs, shape):
    """Sparse matrix summing element blocks (n, r, c) at the given dofs."""
    rows = np.broadcast_to(row_dofs[:, :, None].astype(np.int32), blocks.shape).ravel()
    cols = np.broadcast_to(col_dofs[:, None, :].astype(np.int32), blocks.shape).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=shape).tocsr()


# -- residual and coefficient derivatives --------------------------------


def _strain(grad):
    """Symmetric part of triangle-innermost gradients, axes (q, i, j, t)."""
    return 0.5 * (grad + np.swapaxes(grad, 1, 2))


def _s_omega_points(strain, params):
    """Matrix kernel of triangle-innermost strains, axes (q, i, j, t):
    the kernel runs over the (i, j) axes in place, so the strain is not
    copied into the components-last layout of ``s_omega``."""
    return _kernel(strain, params.delta, params.p, 2, axis=-2)


def _residual_raw(velocity, pressure, rheology, friction, params):
    """Unprojected dual vector of the momentum/continuity residual."""
    spaces = _check_args(velocity, rheology, friction)
    grad = point_velocity_gradients(velocity)
    # B S(Dv) + mu0 grad v as a flux, axes (q, j, c, t) for the component
    # c and the derivative x_j
    flux = point_scalar_values(rheology)[:, None, None] \
        * _s_omega_points(_strain(grad), params)
    flux += params.mu0 * np.swapaxes(grad, 1, 2)
    pi_q = point_scalar_values(pressure)
    flux[:, 0, 0] -= pi_q
    flux[:, 1, 1] -= pi_q
    load = np.broadcast_to(np.reshape(params.body_force, (1, 2, 1)),
                           (spaces.p2_vals.shape[0], 2, 1))
    local = _pair_flux(spaces, flux) - _pair_volume(spaces, load, spaces.p2_vals)
    r_p = _pair_volume(spaces, grad[:, 0, 0] + grad[:, 1, 1], spaces.p1_vals)
    # the bed term (tau S(v), phi)
    bed = spaces.basal_edge_indices
    traction = basal_coeff_on_edges(friction)[:, :, None] \
        * s_gamma(velocity_trace(velocity, bed), params)
    return np.concatenate([
        _scatter(spaces.tri_vel_dofs.T, local, spaces.n_u)
        + trace_dual(spaces, bed, traction),
        _scatter(spaces.mesh.triangles.T, r_p, spaces.mesh.num_vertices)])


def assemble_residual(velocity, pressure, rheology, friction, params):
    """Dual vector of the discrete residual at the given state.

    Velocity-test entries hold the momentum residual including the body
    force, pressure-test entries hold (div v, q).  Constrained
    components (rotated frame) are zeroed; pairing with any
    constraint-satisfying field is unaffected by that projection.
    """
    spaces = _check_args(velocity, rheology, friction)
    return spaces.project_dual(_residual_raw(velocity, pressure, rheology,
                                             friction, params))


def assemble_coeff_jacobian(velocity, params):
    """Derivative of the operator with respect to the coefficients at a
    fixed velocity: the sparse matrix G(v) of the bilinear form

        b(v; c, phi) = (c_B S(Dv), grad phi) + (c_tau S(v), phi) on the bed,

    with one row per velocity dof and one column per coefficient dof,
    the vertex space first, then the bed chain (n_u x (n_vertices +
    n_bed), CSR).  ``G @ c`` is the velocity part of the operator
    derivative along c, and ``G.T @ lambda`` stacks the cost gradient's
    data terms for a dual state lambda.
    """
    spaces = _require_spaces(velocity, SpaceKind.VELOCITY_P2_VEC)
    S = _s_omega_points(_strain(point_velocity_gradients(velocity)), params)
    # flux of each vertex basis direction, axes (q, j, c, k, t)
    volume = _pair_flux(spaces, S[:, :, :, None] * spaces.p1_vals[:, None, None, :, None])
    # traction of each bed-chain basis direction, axes (k, m, c, l)
    bed = spaces.basal_edge_indices
    s = spaces.quadrature.edge_points
    hats = np.stack([1.0 - s, s], axis=1)
    traction = s_gamma(velocity_trace(velocity, bed), params)[..., None] \
        * hats[:, None, :]
    bed_blocks = _pair_trace(spaces, bed, traction, spaces.edge_trace_vals)
    indptr, indices, slots = _coeff_pattern(spaces)
    data = np.bincount(slots, weights=np.concatenate([volume.ravel(), bed_blocks.ravel()]),
                       minlength=indices.size)
    return sp.csr_matrix((data, indices, indptr), shape=(
        spaces.n_u, spaces.mesh.num_vertices + spaces.coeff_basal.dof_count))


def _coeff_pattern(spaces):
    """CSR ``indptr`` and ``indices`` of the coefficient Jacobian, built
    once per mesh, and the slot in its data of every element-block entry:
    the volume blocks with axes (a, c, k, t) (velocity node a and
    component c, vertex k of triangle t), then the bed blocks with axes
    (edge, a, c, l) (trace node a and component c, chain end l)."""
    def build():
        nt, nv = spaces.mesh.num_triangles, spaces.mesh.num_vertices
        bed = spaces.basal_edge_indices
        volume_shape, bed_shape = (12, 3, nt), (bed.size, 6, 2)
        rows = np.concatenate([
            np.broadcast_to(spaces.tri_vel_dofs.T[:, None], volume_shape).ravel(),
            np.broadcast_to(spaces.trace_dofs(bed)[:, :, None], bed_shape).ravel()])
        cols = np.concatenate([
            np.broadcast_to(spaces.mesh.triangles.T, volume_shape).ravel(),
            np.broadcast_to(nv + spaces.basal_edge_dofs[:, None], bed_shape).ravel()])
        _, col, count, slots = _adjacency(
            rows, cols, spaces.n_u, nv + spaces.coeff_basal.dof_count)
        return (_frozen(np.concatenate([[0], np.cumsum(count)])), _frozen(col),
                _frozen(slots))
    return _cached(spaces, "coeff_pattern", build)


# -- saddle operators ---------------------------------------------------


def _coupling_blocks(spaces):
    """Element blocks of the velocity-pressure coupling C[(a, c), k] =
    -(psi_k, d_c phi_a), axes (a, c, k, t); the full operator is
    [[K, C], [C^T, 0]]."""
    # flux -delta_jc psi_k, axes (q, j, c, k, t), alike on every triangle
    flux = -np.eye(2)[None, :, :, None, None] * spaces.p1_vals[:, None, None, :, None]
    return _pair_flux(spaces, flux)


def _reduced_coupling(spaces):
    """The coupling blocks, scattered as C and as C^T, and the unit
    diagonal of the constrained dofs as data of the reduced frame's
    pattern, cached per mesh: the part every reduced saddle operator
    shares."""
    def build():
        blocks = _coupling_blocks(spaces).ravel()
        frame = spaces.reduced_frame()
        data = frame.scatter(frame.coupling, np.concatenate([blocks, blocks]))
        data[frame.unit_slots] = 1.0
        return data
    return _cached(spaces, "saddle_coupling", build)


def _derivative_factors(velocity, rheology, friction, params):
    """Arguments of the derivative kernels, S'(E) W = c1 (E : W) E + c2 W
    and s'(v) w = g1 (v . w) v + g2 w: the strain E, axes (q, i, j, t),
    with B c1 and B c2, axes (q, t), at the triangle points, and the bed
    trace v with tau g1 and tau g2 at the bed points."""
    if params.delta <= 0.0:
        raise ValueError("Jacobian assembly needs delta > 0, got %r" % params.delta)
    strain = _strain(point_velocity_gradients(velocity))
    mag2 = (strain ** 2).sum(axis=(1, 2)) + params.delta ** 2
    B = point_scalar_values(rheology)
    p, s = params.p, params.s
    v = velocity_trace(velocity, velocity.space.parent.basal_edge_indices)
    vmag2 = (v ** 2).sum(axis=2) + params.delta ** 2
    tau = basal_coeff_on_edges(friction)
    return (strain, B * (p - 2.0) * mag2 ** ((p - 4.0) / 2.0),
            B * mag2 ** ((p - 2.0) / 2.0),
            v, tau * (s - 2.0) * vmag2 ** ((s - 4.0) / 2.0),
            tau * vmag2 ** ((s - 2.0) / 2.0))


def _bed_kernel(v, g1, g2):
    """Vector derivative kernel g1 v_c v_d + g2 delta_cd at every bed
    point, axes (k, m, c, d)."""
    kernel = g1[:, :, None, None] * v[:, :, :, None] * v[:, :, None, :]
    for c in range(2):
        kernel[:, :, c, c] += g2
    return kernel


def _jacobian_tables(spaces):
    """Per-mesh constants of the Jacobian's point tensor, axes (m, n, c,
    d, t): T_dm T_cn + delta_cd S_mn and det_t delta_cd S_mn, with T =
    ``inv_t[:, :, t]`` and S = T^T T."""
    def build():
        T = spaces.inv_t.transpose(1, 0, 2)             # T[m, j, t] = T_jm
        same = np.zeros((2, 2, 2, 2, spaces.mesh.num_triangles))
        for c in range(2):
            same[:, :, c, c] = np.einsum("mjt,njt->mnt", T, T)
        return T[:, None, None] * T[None, :, :, None] + same, same * spaces.det
    return _cached(spaces, "jacobian_tables", build)


def assemble_jacobian(velocity, rheology, friction, params):
    """Derivative of the residual at the given state, as a symmetric
    saddle-point :class:`AssembledSystem`.

    The velocity block of a triangle with inverse transpose T, for test
    node a and component c and trial node b and component d, is a
    contraction of the reference gradients,

        block[a, b, c, d] = sum_{q, m, n} w_q dN_a/dxi_m dN_b/dxi_n K[q, m, n, c, d]

    with K = det (B c1 F_mc F_nd + (mu0 + B c2 / 2) delta_cd S_mn
    + (B c2 / 2) T_dm T_cn), E the strain, F = T^T E and S = T^T T: one
    matmul of the per-mesh pair table with K over all triangles.  The
    coupling block and its transpose are shared exactly.  Nothing is
    scattered until :meth:`AssembledSystem.reduced`.  Requires delta > 0.
    """
    spaces = _check_args(velocity, rheology, friction)
    strain, bc1, bc2, v, tg1, tg2 = _derivative_factors(
        velocity, rheology, friction, params)
    both, same_det = _jacobian_tables(spaces)
    _, pairs, _ = _reference_tables(spaces)
    # K with axes (q, m, n, c, d, t)
    F = _pull_back(spaces.inv_t, strain)
    gF = (spaces.det * bc1)[:, None, None] * F
    kernel = gF[:, :, None, :, None] * F[:, None, :, None]
    kernel += (0.5 * spaces.det * bc2)[:, None, None, None, None] * both
    kernel += params.mu0 * same_det
    blocks = pairs @ kernel.reshape(pairs.shape[1], -1)
    # bed: tau (g1 v_c v_d + g2 delta_cd) N_b, axes (k, m, c, b, d)
    tv = spaces.edge_trace_vals
    bed = _bed_kernel(v, tg1, tg2)[:, :, :, None, :] * tv[None, :, None, :, None]
    return AssembledSystem(spaces, blocks,
                           _pair_trace(spaces, spaces.basal_edge_indices, bed, tv))


# The dual operator is the transpose of the Jacobian, and the Jacobian is
# symmetric (acceptance criterion 2), so the adjoint reuses it.
assemble_adjoint_operator = assemble_jacobian


# -- auxiliary matrices ------------------------------------------------


def omega_p1_stiffness(spaces):
    """Gradient-seminorm stiffness of the vertex scalar space."""
    def build():
        areas = 0.5 * spaces.det
        blocks = np.einsum("t,tki,tli->tkl", areas, spaces.p1_grads, spaces.p1_grads)
        n = spaces.mesh.num_vertices
        tris = spaces.mesh.triangles
        return _element_matrix(blocks, tris, tris, (n, n))
    return _cached(spaces, "omega_stiffness", build)


def omega_p1_mass(spaces):
    """Consistent mass matrix of the vertex scalar space."""
    def build():
        local = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
        blocks = (0.5 * spaces.det)[:, None, None] * local
        n = spaces.mesh.num_vertices
        tris = spaces.mesh.triangles
        return _element_matrix(blocks, tris, tris, (n, n))
    return _cached(spaces, "omega_mass", build)


def basal_p1_stiffness(spaces):
    """Arc-length gradient stiffness along the bed chain."""
    def build():
        lengths = spaces.bedge_lengths[spaces.basal_edge_indices]
        local = np.array([[1.0, -1.0], [-1.0, 1.0]])
        blocks = local[None, :, :] / lengths[:, None, None]
        n = spaces.coeff_basal.dof_count
        dofs = spaces.basal_edge_dofs
        return _element_matrix(blocks, dofs, dofs, (n, n))
    return _cached(spaces, "basal_stiffness", build)


def basal_p1_mass(spaces):
    """Arc-length mass matrix along the bed chain."""
    def build():
        lengths = spaces.bedge_lengths[spaces.basal_edge_indices]
        local = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        blocks = lengths[:, None, None] * local[None, :, :]
        n = spaces.coeff_basal.dof_count
        dofs = spaces.basal_edge_dofs
        return _element_matrix(blocks, dofs, dofs, (n, n))
    return _cached(spaces, "basal_mass", build)


def _identity_blocks(blocks):
    """Scalar element blocks (n, r, c) times delta_cd for the two vector
    components, laid out (n, r, 2, c, 2)."""
    out = np.zeros((blocks.shape[0], blocks.shape[1], 2, blocks.shape[2], 2))
    for c in range(2):
        out[:, :, c, :, c] = blocks
    return out


def velocity_v2_stiffness(spaces):
    """Full-gradient stiffness of the velocity space (both components)."""
    def build():
        # flux of each trial function: its physical gradient, axes (q, j, b, t)
        grads = np.einsum("jnt,qnb->qjbt", spaces.inv_t, spaces.ref_grads)
        blocks = np.moveaxis(_pair_flux(spaces, grads), 2, 0)
        blocks = _identity_blocks(blocks).reshape(-1, 12, 12)
        n = spaces.n_u
        return _element_matrix(blocks, spaces.tri_vel_dofs, spaces.tri_vel_dofs, (n, n))
    return _cached(spaces, "velocity_v2", build)


def velocity_mass(spaces):
    """L2 mass matrix of the velocity space."""
    def build():
        values = _pair_volume(spaces, spaces.p2_vals[:, :, None], spaces.p2_vals)
        blocks = _identity_blocks(np.moveaxis(values, 2, 0)).reshape(-1, 12, 12)
        n = spaces.n_u
        return _element_matrix(blocks, spaces.tri_vel_dofs, spaces.tri_vel_dofs, (n, n))
    return _cached(spaces, "velocity_mass", build)


def basal_trace_mass(spaces):
    """L2 mass of velocity traces on the bed chain."""
    def build():
        bed = spaces.basal_edge_indices
        tv = spaces.edge_trace_vals
        blocks = _identity_blocks(_pair_trace(spaces, bed, tv[None], tv))
        dofs = spaces.trace_dofs(bed)
        n = spaces.n_u
        return _element_matrix(blocks.reshape(-1, 6, 6), dofs, dofs, (n, n))
    return _cached(spaces, "basal_trace_mass", build)


# -- Gram forms and norms ----------------------------------------------


_GRAM_BUILDERS = {
    SpaceKind.VELOCITY_P2_VEC: (velocity_mass, velocity_v2_stiffness),
    SpaceKind.PRESSURE_P1: (omega_p1_mass, omega_p1_stiffness),
    SpaceKind.COEFF_OMEGA_P1: (omega_p1_mass, omega_p1_stiffness),
    SpaceKind.COEFF_BASAL_P1: (basal_p1_mass, basal_p1_stiffness),
}


def gram_matrices(space):
    """The cached (mass, stiffness) pair of ``space``: the Gram matrices
    of its L2 product and of its full-gradient (V2) seminorm."""
    return tuple(build(space.parent) for build in _GRAM_BUILDERS[space.kind])


def norm(field, which, r=None):
    """Norm of a field: ``which`` is ``L2``, ``V2_seminorm`` (the L2 norm
    of the full gradient), ``H1``, ``Lr_omega`` or ``Lr_basal``, the Lr
    norms with an exponent ``r`` >= 1.

    L2, V2 and H1 are the roots of x.Mx, x.Kx and x.Mx + x.Kx for the
    space's :func:`gram_matrices`, clamped at 0: near the seminorm's null
    space (a constant scalar field, say) x.Kx keeps only about sqrt(eps)
    |x| absolute accuracy and can round below 0.  The Lr norms sum
    |field|^r by quadrature over the cross-section, from the
    triangle-innermost point values of :func:`point_velocity_values` or
    :func:`point_scalar_values`, or, for the friction space only, along
    the bed chain.  Other pairings raise ValueError.
    """
    kind = field.space.kind
    spaces = field.space.parent
    basal = kind is SpaceKind.COEFF_BASAL_P1
    if which in ("Lr_omega", "Lr_basal"):
        if r is None or r < 1:
            raise ValueError("Lr norm needs an exponent r >= 1")
        if basal and which == "Lr_basal":
            return _basal_quad_integral(spaces, spaces.basal_edge_indices, np.abs(
                basal_coeff_on_edges(field)) ** r) ** (1.0 / r)
        if not basal and which == "Lr_omega":
            if kind is SpaceKind.VELOCITY_P2_VEC:
                magnitude = np.sqrt((point_velocity_values(field) ** 2).sum(axis=1))
            else:
                magnitude = np.abs(point_scalar_values(field))
            return _omega_quad_integral(spaces, magnitude ** r) ** (1.0 / r)
    elif which in ("L2", "V2_seminorm", "H1"):
        # only the matrices the norm reads are built
        mass, stiffness = _GRAM_BUILDERS[kind]
        x = field.values
        form = 0.0
        if which != "V2_seminorm":
            form += x @ (mass(spaces) @ x)
        if which != "L2":
            form += x @ (stiffness(spaces) @ x)
        return float(np.sqrt(max(form, 0.0)))
    raise ValueError("norm %r unsupported for space %s" % (which, kind.value))
