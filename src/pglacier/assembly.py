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

Every integral is one contraction over all quadrature points by one of
two primitives: ``_pair_volume`` pairs a per-point integrand over all
(triangle, point) pairs with the gradients of the quadratic basis (a
flux) or with a table of basis values, and ``_pair_trace`` pairs one
over (boundary edge, point) pairs with edge trace values.  Dual vectors
are scattered with ``np.bincount``; operators are written straight into
the data array of the mesh's fixed saddle pattern
(:meth:`Spaces.saddle_pattern`) through its slot maps, and constraint
elimination is index arithmetic (a gather) on that data.  Sums run in a fixed
order, so serial assembly is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite

from .spaces import (SpaceKind, basal_coeff_on_edges, scalar_values_at_quadrature,
                     velocity_gradients_at_quadrature, velocity_trace)
from .tensor_ops import s_gamma, s_omega


@dataclass
class AssembledSystem:
    """Sparse symmetric operator with its constraint list.

    ``matrix`` is the full (unconstrained) saddle-point operator;
    ``constrained_dofs`` lists the rotated-frame dofs eliminated by
    :meth:`reduced`, which applies symmetric row/column elimination with
    unit diagonal.
    """

    matrix: sp.csr_matrix
    constrained_dofs: np.ndarray
    spaces: object
    _reduced: sp.csr_matrix = field(default=None, repr=False)

    def reduced(self):
        if self._reduced is None:
            self._reduced = self.spaces.eliminate(self.matrix)
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


# -- the two pairing primitives ----------------------------------------


def _weighted_grads(spaces):
    """w_q |det_t| grad N_a, laid out like ``spaces.basis_grads``."""
    w = np.repeat(spaces.quadrature.tri_weights, 2)
    return _cached(spaces, "weighted_grads",
                   lambda: spaces.basis_grads * (spaces.det[:, None, None] * w))


def _pair_values(integrand, basis, weights, measure):
    """out[k, a, ...] = measure[k] sum_m weights[m] integrand[k, m, ...]
    basis[m, a] as one batched matmul; a leading integrand axis of length
    1 broadcasts over k."""
    tail = integrand.shape[2:]
    flat = integrand.reshape(integrand.shape[:2] + (int(np.prod(tail)),))
    out = np.matmul((basis * weights[:, None]).T, flat) * measure[:, None, None]
    return out.reshape((measure.size, basis.shape[1]) + tail)


def _pair_volume(spaces, integrand, basis=None):
    """Pair a per-point integrand with basis functions over all
    (triangle, quadrature point) pairs in one contraction.

    With ``basis`` None the integrand is a flux of shape (nt, nq, 2, ...)
    and out[t, a, ...] = sum_{q, j} w_q |det_t| integrand[t, q, j, ...]
    dN_a/dx_j over the quadratic basis.  Otherwise ``basis`` is a value
    table (nq, n_local) and out[t, a, ...] = sum_q w_q |det_t|
    integrand[t, q, ...] basis[q, a]; a leading axis of length 1 then
    broadcasts over triangles.  Returns shape (nt, n_local, ...).
    """
    if basis is not None:
        return _pair_values(integrand, basis, spaces.quadrature.tri_weights, spaces.det)
    nt, nq = integrand.shape[:2]
    tail = integrand.shape[3:]
    out = np.matmul(_weighted_grads(spaces),
                    integrand.reshape(nt, 2 * nq, int(np.prod(tail))))
    return out.reshape((nt, 6) + tail)


def _pair_trace(spaces, edges, integrand, basis):
    """Pair a per-point integrand with edge basis values ``basis`` (m,
    n_local) over all (boundary edge, quadrature point) pairs of
    ``edges`` in one contraction: out[k, a, ...] = sum_m w_m |e_k|
    integrand[k, m, ...] basis[m, a]; a leading axis of length 1
    broadcasts over edges.  Returns (len(edges), n_local, ...).
    """
    return _pair_values(integrand, basis, spaces.quadrature.edge_weights,
                        spaces.bedge_lengths[edges])


def _scatter(dofs, local, size):
    """Sum local entries into a dual vector; ``dofs`` matches the leading
    axes of ``local``."""
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
    return 0.5 * (grad + np.swapaxes(grad, 2, 3))


def _viscous_flux(grad, rheology, params, mu0):
    """B S(Dv) + mu0 grad v at every quadrature point, as a flux with
    axes (t, q, j, c) for the component c and the derivative x_j."""
    flux = scalar_values_at_quadrature(rheology)[:, :, None, None] \
        * s_omega(_strain(grad), params)
    if mu0:
        flux += mu0 * np.swapaxes(grad, 2, 3)
    return flux


def _bed_dual(spaces, velocity, friction, params):
    """Velocity dual of (tau S(v), phi) on the bed."""
    bed = spaces.basal_edge_indices
    traction = basal_coeff_on_edges(friction)[:, :, None] \
        * s_gamma(velocity_trace(velocity, bed), params)
    return trace_dual(spaces, bed, traction)


def _momentum_dual(spaces, local, velocity, friction, params):
    """Velocity dual: element vectors (nt, 6, 2) plus the bed term."""
    return _scatter(spaces.tri_vel_dofs, local, spaces.n_u) \
        + _bed_dual(spaces, velocity, friction, params)


def _residual_raw(velocity, pressure, rheology, friction, params):
    """Unprojected dual vector of the momentum/continuity residual."""
    spaces = _check_args(velocity, rheology, friction)
    grad = velocity_gradients_at_quadrature(velocity)
    flux = _viscous_flux(grad, rheology, params, params.mu0)
    pi_q = scalar_values_at_quadrature(pressure)
    flux[:, :, 0, 0] -= pi_q
    flux[:, :, 1, 1] -= pi_q
    load = np.broadcast_to(params.body_force, (1, spaces.p2_vals.shape[0], 2))
    local = _pair_volume(spaces, flux) - _pair_volume(spaces, load, spaces.p2_vals)
    r_p = _pair_volume(spaces, grad[:, :, 0, 0] + grad[:, :, 1, 1], spaces.p1_vals)
    return np.concatenate([
        _momentum_dual(spaces, local, velocity, friction, params),
        _scatter(spaces.mesh.triangles, r_p, spaces.mesh.num_vertices)])


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


def assemble_coeff_derivative(velocity, rheology_dir, friction_dir, params):
    """Dual vector of the operator derivative with respect to the
    coefficients, in directions (rheology_dir, friction_dir).

    Velocity-test entries are (Btilde S(Dv), grad phi) plus the bed term
    (tautilde S(v), phi); pressure-test entries are zero.  Linear in the
    directions.
    """
    spaces = _require_spaces(velocity, SpaceKind.VELOCITY_P2_VEC)
    if rheology_dir.space.kind is not SpaceKind.COEFF_OMEGA_P1:
        raise ValueError("rheology direction must live on the vertex space")
    if friction_dir.space.kind is not SpaceKind.COEFF_BASAL_P1:
        raise ValueError("friction direction must live on the bed chain")
    flux = _viscous_flux(velocity_gradients_at_quadrature(velocity), rheology_dir,
                         params, 0.0)
    out = np.zeros(spaces.n_sys)
    out[:spaces.n_u] = _momentum_dual(spaces, _pair_volume(spaces, flux), velocity,
                                      friction_dir, params)
    return spaces.project_dual(out)


def operator_action(velocity, rheology, friction, params):
    """Raw velocity-space dual of the nonlinear operator (power-law,
    linear-viscosity and bed terms; no load, no pressure).

    Pairing with another velocity field's dof vector equals the
    corresponding integrals; used by monotonicity and energy checks.
    """
    spaces = _check_args(velocity, rheology, friction)
    flux = _viscous_flux(velocity_gradients_at_quadrature(velocity), rheology,
                         params, params.mu0)
    return _momentum_dual(spaces, _pair_volume(spaces, flux), velocity, friction,
                          params)


def assemble_coeff_gradient_duals(velocity, adjoint, params):
    """Dual vectors of the cost gradient's data terms on the coefficient
    spaces: per vertex basis N_k the integral of N_k S(Dv) : grad(lambda)
    and per bed basis N_m the integral of N_m S(v) . lambda."""
    spaces = _require_spaces(velocity, SpaceKind.VELOCITY_P2_VEC)
    S = s_omega(_strain(velocity_gradients_at_quadrature(velocity)), params)
    inner = (S * velocity_gradients_at_quadrature(adjoint)).sum(axis=(2, 3))
    g_rheo = _scatter(spaces.mesh.triangles,
                      _pair_volume(spaces, inner, spaces.p1_vals),
                      spaces.mesh.num_vertices)
    bed = spaces.basal_edge_indices
    pair = (s_gamma(velocity_trace(velocity, bed), params)
            * velocity_trace(adjoint, bed)).sum(axis=2)
    s = spaces.quadrature.edge_points
    g_fric = _scatter(spaces.basal_edge_dofs,
                      _pair_trace(spaces, bed, pair, np.stack([1.0 - s, s], axis=1)),
                      spaces.coeff_basal.dof_count)
    return g_rheo, g_fric


# -- operators on the saddle pattern -------------------------------------


def coupling_matrix(spaces):
    """Velocity-pressure coupling C with C[(a,c), k] = -(psi_k, d_c phi_a),
    cached per mesh; the full operator uses [[K, C], [C^T, 0]]."""
    def build():
        flux = -np.eye(2)[None, :, :, None] * spaces.p1_vals[:, None, None, :]
        blocks = _pair_volume(spaces, np.broadcast_to(
            flux, (spaces.mesh.num_triangles,) + flux.shape))
        return _element_matrix(blocks.reshape(-1, 12, 3), spaces.tri_vel_dofs,
                               spaces.mesh.triangles,
                               (spaces.n_u, spaces.mesh.num_vertices))
    return _cached(spaces, "coupling", build)


def _saddle_system(spaces, blocks, bed_blocks):
    """Symmetric saddle operator from velocity element blocks (axes t, a,
    c, d, b) and bed-edge blocks (axes k, a, c, b, d), written into the
    data of the mesh's saddle pattern next to the cached coupling."""
    pattern = spaces.saddle_pattern()

    def coupling_data():
        C = coupling_matrix(spaces)
        data = np.zeros(pattern.nnz)
        data[pattern.coupling_slots] = C.data
        data[pattern.indptr[spaces.n_u]:] = C.T.tocsr().data
        return data
    data = np.bincount(pattern.velocity_slots, weights=blocks.ravel(),
                       minlength=pattern.nnz)
    data += np.bincount(pattern.bed_slots, weights=bed_blocks.ravel(),
                        minlength=pattern.nnz)
    data += _cached(spaces, "saddle_coupling", coupling_data)
    return AssembledSystem(pattern.matrix(data),
                           np.flatnonzero(spaces.sys_constrained), spaces)


def _derivative_factors(velocity, rheology, friction, params, what):
    """Arguments of the derivative kernels, S'(E) W = c1 (E : W) E + c2 W
    and s'(v) w = g1 (v . w) v + g2 w: the strain E with B c1 and B c2
    at the triangle points, and the bed trace v with tau g1 and tau g2
    at the bed points."""
    if params.delta <= 0.0:
        raise ValueError("%s needs delta > 0, got %r" % (what, params.delta))
    strain = _strain(velocity_gradients_at_quadrature(velocity))
    mag2 = (strain ** 2).sum(axis=(2, 3)) + params.delta ** 2
    B = scalar_values_at_quadrature(rheology)
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


# Constant maps on 2x2 gradients, axes (j, c, l, d): the identity
# delta_cd delta_jl and the transposition delta_cl delta_jd.
_SAME = np.einsum("jl,cd->jcld", np.eye(2), np.eye(2))
_SWAP = np.einsum("cl,jd->jcld", np.eye(2), np.eye(2))


# Triangles per batch of trial fluxes: keeps the (batch, nq, 48) flux
# array near half a megabyte whatever the mesh size.
_TRIAL_BATCH = 256


def _pair_trial_gradients(spaces, kernel):
    """Element blocks of the integral of dN_a/dx_j kernel[j, c, l, d]
    dN_b/dx_l with axes (t, a, c, d, b), the order of the saddle
    pattern's ``velocity_slots``; ``kernel`` (nt, nq, 2, 2, 2, 2) maps
    the gradient of trial function N_b e_d (derivative l of component d)
    to a flux (component c along x_j) at every point.  The volume pairing
    of ``_pair_volume``, run on batches of triangles."""
    nt, nq = kernel.shape[:2]
    kernel = np.swapaxes(kernel, 4, 5).reshape(nt, nq, 8, 2)
    grads = np.swapaxes(spaces.phys_grads, 2, 3)
    weighted = _weighted_grads(spaces)
    out = np.empty((nt, 6, 24))
    for lo in range(0, nt, _TRIAL_BATCH):
        t = slice(lo, lo + _TRIAL_BATCH)
        # flux of every trial function, axes (t, q, j, c, d, b)
        flux = np.matmul(kernel[t], grads[t])
        out[t] = np.matmul(weighted[t], flux.reshape(-1, 2 * nq, 24))
    return out.reshape(nt, 6, 2, 2, 6)


def _point(values):
    """Per-point scalars (nt, nq) broadcast against (j, c, l, d) axes."""
    return values[:, :, None, None, None, None]


def assemble_jacobian(velocity, rheology, friction, params):
    """Derivative of the residual at the given state, as a symmetric
    saddle-point :class:`AssembledSystem`.

    The velocity block pairs the derivative kernels with symmetric test
    gradients; the coupling block and its transpose are shared exactly.
    Requires delta > 0.
    """
    spaces = _check_args(velocity, rheology, friction)
    strain, bc1, bc2, v, tg1, tg2 = _derivative_factors(
        velocity, rheology, friction, params, "Jacobian assembly")
    # B S'(Dv) + mu0 on trial gradients: (mu0 + B c2 / 2) delta_cd delta_jl
    # + (B c2 / 2) delta_cl delta_jd + B c1 E_jc E_ld
    kernel = _point(bc1) * strain[:, :, :, :, None, None] * strain[:, :, None, None]
    kernel += _point(params.mu0 + 0.5 * bc2) * _SAME + _point(0.5 * bc2) * _SWAP
    # bed: tau (g1 v_c v_d + g2 delta_cd) N_b, axes (k, m, c, b, d)
    tv = spaces.edge_trace_vals
    bed = _bed_kernel(v, tg1, tg2)[:, :, :, None, :] * tv[None, :, None, :, None]
    return _saddle_system(spaces, _pair_trial_gradients(spaces, kernel),
                          _pair_trace(spaces, spaces.basal_edge_indices, bed, tv))


def assemble_adjoint_operator(velocity, rheology, friction, params):
    """Operator of the dual (adjoint) problem at the given state.

    Assembled independently of :func:`assemble_jacobian` by building the
    derivative-kernel image of each trial function and contracting it
    with the full (unsymmetrized) test gradient; since the image is a
    symmetric matrix the result equals the Jacobian entrywise up to
    rounding, and tests assert that equality.
    """
    spaces = _check_args(velocity, rheology, friction)
    strain, bc1, bc2, v, tg1, tg2 = _derivative_factors(
        velocity, rheology, friction, params, "adjoint operator")
    nt, nq = strain.shape[:2]
    # symmetric part T of a trial gradient H, T_jc = sym[j, c, l, d] H_dl
    sym = 0.5 * (_SAME + _SWAP)
    # image B (c1 (Dv : T) Dv + c2 T) + mu0 H, with Dv : T = (Dv : sym)_ld H_dl
    Dv_sym = np.matmul(strain.reshape(nt, nq, 4), sym.reshape(4, 4)).reshape(nt, nq, 2, 2)
    image = _point(bc1) * strain[:, :, :, :, None, None] * Dv_sym[:, :, None, None] \
        + _point(bc2) * sym + params.mu0 * _SAME
    # bed: image tau s'(v) of trial N_b e_d, axes (k, m, b, d, c)
    tv = spaces.edge_trace_vals
    bed_image = tv[None, :, :, None, None] * _bed_kernel(v, tg1, tg2)[:, :, None, :, :]
    return _saddle_system(
        spaces, _pair_trial_gradients(spaces, image),
        _pair_trace(spaces, spaces.basal_edge_indices,
                    np.moveaxis(bed_image, 4, 2), tv))


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
        grads = _pair_volume(spaces, np.swapaxes(spaces.phys_grads, 2, 3))
        blocks = _identity_blocks(grads).reshape(-1, 12, 12)
        n = spaces.n_u
        return _element_matrix(blocks, spaces.tri_vel_dofs, spaces.tri_vel_dofs, (n, n))
    return _cached(spaces, "velocity_v2", build)


def velocity_mass(spaces):
    """L2 mass matrix of the velocity space."""
    def build():
        values = _pair_volume(spaces, spaces.p2_vals[None], spaces.p2_vals)
        blocks = _identity_blocks(values).reshape(-1, 12, 12)
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


def dump_matrix_market(system, path):
    """Write the full operator in Matrix Market coordinate format."""
    mmwrite(str(path), system.matrix)
