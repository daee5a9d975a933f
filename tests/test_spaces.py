"""Discrete spaces: quadrature exactness, basis reproduction, traces,
constraints and norms."""

import numpy as np
import pytest

import pglacier as pg
from conftest import quadrature_norm, slit_bed_mesh
from pglacier.assembly import norm
from pglacier.mesh import MeshError
from pglacier.spaces import (NodeConstraint, basal_coeff_on_edges,
                             default_quadrature, field_from_callable,
                             p2_edge_trace, p2_reference_gradients, p2_values,
                             point_velocity_gradients, point_velocity_values,
                             velocity_trace)

rng = np.random.default_rng(42)


def project_velocity(spaces, values):
    """Velocity dof values projected onto the constraint set."""
    full = np.zeros(spaces.n_sys)
    full[:spaces.n_u] = values
    return spaces.project_dual(full)[:spaces.n_u]


def test_velocity_dof_count_on_2x2_slab():
    # 9 vertices + 16 unique edges, 2 components each
    spaces = pg.build_spaces(pg.generate_slab_mesh(1.0, 1.0, 2, 2))
    assert spaces.velocity.dof_count == 2 * (9 + 16) == 50
    assert spaces.pressure.dof_count == 9
    assert spaces.coeff_omega.dof_count == 9
    assert spaces.coeff_basal.dof_count == 3


def exact_triangle_monomial(i, j):
    """Integral of x^i y^j over the reference triangle x, y >= 0, x + y <= 1."""
    from math import factorial
    return factorial(i) * factorial(j) / factorial(i + j + 2)


@pytest.mark.parametrize("i,j", [(i, j) for i in range(5) for j in range(5 - i)])
def test_triangle_quadrature_degree_four(i, j):
    q = default_quadrature()
    approx = (q.tri_weights * q.tri_points[:, 0] ** i
              * q.tri_points[:, 1] ** j).sum()
    assert abs(approx - exact_triangle_monomial(i, j)) <= 1e-15


@pytest.mark.parametrize("k", range(6))
def test_edge_quadrature_degree_five(k):
    q = default_quadrature()
    approx = (q.edge_weights * q.edge_points ** k).sum()
    assert abs(approx - 1.0 / (k + 1)) <= 1e-15


def test_p2_partition_of_unity():
    pts = rng.random((40, 2)) * 0.5
    vals = p2_values(pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-14)
    grads = p2_reference_gradients(pts)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)


def test_p2_nodal_property():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    assert np.allclose(p2_values(nodes), np.eye(6), atol=1e-14)


def test_edge_trace_basis_partition():
    s = np.linspace(0.0, 1.0, 11)
    tv = p2_edge_trace(s)
    assert np.allclose(tv.sum(axis=1), 1.0, atol=1e-14)
    assert np.allclose(p2_edge_trace(np.array([0.0, 1.0, 0.5])),
                       [[1, 0, 0], [0, 1, 0], [0, 0, 1]], atol=1e-14)


def quadrature_coords(spaces):
    """Physical triangle quadrature points from the vertices and the
    reference points, axes (q, i, t) like the point arrays."""
    mesh = spaces.mesh
    a, b, c = (mesh.vertices[mesh.triangles[:, k]].T for k in range(3))
    xi, eta = spaces.quadrature.tri_points.T
    return a + xi[:, None, None] * (b - a) + eta[:, None, None] * (c - a)


def test_gradient_of_linear_field(slab_spaces):
    # quadratic basis reproduces linears exactly
    v = field_from_callable(slab_spaces.velocity, lambda x, y: (x, -y))
    grads = point_velocity_gradients(v).transpose(0, 3, 1, 2)
    expected = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert np.max(np.abs(grads - expected)) <= 1e-13


def test_gradient_of_quadratic_field(slab_spaces):
    # oracle: d/dx of x^2 evaluated at the quadrature point
    v = field_from_callable(slab_spaces.velocity, lambda x, y: (x * x, 0.0))
    grads = point_velocity_gradients(v)
    x_q = quadrature_coords(slab_spaces)[:, 0]
    assert np.max(np.abs(grads[:, 0, 0] - 2.0 * x_q)) <= 1e-12


def test_quadratic_interpolation_exact(slab_spaces):
    f = lambda x, y: (x * y + 2.0 * y * y, x * x - y)
    v = field_from_callable(slab_spaces.velocity, f)
    vals = point_velocity_values(v)
    xq = quadrature_coords(slab_spaces)
    exact = np.stack(f(xq[:, 0], xq[:, 1]), axis=1)
    assert np.max(np.abs(vals - exact)) <= 1e-13


def test_constant_trace(slab_spaces):
    v = pg.constant_field(slab_spaces.velocity, 0.0)
    v = pg.Field(slab_spaces.velocity,
                 np.tile([3.0, -1.0], slab_spaces.n_vnodes))
    tr = velocity_trace(v, slab_spaces.mesh.observed_edges)
    assert np.allclose(tr[..., 0], 3.0) and np.allclose(tr[..., 1], -1.0)


def test_quadratic_edge_trace_matches_1d_eval(slab_spaces):
    # oracle: direct 1D evaluation of the quadratic along the edge
    f = lambda x, y: (x * x + y, 0.0)
    v = field_from_callable(slab_spaces.velocity, f)
    edges = slab_spaces.mesh.observed_edges
    tr = velocity_trace(v, edges)
    s = slab_spaces.quadrature.edge_points
    mesh = slab_spaces.mesh
    for row, e in enumerate(edges):
        a, b = mesh.boundary_edges[e]
        xy = mesh.vertices[a][None, :] \
            + s[:, None] * (mesh.vertices[b] - mesh.vertices[a])[None, :]
        assert np.max(np.abs(tr[row, :, 0] - (xy[:, 0] ** 2 + xy[:, 1]))) <= 1e-13


def test_basal_coeff_on_edges(slab_spaces):
    f = field_from_callable(slab_spaces.coeff_basal, lambda x, y: 1.0 + x)
    vals = basal_coeff_on_edges(f)
    mesh = slab_spaces.mesh
    ends = mesh.vertices[mesh.boundary_edges[slab_spaces.basal_edge_indices], 0]
    s = slab_spaces.quadrature.edge_points
    xq = ends[:, :1] + s * (ends[:, 1:] - ends[:, :1])
    assert np.max(np.abs(vals - (1.0 + xq))) <= 1e-14


def unit_square_spaces():
    return pg.build_spaces(pg.generate_slab_mesh(1.0, 1.0, 4, 4))


def test_l2_norm_of_unit_field():
    spaces = unit_square_spaces()
    one = pg.constant_field(spaces.coeff_omega, 1.0)
    assert abs(norm(one, "L2") - 1.0) <= 1e-14


def test_v2_seminorm_of_linear_velocity():
    spaces = unit_square_spaces()
    v = field_from_callable(spaces.velocity, lambda x, y: (x, 0.0))
    assert abs(norm(v, "V2_seminorm") - 1.0) <= 1e-13


@pytest.mark.parametrize("which", ["velocity", "scalar", "basal"])
def test_h1_is_l2_plus_seminorm(slab_spaces, which):
    if which == "velocity":
        f = pg.Field(slab_spaces.velocity,
                     rng.standard_normal(slab_spaces.velocity.dof_count))
    elif which == "scalar":
        f = pg.Field(slab_spaces.coeff_omega,
                     rng.standard_normal(slab_spaces.coeff_omega.dof_count))
    else:
        f = pg.Field(slab_spaces.coeff_basal,
                     rng.standard_normal(slab_spaces.coeff_basal.dof_count))
    h1 = norm(f, "H1") ** 2
    parts = norm(f, "L2") ** 2 + norm(f, "V2_seminorm") ** 2
    assert abs(h1 - parts) <= 1e-12 * max(h1, 1.0)


def test_lr_norm_of_constant():
    spaces = unit_square_spaces()
    c = pg.constant_field(spaces.coeff_omega, 3.0)
    # |c|_Lr = c * area^(1/r) on the unit square
    assert abs(norm(c, "Lr_omega", r=3.0) - 3.0) <= 1e-12
    f = pg.constant_field(spaces.coeff_basal, 2.0)
    assert abs(norm(f, "Lr_basal", r=3.0) - 2.0) <= 1e-12


def test_lr_norm_requires_exponent(slab_spaces):
    c = pg.constant_field(slab_spaces.coeff_omega, 1.0)
    with pytest.raises(ValueError, match="exponent"):
        norm(c, "Lr_omega")


def test_unsupported_norm_pairing(slab_spaces):
    f = pg.constant_field(slab_spaces.coeff_basal, 1.0)
    with pytest.raises(ValueError, match="unsupported"):
        norm(f, "Lr_omega", r=2.0)


@pytest.fixture(scope="module")
def bedded_spaces():
    bed = lambda x: 0.08 * np.sin(np.pi * x)
    return pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 8, 4, bed_profile=bed))


@pytest.mark.parametrize("space,which", [
    (space, which)
    for space, lr in (("velocity", "Lr_omega"), ("coeff_omega", "Lr_omega"),
                      ("coeff_basal", "Lr_basal"))
    for which in ("L2", "V2_seminorm", "H1", lr)])
def test_norm_matches_quadrature_oracle(bedded_spaces, space, which):
    target = getattr(bedded_spaces, space)
    f = pg.Field(target, np.random.default_rng(7).standard_normal(target.dof_count))
    want = quadrature_norm(f, which, r=2.5)
    assert abs(norm(f, which, r=2.5) - want) <= 1e-12 * want


def test_v2_seminorm_of_constant_coefficient_is_clamped(bedded_spaces):
    # x.Kx of a field in the stiffness kernel keeps only about sqrt(eps)|x|
    # absolute accuracy and may round below zero; norm clamps it at 0.
    c = pg.constant_field(bedded_spaces.coeff_omega, 3.7)
    seminorm = norm(c, "V2_seminorm")
    assert np.isfinite(seminorm) and 0.0 <= seminorm <= 1e-6 * 3.7


# -- constraints -------------------------------------------------------


def test_constraint_kinds_on_flat_slab(slab_spaces):
    cons = slab_spaces.constraints
    mesh = slab_spaces.mesh
    coords = slab_spaces.node_coords
    on_side = np.isclose(coords[:, 0], 0.0) | np.isclose(coords[:, 0], 2.0)
    on_bottom = np.isclose(coords[:, 1], 0.0)
    # side nodes (including bottom corners) are fixed, bed interior slips
    assert np.all(cons.kinds[on_side] == int(NodeConstraint.FIXED))
    assert np.all(cons.kinds[on_bottom & ~on_side] == int(NodeConstraint.SLIP))
    assert np.all(cons.kinds[~on_side & ~on_bottom] == int(NodeConstraint.FREE))


def test_flat_bed_slip_is_vertical_dof(slab_spaces):
    # flat bed normal (0, -1): the constrained rotated dof is the y one
    cons = slab_spaces.constraints
    slip = np.flatnonzero(cons.kinds == int(NodeConstraint.SLIP))
    x = rng.standard_normal(slab_spaces.n_u)
    proj = project_velocity(slab_spaces, x)
    assert np.allclose(proj[2 * slip + 1], 0.0)
    assert np.allclose(proj[2 * slip], x[2 * slip])


def test_rotation_is_orthogonal(slab_spaces):
    R = slab_spaces.constraints.rotation
    eye = (R.T @ R).toarray()
    assert np.max(np.abs(eye - np.eye(R.shape[0]))) <= 1e-15


def test_apply_is_idempotent_and_satisfies(slab_spaces):
    cons = slab_spaces.constraints
    x = rng.standard_normal(slab_spaces.n_u)
    proj = project_velocity(slab_spaces, x)
    assert np.array_equal(project_velocity(slab_spaces, proj), proj)
    assert cons.satisfies(proj, tol=1e-14)
    assert not cons.satisfies(x + 1.0, tol=1e-14)


def test_reduce_expand_round_trip(slab_spaces):
    x = rng.standard_normal(slab_spaces.n_sys)
    y = slab_spaces.expand_vector(slab_spaces.reduce_vector(x))
    # expand(reduce(.)) projects onto the constraint set, idempotently
    z = slab_spaces.expand_vector(slab_spaces.reduce_vector(y))
    assert np.allclose(y, z, atol=1e-15)
    # pressure entries pass through untouched
    assert np.array_equal(y[slab_spaces.n_u:], x[slab_spaces.n_u:])


@pytest.fixture(scope="module")
def curved_bed_spaces():
    """8x4 slab on a sine bed: its slip tangents are off the axes."""
    bed = lambda x: 0.1 * np.sin(np.pi * x)
    return pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 8, 4,
                                                 bed_profile=bed))


def test_reduce_vector_equals_the_transposed_rotation_product(curved_bed_spaces):
    # the held R^T must give bit for bit what transposing R per call gave:
    # a rotated column has at most two entries, so no sum reorders
    spaces = curved_bed_spaces
    frame = spaces.reduced_frame()
    for _ in range(3):
        x = rng.standard_normal(spaces.n_sys)
        old = frame.rotation.T @ x
        old[frame.constrained] = 0.0
        assert np.array_equal(spaces.reduce_vector(x), old)


def test_velocity_reduction_reduces_each_column(curved_bed_spaces):
    spaces = curved_bed_spaces
    M = rng.standard_normal((spaces.n_u, 3))
    reduced = spaces.velocity_reduction() @ M
    pad = np.zeros(spaces.n_sys - spaces.n_u)
    for k in range(3):
        want = spaces.reduce_vector(np.concatenate([M[:, k], pad]))
        assert np.allclose(reduced[:, k], want, rtol=0.0, atol=1e-15)
    assert spaces.velocity_reduction() is spaces.velocity_reduction()


def test_slip_normals_on_curved_bed():
    bed = lambda x: 0.1 * np.sin(np.pi * x)
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 8, 4,
                                                   bed_profile=bed))
    cons = spaces.constraints
    slip = np.flatnonzero(cons.kinds == int(NodeConstraint.SLIP))
    for k in slip:
        n = cons.normals[k]
        t = cons.tangents[k]
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-14
        assert abs(np.dot(n, t)) <= 1e-15
        assert n[1] < 0.0  # outward through the bed


def test_cancelling_bed_normals_name_the_vertex():
    # the slit's tip used to get a NaN normal (a RuntimeWarning only) and
    # the forward solve then failed with a singular factorization
    with pytest.raises(MeshError, match="vertex 4 cancels to zero"):
        pg.build_spaces(slit_bed_mesh())


def test_basal_chain_is_x_sorted(slab_spaces):
    xs = slab_spaces.coeff_basal.basal_coords[:, 0]
    assert np.all(np.diff(xs) > 0.0)
    assert slab_spaces.coeff_basal.dof_count == 9


def test_field_shape_validation(slab_spaces):
    with pytest.raises(ValueError, match="values"):
        pg.Field(slab_spaces.coeff_omega, np.zeros(7))
