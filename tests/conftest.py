"""Shared fixtures: meshes, parameter sets and solved states.

Session-scoped fixtures are treated as read-only by every test; states
that tests mutate (inversion states, gradient caches) are built inside
the tests themselves.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import pglacier as pg
from pglacier import inversion
from pglacier.assembly import (AssembledSystem, _bed_kernel, _check_args,
                               _derivative_factors, _pair_trace,
                               _coupling_blocks, assemble_coeff_jacobian)
from pglacier.forward import SolverConfig
from pglacier.spaces import (SpaceKind, basal_coeff_on_edges,
                             p2_reference_gradients, point_scalar_values,
                             point_velocity_gradients, point_velocity_values)
from pglacier.tensor_ops import (PhysicsParams, monotonicity_witness, s_gamma,
                                 s_gamma_prime_apply, s_omega,
                                 s_omega_prime_apply)
from pglacier.verify import (_EPS, _SAMPLE_BLOCK, DEFAULT_DELTA_VALUES,
                             DEFAULT_P_VALUES, DEFAULT_PRIME_DELTA_VALUES,
                             CheckResult, _sample_pairs)


def pytest_configure(config):
    config.acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

# Purely vertical gravity on a flat slab is balanced by hydrostatic
# pressure (v = 0 exactly), so sensitivity and identification tests use
# a tilted load that actually drives a flow.
TILTED_FORCE = (0.5, -1.0)


def truth_rheology(spaces):
    # smooth profile inside [0.5, 2]
    return pg.field_from_callable(
        spaces.coeff_omega, lambda x, y: 1.25 + 0.75 * np.sin(np.pi * x))


def truth_friction(spaces):
    # smooth profile inside [0.1, 0.9]
    return pg.field_from_callable(
        spaces.coeff_basal, lambda x, y: 0.5 + 0.4 * np.cos(np.pi * x))


def raise_trial_costs(monkeypatch, trials):
    """Patch ``inversion.make_state`` so that the line-search trials
    numbered in ``trials`` (trial 1 is the call after the starting
    state's) return a cost 1 above their own, which the line search
    rejects.  Returns the list of calls, failed ones included."""
    calls = []
    original = inversion.make_state

    def make_state(*args, **kwargs):
        calls.append(args)
        state = original(*args, **kwargs)
        if len(calls) - 1 in trials:
            state.cost = replace(state.cost, total=state.cost.total + 1.0)
        return state

    monkeypatch.setattr(inversion, "make_state", make_state)
    return calls


def slit_bed_mesh():
    """Unit-height slab on [0, 2] with a slit up the bed from (1, 0) to the
    tip vertex 4 at (1, 0.5): the slit's two lips are bed edges with
    opposite outward normals, so the averaged bed normal at the tip is
    zero.  Vertices 1 and 2 are the two copies of (1, 0)."""
    B, D, A = (int(pg.BoundaryTag.BASAL), int(pg.BoundaryTag.DIRICHLET),
               int(pg.BoundaryTag.ATMOSPHERE))
    vertices = [(0, 0), (1, 0), (1, 0), (2, 0), (1, 0.5), (0, 1), (1, 1), (2, 1)]
    triangles = [(0, 1, 4), (0, 4, 5), (4, 6, 5), (2, 3, 4), (3, 7, 4), (4, 7, 6)]
    edges = [(0, 1), (1, 4), (4, 2), (2, 3), (3, 7), (7, 6), (6, 5), (5, 0)]
    return pg.Mesh(np.array(vertices, dtype=float), np.array(triangles),
                   np.array(edges), np.array([B, B, B, B, D, A, A, D]),
                   np.array([False] * 5 + [True, True, False]))


def jittered_file_mesh(directory):
    """A bedded 8x4 slab whose interior vertices move by up to a quarter
    cell (fixed seed), written to a mesh file and read back."""
    mesh = pg.generate_slab_mesh(2.0, 1.0, 8, 4,
                                 bed_profile=lambda x: 0.05 * np.sin(np.pi * x))
    h = np.array([2.0 / 8, 0.95 / 4])
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.boundary_edges.ravel()] = False
    vertices = mesh.vertices.copy()
    shift = np.random.default_rng(0).uniform(-0.25, 0.25, vertices.shape) * h
    vertices[interior] += shift[interior]
    path = directory / "jittered.pgmesh"
    pg.save_mesh(pg.Mesh(vertices, mesh.triangles, mesh.boundary_edges,
                         mesh.boundary_tags, mesh.observed), path)
    return pg.load_mesh(path)


@pytest.fixture(scope="session")
def slab_spaces():
    """8x4 slab on [0, 2] x [0, 1], full surface observed."""
    return pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 8, 4))


@pytest.fixture(scope="session")
def fine_spaces():
    """16x8 slab used by the acceptance-scale runs."""
    return pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 16, 8))


@pytest.fixture(scope="session")
def tilted_params():
    return pg.PhysicsParams(body_force=TILTED_FORCE)


@pytest.fixture(scope="session")
def tight_solver():
    return SolverConfig(newton_rtol=1e-12, newton_atol=1e-13)


@pytest.fixture(scope="session")
def base_coeffs(slab_spaces):
    return (pg.constant_field(slab_spaces.coeff_omega, 1.0),
            pg.constant_field(slab_spaces.coeff_basal, 0.5))


@pytest.fixture(scope="session")
def base_solution(slab_spaces, tilted_params, tight_solver, base_coeffs):
    rheology, friction = base_coeffs
    solution = pg.solve_forward(rheology, friction, tilted_params, tight_solver)
    assert solution.report.converged
    return solution


@pytest.fixture(scope="session")
def twin_obs(slab_spaces, tilted_params, tight_solver):
    """Noiseless observations from the smooth truth pair on the 8x4 slab."""
    return pg.make_twin_data(truth_rheology(slab_spaces),
                             truth_friction(slab_spaces), tilted_params,
                             solver_config=tight_solver)


def physical_gradients(spaces):
    """Physical gradients of the quadratic basis at the quadrature points,
    shape (nt, nq, 6, 2): entry [t, q, a, i] is dN_a/dx_i, built from
    the reference gradients and the inverse transposes ``inv_t``."""
    ref = p2_reference_gradients(spaces.quadrature.tri_points)
    return np.einsum("ijt,qaj->tqai", spaces.inv_t, ref)


# Constant maps on 2x2 gradients, axes (j, c, l, d): the identity
# delta_cd delta_jl and the transposition delta_cl delta_jd.
_SAME = np.einsum("jl,cd->jcld", np.eye(2), np.eye(2))
_SWAP = np.einsum("cl,jd->jcld", np.eye(2), np.eye(2))


def pair_trial_gradients(spaces, kernel):
    """Element blocks of the integral of dN_a/dx_j kernel[j, c, l, d]
    dN_b/dx_l, triangle by triangle with physical gradients, axes (t, a,
    c, d, b); ``kernel`` (nt, nq, 2, 2, 2, 2) maps the gradient of trial
    function N_b e_d (derivative l of component d) to a flux (component
    c along x_j) at every point."""
    grads = physical_gradients(spaces)
    weights = spaces.quadrature.tri_weights[None, :] * spaces.det[:, None]
    return np.einsum("tq,tqaj,tqjcld,tqbl->tacdb", weights, grads, kernel, grads,
                     optimize=True)


def derivative_kernel_operator(velocity, rheology, friction, params):
    """Operator of the dual (adjoint) problem at the given state.

    Assembled independently of :func:`assemble_jacobian` by building the
    derivative-kernel image of each trial function and contracting it
    with the full (unsymmetrized) test gradient, triangle by triangle;
    since the image is a symmetric matrix the result equals the Jacobian
    entrywise up to rounding, and tests assert that equality.
    """
    spaces = _check_args(velocity, rheology, friction)
    # the strain U and bed trace u come scaled by the kernels' pass, with
    # the derivative factors that go with them: S'(E) T = c1 (U : T) U + c2 T
    strain, bc1, bc2, v, tg1, tg2 = _derivative_factors(
        velocity, rheology, friction, params)
    # per-point arrays with axes (t, q, ...)
    strain, bc1, bc2 = strain.transpose(3, 0, 1, 2), bc1.T, bc2.T
    nt, nq = strain.shape[:2]
    # symmetric part T of a trial gradient H, T_jc = sym[j, c, l, d] H_dl
    sym = 0.5 * (_SAME + _SWAP)
    # image B (c1 (U : T) U + c2 T) + mu0 H, with U : T = (U : sym)_ld H_dl
    U_sym = np.matmul(strain.reshape(nt, nq, 4), sym.reshape(4, 4)).reshape(nt, nq, 2, 2)
    point = (slice(None), slice(None)) + (None,) * 4
    image = bc1[point] * strain[:, :, :, :, None, None] * U_sym[:, :, None, None] \
        + bc2[point] * sym + params.mu0 * _SAME
    # bed: image tau s'(v) of trial N_b e_d, on the scaled trace u, axes
    # (k, m, b, d, c)
    tv = spaces.edge_trace_vals
    bed_image = tv[None, :, :, None, None] * _bed_kernel(v, tg1, tg2)[:, :, None, :, :]
    return AssembledSystem(
        spaces, pair_trial_gradients(spaces, image).transpose(1, 4, 2, 3, 0),
        _pair_trace(spaces, spaces.basal_edge_indices,
                    np.moveaxis(bed_image, 4, 2), tv))


def full_operator(system):
    """The saddle operator [[K, C], [C^T, 0]] of an :class:`AssembledSystem`
    at plain dofs, CSR: its element blocks and the coupling blocks, as C
    and as C^T, summed by one COO conversion, independent of every slot
    map."""
    spaces = system.spaces
    nt = spaces.mesh.num_triangles
    dofs = spaces.tri_vel_dofs.T.reshape(6, 2, nt)                # (a, c, t)
    shape = (6, 6, 2, 2, nt)
    bed = spaces.trace_dofs(spaces.basal_edge_indices).reshape(-1, 3, 2)
    bed_shape = bed.shape + (3, 2)
    # coupling blocks (a, c, k, t): velocity dof against pressure dof
    c_shape = (6, 2, 3, nt)
    c_vel = np.broadcast_to(dofs[:, :, None], c_shape).ravel()
    c_pres = np.broadcast_to(spaces.n_u + spaces.mesh.triangles.T, c_shape).ravel()
    c_data = _coupling_blocks(spaces).ravel()
    rows = np.concatenate([
        np.broadcast_to(dofs[:, None, :, None], shape).ravel(),
        np.broadcast_to(bed[:, :, :, None, None], bed_shape).ravel(),
        c_vel, c_pres])
    cols = np.concatenate([
        np.broadcast_to(dofs[None, :, None, :], shape).ravel(),
        np.broadcast_to(bed[:, None, None], bed_shape).ravel(),
        c_pres, c_vel])
    values = np.concatenate([system.blocks.ravel(), system.bed_blocks.ravel(),
                             c_data, c_data])
    return sp.coo_matrix((values, (rows, cols)), shape=(spaces.n_sys,) * 2).tocsr()


def coeff_derivative(velocity, rheology_dir, friction_dir, params):
    """Dual vector (length n_sys) of the operator derivative along the
    coefficient directions: the constraint projection of ``G d`` for the
    coefficient Jacobian G, with zero pressure-test entries."""
    spaces = velocity.space.parent
    out = np.zeros(spaces.n_sys)
    out[:spaces.n_u] = assemble_coeff_jacobian(velocity, params) @ np.concatenate(
        [rheology_dir.values, friction_dir.values])
    return spaces.project_dual(out)


def coeff_gradient_duals(velocity, adjoint, params):
    """The vertex and bed parts of ``G.T @ adjoint.values`` for the
    coefficient Jacobian G: the cost gradient's data terms."""
    g = assemble_coeff_jacobian(velocity, params).T @ adjoint.values
    nv = velocity.space.mesh.num_vertices
    return g[:nv], g[nv:]


def _frob(P):
    return np.sqrt((P ** 2).sum(axis=(-2, -1)))


def reference_pointwise_suite(samples=100000, p_values=DEFAULT_P_VALUES,
                              delta_values=DEFAULT_DELTA_VALUES,
                              prime_delta_values=DEFAULT_PRIME_DELTA_VALUES,
                              seed=0):
    """Kernel inequality sweep written check by check, each kernel
    evaluated afresh inside every check and the matrix and vector laws
    spelled out separately.  The independent oracle of
    :func:`pglacier.verify.pointwise_suite`, which must return the same
    CheckResults.  The samples are drawn as the sweep draws them, block
    k of ``_SAMPLE_BLOCK`` from ``default_rng([seed, k])``, and checked
    all at once."""
    for d in prime_delta_values:
        if d <= 0.0:
            raise ValueError("derivative-kernel checks need delta > 0; "
                             "remove %r from the delta sweep" % (d,))
    blocks = [_sample_pairs(np.random.default_rng([seed, k]),
                            min(_SAMPLE_BLOCK, samples - lo))
              for k, lo in enumerate(range(0, samples, _SAMPLE_BLOCK))]
    P, Q, W, u, v, w = (np.concatenate(draw) for draw in zip(*blocks))
    results = []

    # (a) |S(P)| <= |P|^(p-1), matrix and vector kernels.
    worst = 0.0
    ok = True
    for pv in p_values:
        for dv in delta_values:
            params = PhysicsParams(p=pv, delta=dv)
            lhs = _frob(s_omega(P, params))
            rhs = _frob(P) ** (pv - 1.0)
            ok &= bool(np.all(lhs <= rhs * (1.0 + _EPS)))
            worst = max(worst, float((lhs / rhs).max()))
            lhs_v = np.linalg.norm(s_gamma(u, params), axis=-1)
            rhs_v = np.linalg.norm(u, axis=-1) ** (pv - 1.0)
            ok &= bool(np.all(lhs_v <= rhs_v * (1.0 + _EPS)))
            worst = max(worst, float((lhs_v / rhs_v).max()))
    results.append(CheckResult("kernel norm bound |S(P)| <= |P|^(p-1)", ok,
                               "max ratio %.15g" % worst))

    # (b) strict monotonicity and (c) the two-sided ratio constants.
    mono_ok = True
    ratio_min = np.inf
    lip_max = 0.0
    for pv in p_values:
        for dv in delta_values:
            params = PhysicsParams(p=pv, delta=dv)
            wit = monotonicity_witness(P, Q, params)
            mono_ok &= bool(np.all(wit["lhs"] > 0.0))
            ratio_min = min(ratio_min, float(np.nanmin(wit["ratio"])))
            base = dv + _frob(P) + _frob(Q)
            lip = _frob(s_omega(P, params) - s_omega(Q, params)) \
                / (base ** (pv - 2.0) * _frob(P - Q))
            lip_max = max(lip_max, float(lip.max()))
            dvec = np.linalg.norm(u - v, axis=-1)
            base_v = dv + np.linalg.norm(u, axis=-1) + np.linalg.norm(v, axis=-1)
            lhs_v = ((s_gamma(u, params) - s_gamma(v, params)) * (u - v)).sum(axis=-1)
            mono_ok &= bool(np.all(lhs_v > 0.0))
            lip_v = np.linalg.norm(s_gamma(u, params) - s_gamma(v, params),
                                   axis=-1) / (base_v ** (pv - 2.0) * dvec)
            lip_max = max(lip_max, float(lip_v.max()))
    results.append(CheckResult("strict monotonicity (S(P)-S(Q)):(P-Q) > 0",
                               mono_ok, "min scaled ratio %.15g" % ratio_min))
    results.append(CheckResult("Lipschitz ratio (fitted constant < 10)",
                               bool(lip_max < 10.0),
                               "fitted C = %.15g" % lip_max))

    # (d) derivative coercivity, delta > 0 only.
    coer_ok = True
    margin_min = np.inf
    for pv in p_values:
        for dv in prime_delta_values:
            params = PhysicsParams(p=pv, delta=dv)
            form = (s_omega_prime_apply(P, W, params) * W).sum(axis=(-2, -1))
            scale = ((P ** 2).sum(axis=(-2, -1)) + dv ** 2) ** ((pv - 2.0) / 2.0) \
                * (W ** 2).sum(axis=(-2, -1))
            bound = (pv - 1.0) * scale
            coer_ok &= bool(np.all(form >= bound - _EPS * scale))
            margin_min = min(margin_min, float((form / scale).min() - (pv - 1.0)))
            form_v = (s_gamma_prime_apply(u, w, params) * w).sum(axis=-1)
            scale_v = ((u ** 2).sum(axis=-1) + dv ** 2) ** ((pv - 2.0) / 2.0) \
                * (w ** 2).sum(axis=-1)
            coer_ok &= bool(np.all(form_v >= (pv - 1.0) * scale_v - _EPS * scale_v))
            margin_min = min(margin_min,
                             float((form_v / scale_v).min() - (pv - 1.0)))
    results.append(CheckResult("derivative coercivity >= (p-1) scale",
                               coer_ok, "min margin %.3g" % margin_min))
    return results


def quadrature_norm(field, which, r=None):
    """Norm of a field integrated point by point with the quadrature
    rule, every (space, norm) pairing spelled out: the independent
    oracle of :func:`pglacier.assembly.norm` and of the Gram matrices
    behind it."""
    kind = field.space.kind
    spaces = field.space.parent
    q = spaces.quadrature

    def omega(pointwise):
        return float(np.einsum("q,t,tq->", q.tri_weights, spaces.det, pointwise))

    def bed(pointwise):
        lengths = spaces.bedge_lengths[spaces.basal_edge_indices]
        return float(np.einsum("m,k,km->", q.edge_weights, lengths, pointwise))

    if which in ("Lr_omega", "Lr_basal"):
        if r is None or r < 1:
            raise ValueError("Lr norm needs an exponent r >= 1")
    if kind is SpaceKind.VELOCITY_P2_VEC:
        v = point_velocity_values(field).transpose(2, 0, 1)
        g = point_velocity_gradients(field).transpose(3, 0, 1, 2)
        if which == "L2":
            return float(np.sqrt(omega((v ** 2).sum(axis=2))))
        if which == "V2_seminorm":
            return float(np.sqrt(omega((g ** 2).sum(axis=(2, 3)))))
        if which == "H1":
            return float(np.sqrt(omega((v ** 2).sum(axis=2) + (g ** 2).sum(axis=(2, 3)))))
        if which == "Lr_omega":
            return omega(np.sqrt((v ** 2).sum(axis=2)) ** r) ** (1.0 / r)
    elif kind in (SpaceKind.PRESSURE_P1, SpaceKind.COEFF_OMEGA_P1):
        v = point_scalar_values(field).T
        g = np.einsum("tk,tki->ti", field.values[spaces.mesh.triangles],
                      spaces.p1_grads)
        g2 = np.broadcast_to(((g ** 2).sum(axis=1))[:, None], v.shape)
        if which == "L2":
            return float(np.sqrt(omega(v ** 2)))
        if which == "V2_seminorm":
            return float(np.sqrt(omega(g2)))
        if which == "H1":
            return float(np.sqrt(omega(v ** 2 + g2)))
        if which == "Lr_omega":
            return omega(np.abs(v) ** r) ** (1.0 / r)
    elif kind is SpaceKind.COEFF_BASAL_P1:
        vals = basal_coeff_on_edges(field)
        lengths = spaces.bedge_lengths[spaces.basal_edge_indices]
        ends = field.values[spaces.basal_edge_dofs]
        slope2 = float((((ends[:, 1] - ends[:, 0]) / lengths) ** 2 * lengths).sum())
        if which == "L2":
            return float(np.sqrt(bed(vals ** 2)))
        if which == "V2_seminorm":
            return float(np.sqrt(slope2))
        if which == "H1":
            return float(np.sqrt(bed(vals ** 2) + slope2))
        if which == "Lr_basal":
            return bed(np.abs(vals) ** r) ** (1.0 / r)
    raise ValueError("norm %r unsupported for space %s" % (which, kind.value))
