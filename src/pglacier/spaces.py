"""Taylor-Hood and coefficient spaces on tagged triangle meshes.

Velocity lives in the quadratic vector element (dofs at vertices and
edge midpoints), pressure and the distributed rheology coefficient in
the linear element on vertices, and the friction coefficient in the
linear element on the bed chain vertices.

Velocity constraints are strong: every dof on a dirichlet edge is fixed
to zero, and on the bed the normal component vanishes.  Bed constraints
are installed by rotating the dof pair at each bed node into a local
tangent/normal frame; midpoint nodes use the exact edge normal, vertices
the unit-normalized sum of adjacent bed edge normals.  Dirichlet wins at
corners shared with the bed, the bed wins over the free surface.  The
reduced saddle system numbers these rotated dofs node by node, in the
fill-reducing order its LUs use (:class:`ReducedFrame`).

Quadrature weights are applied only in :mod:`pglacier.assembly`, which
also holds the Gram matrices and norms of these spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import BoundaryTag, Mesh, MeshError, boundary_frames


class SpaceKind(Enum):
    VELOCITY_P2_VEC = "velocity_p2_vec"
    PRESSURE_P1 = "pressure_p1"
    COEFF_OMEGA_P1 = "coeff_omega_p1"
    COEFF_BASAL_P1 = "coeff_basal_p1"


class NodeConstraint(IntEnum):
    FREE = 0
    FIXED = 1
    SLIP = 2


@dataclass(frozen=True)
class Quadrature:
    """Fixed quadrature rules on the reference triangle and edge.

    Triangle weights sum to the reference area 1/2 and the rule is exact
    for polynomials of degree 4; edge weights sum to 1 on [0, 1].
    """

    tri_points: np.ndarray
    tri_weights: np.ndarray
    edge_points: np.ndarray
    edge_weights: np.ndarray


def default_quadrature():
    """Degree-4 six-point triangle rule and 3-point Gauss edge rule."""
    a1, b1, w1 = 0.445948490915965, 0.108103018168070, 0.223381589678011
    a2, b2, w2 = 0.091576213509771, 0.816847572980459, 0.109951743655322
    bary = np.array([
        [b1, a1, a1], [a1, b1, a1], [a1, a1, b1],
        [b2, a2, a2], [a2, b2, a2], [a2, a2, b2],
    ])
    tri_points = bary[:, 1:]                  # reference coords (xi, eta)
    tri_weights = 0.5 * np.array([w1, w1, w1, w2, w2, w2])
    g = 0.5 * np.sqrt(3.0 / 5.0)
    edge_points = np.array([0.5 - g, 0.5, 0.5 + g])
    edge_weights = np.array([5.0, 8.0, 5.0]) / 18.0
    return Quadrature(tri_points, tri_weights, edge_points, edge_weights)


def p2_values(points):
    """Quadratic basis values at reference points, shape (nq, 6).

    Basis order: three vertex functions, then midpoints of local edges
    (0,1), (1,2), (2,0).
    """
    xi, eta = points[:, 0], points[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    vals = np.empty((points.shape[0], 6))
    for k in range(3):
        vals[:, k] = lam[:, k] * (2.0 * lam[:, k] - 1.0)
    vals[:, 3] = 4.0 * lam[:, 0] * lam[:, 1]
    vals[:, 4] = 4.0 * lam[:, 1] * lam[:, 2]
    vals[:, 5] = 4.0 * lam[:, 2] * lam[:, 0]
    return vals


def p2_reference_gradients(points):
    """Quadratic basis gradients at reference points, shape (nq, 6, 2)."""
    xi, eta = points[:, 0], points[:, 1]
    lam = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = np.empty((points.shape[0], 6, 2))
    for k in range(3):
        grads[:, k, :] = (4.0 * lam[:, k] - 1.0)[:, None] * dlam[k]
    pairs = ((3, 0, 1), (4, 1, 2), (5, 2, 0))
    for slot, a, b in pairs:
        grads[:, slot, :] = 4.0 * (lam[:, a][:, None] * dlam[b] + lam[:, b][:, None] * dlam[a])
    return grads


def p1_values(points):
    """Linear basis values at reference points, shape (nq, 3)."""
    xi, eta = points[:, 0], points[:, 1]
    return np.stack([1.0 - xi - eta, xi, eta], axis=1)


def p2_edge_trace(s):
    """1D quadratic basis on an edge at parameters s, shape (m, 3).

    Column order: endpoint at s = 0, endpoint at s = 1, midpoint.
    """
    s = np.asarray(s)
    return np.stack([(1.0 - s) * (1.0 - 2.0 * s), s * (2.0 * s - 1.0),
                     4.0 * s * (1.0 - s)], axis=1)


@dataclass
class FunctionSpace:
    """One discrete space tied to a mesh.

    ``dof_count`` counts unconstrained dofs; constraints are tracked on
    the parent bundle and never reduce this number.
    """

    kind: SpaceKind
    mesh: Mesh
    dof_count: int
    parent: "Spaces" = field(default=None, repr=False)
    # velocity only
    node_coords: np.ndarray = field(default=None, repr=False)
    # basal coefficient only
    basal_vertices: np.ndarray = field(default=None, repr=False)
    basal_coords: np.ndarray = field(default=None, repr=False)


@dataclass
class Field:
    """Coefficient vector in one function space."""

    space: FunctionSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.space.dof_count,):
            raise ValueError("field has %d values, space %s needs %d"
                             % (self.values.size, self.space.kind.value,
                                self.space.dof_count))


def zero_field(space):
    return Field(space, np.zeros(space.dof_count))


def constant_field(space, value):
    return Field(space, np.full(space.dof_count, float(value)))


def field_from_callable(space, fn):
    """Interpolate ``fn`` at the dof locations of ``space``.

    Velocity takes ``fn(x, y) -> (vx, vy)``; scalar spaces take
    ``fn(x, y) -> value``.
    """
    if space.kind is SpaceKind.VELOCITY_P2_VEC:
        vals = np.array([fn(x, y) for x, y in space.node_coords], dtype=np.float64)
        return Field(space, vals.reshape(-1))
    if space.kind in (SpaceKind.PRESSURE_P1, SpaceKind.COEFF_OMEGA_P1):
        vals = np.array([fn(x, y) for x, y in space.mesh.vertices], dtype=np.float64)
        return Field(space, vals)
    vals = np.array([fn(x, y) for x, y in space.basal_coords], dtype=np.float64)
    return Field(space, vals)


@dataclass
class VelocityConstraints:
    """Strong constraints on the quadratic velocity space.

    ``rotation`` is orthogonal: identity except 2x2 blocks [t | n] at
    slip nodes, so rotated dof 2k holds the tangential and 2k + 1 the
    normal component.  ``constrained`` marks rotated dofs eliminated to
    zero (both components of fixed nodes, normal components of slip
    nodes).
    """

    kinds: np.ndarray
    normals: np.ndarray
    tangents: np.ndarray
    rotation: sp.csr_matrix
    constrained: np.ndarray

    def satisfies(self, values, tol=0.0):
        rotated = self.rotation.T @ values
        return np.all(np.abs(rotated[self.constrained]) <= tol)


def _build_constraints(mesh, n_nodes, bedge_nodes, edge_normals):
    """Constraint set from the boundary tags; ``bedge_nodes`` holds the
    P2 node triple and ``edge_normals`` the outward normal of every
    boundary edge."""
    n_vertices = mesh.num_vertices
    fixed, slip = int(NodeConstraint.FIXED), int(NodeConstraint.SLIP)
    kinds = np.zeros(n_nodes, dtype=np.int8)
    normals = np.zeros((n_nodes, 2))
    tangents = np.zeros((n_nodes, 2))

    kinds[bedge_nodes[mesh.edges_with_tag(BoundaryTag.DIRICHLET)].ravel()] = fixed
    basal = mesh.edges_with_tag(BoundaryTag.BASAL)
    bed_nodes = bedge_nodes[basal]
    on_bed = np.zeros(n_nodes, dtype=bool)
    on_bed[bed_nodes.ravel()] = True
    kinds[on_bed & (kinds != fixed)] = slip      # dirichlet wins at shared corners

    # Vertex normals on the bed: unit-normalized sum over adjacent bed
    # edges; midpoint nodes take the exact edge normal.
    ends = bed_nodes[:, :2].ravel()
    node_normals = np.zeros((n_nodes, 2))
    for c in range(2):
        node_normals[:n_vertices, c] = np.bincount(
            ends, weights=np.repeat(edge_normals[basal, c], 2), minlength=n_vertices)
    node_normals[bed_nodes[:, 2]] = edge_normals[basal]
    slip_nodes = np.flatnonzero(kinds == slip)
    normals[slip_nodes] = node_normals[slip_nodes]
    verts = slip_nodes[slip_nodes < n_vertices]
    lengths = np.hypot(normals[verts, 0], normals[verts, 1])
    cancelled = verts[lengths == 0.0]
    if cancelled.size:
        raise MeshError("averaged bed normal at vertex %d cancels to zero"
                        % cancelled[0])
    normals[verts] /= lengths[:, None]
    tangents[slip_nodes, 0] = -normals[slip_nodes, 1]
    tangents[slip_nodes, 1] = normals[slip_nodes, 0]

    # Rotation: identity on free and fixed nodes, [t | n] at slip nodes.
    plain = np.flatnonzero(kinds != slip)
    t, n = tangents[slip_nodes], normals[slip_nodes]
    s0, s1 = 2 * slip_nodes, 2 * slip_nodes + 1
    rows = np.concatenate([2 * plain, 2 * plain + 1, s0, s1, s0, s1])
    cols = np.concatenate([2 * plain, 2 * plain + 1, s0, s0, s1, s1])
    data = np.concatenate([np.ones(2 * plain.size), t[:, 0], t[:, 1], n[:, 0], n[:, 1]])
    rotation = sp.csr_matrix((data, (rows, cols)), shape=(2 * n_nodes, 2 * n_nodes))
    constrained = np.zeros((n_nodes, 2), dtype=bool)
    constrained[kinds == fixed] = True
    constrained[slip_nodes, 1] = True
    return VelocityConstraints(kinds, normals, tangents, rotation, constrained.ravel())


def _adjacency(rows, cols, n_rows, n_cols):
    """Unique (row, col) pairs of two broadcast index arrays, sorted by
    row then column.  Returns their rows and columns, the pair count per
    row and the pair of every input entry."""
    keys, inverse = np.unique((rows * n_cols + cols).ravel(), return_inverse=True)
    row, col = keys // n_cols, keys % n_cols
    return (row, col, np.bincount(row, minlength=n_rows),
            inverse.reshape(np.broadcast(rows, cols).shape))


def _frozen(index):
    """``index`` as a read-only int32 array, shared by every matrix built
    on a per-mesh pattern."""
    index = index.astype(np.int32, copy=False)
    index.flags.writeable = False
    return index


@dataclass(frozen=True)
class ReducedFrame:
    """The reduced frame of the saddle system on one mesh: the numbering,
    rotation and constraint elimination shared by every reduced vector,
    reduced operator and saddle LU.

    Reduced dofs run node by node, in a minimum-degree order of the P2
    node graph (nodes that share a triangle): each node's two velocity
    dofs, in the tangent/normal frame at slip nodes, then its pressure
    dof if the node is a vertex.  A saddle LU factors the reduced
    operator in this order as it stands, so each zero pressure diagonal
    is reached after pivots on velocity dofs that couple to it, which a
    dof-by-dof order cannot arrange, as it does not see that diagonal.

    ``rotation`` R is orthogonal and maps reduced coordinates to plain
    system ones (x = R x_hat); ``rotation_t`` is R^T as its own CSR
    matrix, as transposing R per call would build a new matrix each
    time.  ``constrained`` marks the reduced dofs eliminated to zero
    (both components of fixed nodes, the normal component of slip
    nodes).  ``indptr`` and ``indices`` are the CSC pattern of the
    eliminated operator: the entries whose row and column are both free,
    and a unit diagonal in the constrained ones, at ``unit_slots``.

    Operators are scattered into that pattern straight from their
    element blocks.  Every plain dof feeds at most one free reduced dof:
    its own with weight 1, the tangential dof of its slip node with
    weight t_c, or none at a fixed node.  So each block entry has one
    slot, or the dump slot nnz past the data in a fixed node's row or
    column, and the weight w_row w_col, and one keyed pass over the
    entries gives the pattern and every slot (:func:`_reduced_frame`).
    A slot map is the tuple (slots, scaled, targets, index, weights):
    the int32 slot of every entry, the dump for those whose weight is
    not 1; the positions of those entries; the slots that they and the
    map's extra entries reach, each once; the place in ``targets`` of
    each of them; and their weights.  ``jacobian`` maps the velocity
    blocks (axes a, b, c, d, t), with the bed blocks (axes k, a, c, b,
    d) as its extra entries; ``coupling`` maps the coupling blocks (axes
    a, c, k, t: velocity node a and component c, vertex k of triangle
    t) twice over, keyed as C and then as C^T.  The weighted sums are
    added after the plain ones, as bed terms after volume terms, so on
    a flat bed, whose weights are 0 and 1, every sum rounds as if the
    plain operator were summed first and rotated after.  The index
    arrays are read-only and shared by every reduced operator.
    """

    rotation: sp.csr_matrix
    rotation_t: sp.csr_matrix
    constrained: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    unit_slots: np.ndarray
    jacobian: tuple
    coupling: tuple

    def scatter(self, slot_map, values, extra=np.zeros(0)):
        """Reduced data summing the entries ``values`` of ``slot_map``
        (``jacobian`` or ``coupling``) and its ``extra`` entries."""
        slots, scaled, targets, index, weights = slot_map
        if values.size != slots.size:
            raise ValueError("%d entries for a slot map of %d on this mesh"
                             % (values.size, slots.size))
        data = np.bincount(slots, weights=values, minlength=self.indices.size + 1)
        weighted = np.concatenate([values[scaled], extra]) * weights
        data[targets] += np.bincount(index, weights=weighted, minlength=targets.size)
        return data[:-1]


def _node_order(spaces):
    """Minimum-degree order of the P2 node graph.

    SciPy has no ordering-only call: an incomplete LU that drops every
    off-diagonal entry of a diagonally dominant matrix on the graph runs
    SuperLU's MMD on A + A^T at little factoring cost, and ``perm_c``
    sends each node to its position.
    """
    nodes, nn = spaces.tri_p2_nodes, spaces.n_vnodes
    row, col, count, _ = _adjacency(nodes[:, :, None], nodes[:, None, :], nn, nn)
    graph = sp.csc_matrix((np.where(row == col, count[row], -1.0), col,
                           np.concatenate([[0], np.cumsum(count)])), shape=(nn, nn))
    lu = spla.spilu(graph, permc_spec="MMD_AT_PLUS_A", drop_tol=np.inf,
                    fill_factor=1.0)
    return np.argsort(lu.perm_c)


def _reduced_frame(spaces):
    """:class:`ReducedFrame` of ``spaces``: the node order expanded to
    dofs, the rotation and constraints renumbered by it, and the
    eliminated pattern and slot maps in that numbering, from one unique
    over the keys of the element entries."""
    nv, nn, n = spaces.mesh.num_vertices, spaces.n_vnodes, spaces.n_sys
    node_dofs = np.full((nn, 3), -1)
    node_dofs[:, 0] = 2 * np.arange(nn)
    node_dofs[:, 1] = node_dofs[:, 0] + 1
    node_dofs[:nv, 2] = spaces.n_u + np.arange(nv)
    order = node_dofs[_node_order(spaces)].ravel()
    order = order[order >= 0]
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)

    # The plain rotation R0 and constraint mask, in system dof numbering;
    # reduced dof k is dof order[k] of R0's frame.
    plain = sp.block_diag([spaces.constraints.rotation, sp.identity(nv)],
                          format="coo")
    rotation = sp.csr_matrix((plain.data, (plain.row, position[plain.col])),
                             shape=(n, n))
    constrained = np.concatenate([spaces.constraints.constrained,
                                  np.zeros(nv, dtype=bool)])

    # Elimination keeps the entries whose row and column are both free
    # and gives each constrained dof its unit diagonal.  Each entry is
    # keyed by the free reduced (column, row) that its plain dofs feed,
    # or by the dump key n^2 in a fixed node's row or column: one unique
    # over the keys is the CSC pattern, sorted by column then row, and
    # its inverse the slot of every entry, nnz for the dump.
    cons, n_u, nt = spaces.constraints, spaces.n_u, spaces.mesh.num_triangles
    slip = np.flatnonzero(cons.kinds == int(NodeConstraint.SLIP))
    fixed = np.flatnonzero(cons.kinds == int(NodeConstraint.FIXED))
    dump = n * n
    row_key = position.copy()
    row_key[2 * slip + 1] = position[2 * slip]
    col_key = n * row_key
    for key in (row_key, col_key):
        key[2 * fixed] = key[2 * fixed + 1] = dump
    weight = np.ones(n)
    weight[2 * slip] = cons.tangents[slip, 0]
    weight[2 * slip + 1] = cons.tangents[slip, 1]

    # The entries: the velocity blocks (a, b, c, d, t), the bed blocks
    # (k, a, c, b, d), the coupling blocks (a, c, k, t) as C and then as
    # C^T, and the unit diagonal.
    vel = spaces.tri_vel_dofs.T.reshape(6, 2, nt)                 # (a, c, t)
    bed = spaces.trace_dofs(spaces.basal_edge_indices).reshape(-1, 3, 2)
    pres = n_u + spaces.mesh.triangles.T                          # (k, t)
    keys = np.concatenate([
        (col_key[vel][None, :, None] + row_key[vel][:, None, :, None]).ravel(),
        (row_key[bed][..., None, None] + col_key[bed][:, None, None]).ravel(),
        (col_key[pres] + row_key[vel][:, :, None]).ravel(),
        (row_key[pres] + col_key[vel][:, :, None]).ravel(),
        (n + 1) * position[np.flatnonzero(constrained)]])
    pattern, slot = np.unique(np.minimum(keys, dump, out=keys), return_inverse=True)
    nnz = np.searchsorted(pattern, dump)
    col, row = np.divmod(pattern[:nnz], n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=n))])
    vel_slots, bed_slots, c_slots, unit_slots = np.split(
        slot.astype(np.int32), np.cumsum([144 * nt, 36 * len(bed), 72 * nt]))

    def slot_map(slots, scaled, weights, extra=np.zeros(0, dtype=np.int32),
                 extra_weights=np.zeros(0)):
        """Slot map of the entries at ``slots``, those at ``scaled``
        weighted by ``weights``, and ``extra`` weighted entries."""
        targets, index = np.unique(np.concatenate([slots[scaled], extra]),
                                   return_inverse=True)
        slots[scaled] = nnz
        return slots, scaled, targets, index, np.concatenate([weights, extra_weights])

    w = weight[vel]
    off = w != 1.0
    scaled = np.flatnonzero(off[:, None, :, None] | off[None, :, None])
    a, b, c, d, t = np.unravel_index(scaled, (6, 6, 2, 2, nt))
    jacobian = slot_map(vel_slots, scaled, w[a, c, t] * w[b, d, t], bed_slots,
                        (weight[bed][..., None, None]
                         * weight[bed][:, None, None]).ravel())
    w = np.broadcast_to(weight[vel][:, :, None], (2, 6, 2, 3, nt)).ravel()
    scaled = np.flatnonzero(w != 1.0)
    coupling = slot_map(c_slots, scaled, w[scaled])

    constrained = constrained[order]
    constrained.flags.writeable = False
    return ReducedFrame(rotation, rotation.T.tocsr(), constrained,
                        _frozen(indptr), _frozen(row), unit_slots, jacobian, coupling)


class Spaces:
    """Bundle of the four spaces plus shared element tables.

    Built once per mesh by :func:`build_spaces`.  Holds the unique-edge
    table, the affine geometry of the triangles (``det``, the Jacobian
    determinant of each map, and ``inv_t``, the inverse transposes of
    the maps with axes (i, j, t): ``inv_t[:, :, t]`` maps reference
    gradients of triangle t to physical ones), the reference basis
    gradients at the quadrature points, boundary edge node triples and
    geometry, the velocity constraint set, and lazily
    cached data used for assembly, factorization and regularization:
    the reduced frame (:meth:`reduced_frame`) and auxiliary matrices.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.quadrature = default_quadrature()
        nv = mesh.num_vertices
        nt = mesh.num_triangles

        # The mesh's unique edge table, numbered in order of first appearance
        # over (triangle, local edge); midpoint node ids are nv + edge_id.
        table = mesh.edge_table
        order = np.argsort(table.first_slot)
        edge_id = np.empty_like(order)
        edge_id[order] = np.arange(order.size)
        self.edges = np.stack(np.divmod(table.keys[order], nv), axis=1)
        self.tri_edges = edge_id[table.inverse].reshape(nt, 3)
        self.n_vnodes = nv + order.size

        self.node_coords = np.vstack([
            mesh.vertices,
            0.5 * (mesh.vertices[self.edges[:, 0]] + mesh.vertices[self.edges[:, 1]]),
        ])

        # P2 node ids per triangle: vertices then midpoints of (0,1), (1,2), (2,0).
        # The velocity dofs are stored column-major, so that their
        # transpose, the (12, nt) table of triangle-innermost point arrays,
        # is contiguous.
        self.tri_p2_nodes = np.hstack([mesh.triangles, nv + self.tri_edges])
        self.tri_vel_dofs = np.asfortranarray(
            (2 * self.tri_p2_nodes[:, :, None] + np.arange(2)).reshape(nt, 12))

        # Affine maps: the Jacobian determinant and the inverse transpose
        # of each triangle's map, triangle-innermost.
        a = mesh.vertices[mesh.triangles[:, 0]]
        b = mesh.vertices[mesh.triangles[:, 1]]
        c = mesh.vertices[mesh.triangles[:, 2]]
        jac = np.empty((nt, 2, 2))
        jac[:, :, 0] = b - a
        jac[:, :, 1] = c - a
        self.det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv_t = np.empty((2, 2, nt))
        inv_t[0, 0] = jac[:, 1, 1]
        inv_t[0, 1] = -jac[:, 1, 0]
        inv_t[1, 0] = -jac[:, 0, 1]
        inv_t[1, 1] = jac[:, 0, 0]
        inv_t /= self.det
        self.inv_t = inv_t

        q = self.quadrature
        self.p2_vals = p2_values(q.tri_points)
        self.p1_vals = p1_values(q.tri_points)
        # ref_grads[q, m, a] = dN_a/dxi_m at reference point q; the physical
        # gradient of N_a on triangle t is inv_t[:, :, t] @ ref_grads[q, :, a].
        self.ref_grads = np.ascontiguousarray(
            p2_reference_gradients(q.tri_points).transpose(0, 2, 1))
        p1_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        self.p1_grads = np.einsum("ijt,aj->tai", inv_t, p1_ref)

        # Boundary edge tables: P2 node triple (first endpoint, second
        # endpoint, midpoint), length, outward normal and tangent.
        mid = nv + edge_id[table.boundary_slot]
        self.bedge_nodes = np.column_stack([mesh.boundary_edges, mid])
        self.bedge_normals, self.bedge_tangents, self.bedge_lengths = \
            boundary_frames(mesh)
        self.edge_trace_vals = p2_edge_trace(q.edge_points)

        self.constraints = _build_constraints(mesh, self.n_vnodes, self.bedge_nodes,
                                              self.bedge_normals)

        # Bed chain for the friction space, ordered by (x, y).
        basal = mesh.edges_with_tag(BoundaryTag.BASAL)
        bverts = np.unique(mesh.boundary_edges[basal].reshape(-1))
        order = np.lexsort((mesh.vertices[bverts, 1], mesh.vertices[bverts, 0]))
        self.basal_vertex_ids = bverts[order]
        self.basal_edge_indices = basal
        basal_dof = np.full(nv, -1, dtype=np.int64)
        basal_dof[self.basal_vertex_ids] = np.arange(self.basal_vertex_ids.size)
        self.basal_edge_dofs = basal_dof[mesh.boundary_edges[basal]]

        self.velocity = FunctionSpace(SpaceKind.VELOCITY_P2_VEC, mesh,
                                      2 * self.n_vnodes,
                                      node_coords=self.node_coords)
        self.pressure = FunctionSpace(SpaceKind.PRESSURE_P1, mesh, nv)
        self.coeff_omega = FunctionSpace(SpaceKind.COEFF_OMEGA_P1, mesh, nv)
        self.coeff_basal = FunctionSpace(
            SpaceKind.COEFF_BASAL_P1, mesh, len(self.basal_vertex_ids),
            basal_vertices=self.basal_vertex_ids,
            basal_coords=mesh.vertices[self.basal_vertex_ids])
        for space in (self.velocity, self.pressure, self.coeff_omega, self.coeff_basal):
            space.parent = self

        self.n_u = 2 * self.n_vnodes
        self.n_sys = self.n_u + nv
        self._cache = {}

    # -- the reduced frame: vectors and operators -----------------------

    def reduced_frame(self):
        """The :class:`ReducedFrame` of this mesh, built on the first
        reduction, not with the spaces or a Jacobian."""
        if "reduced_frame" not in self._cache:
            self._cache["reduced_frame"] = _reduced_frame(self)
        return self._cache["reduced_frame"]

    def reduce_vector(self, vec):
        """A dual/system vector in the reduced frame, with its constrained
        entries zeroed."""
        frame = self.reduced_frame()
        out = frame.rotation_t @ vec
        out[frame.constrained] = 0.0
        return out

    def velocity_reduction(self):
        """The row map ``P R^T`` of the velocity dofs, built on first use:
        an (n_sys, n_u) CSR matrix whose product with a matrix M of one
        row per velocity dof is M in the reduced frame, each column the
        :meth:`reduce_vector` of that column with zero pressure entries."""
        if "velocity_reduction" not in self._cache:
            frame = self.reduced_frame()
            keep = np.flatnonzero(~frame.constrained)
            select = sp.csr_matrix((np.ones(keep.size), (keep, keep)),
                                   shape=(self.n_sys, self.n_sys))
            self._cache["velocity_reduction"] = (
                select @ frame.rotation_t[:, :self.n_u]).tocsr()
        return self._cache["velocity_reduction"]

    def expand_vector(self, reduced):
        """Back from the reduced frame to plain x/y components."""
        return self.reduced_frame().rotation @ reduced

    def trace_dofs(self, edges):
        """Velocity dofs of the P2 node triples of boundary edges, (k, 6)."""
        return (2 * self.bedge_nodes[edges][:, :, None] + np.arange(2)).reshape(-1, 6)

    def eliminate(self, blocks, bed_blocks, coupling):
        """The reduced operator, in CSC form, of the saddle matrix whose
        velocity block sums the element blocks ``blocks`` (axes a, b, c,
        d, t) and the bed blocks ``bed_blocks`` (axes k, a, c, b, d).

        One scatter writes the blocks straight into the pattern of the
        reduced frame: node-blocked, in the tangent/normal frame at slip
        nodes, with constrained rows and columns dropped.  ``coupling``
        is the reduced data of the coupling block and of the unit
        diagonal of the constrained dofs, which keeps the operator
        symmetric and nonsingular.
        """
        frame = self.reduced_frame()
        data = frame.scatter(frame.jacobian, blocks.ravel(), bed_blocks.ravel())
        data += coupling
        return sp.csc_matrix((data, frame.indices, frame.indptr),
                             shape=frame.rotation.shape)

    def project_dual(self, vec):
        """Zero the constrained components of a dual vector in place of
        its rotated frame; pairing with constraint-satisfying fields is
        unchanged."""
        return self.expand_vector(self.reduce_vector(vec))


def build_spaces(mesh):
    """Build the four-space bundle on ``mesh``.

    Returns
    -------
    Spaces with attributes ``velocity``, ``pressure``, ``coeff_omega``
    and ``coeff_basal``.
    """
    return Spaces(mesh)


# -- evaluation helpers used by assembly and observation --------------
#
# Volume point arrays hold the triangle innermost: axes (q, ..., t), with
# q the triangle quadrature point and t the triangle.


def point_velocity_values(field):
    """Velocity at the triangle quadrature points, shape (nq, 2, nt) with
    entry [q, c, t] = v_c: one matmul of the basis values with the local
    dofs of all triangles."""
    sp_ = field.space.parent
    nt = sp_.mesh.num_triangles
    coeffs = field.values[sp_.tri_vel_dofs.T].reshape(6, 2 * nt)     # (a, (c, t))
    return (sp_.p2_vals @ coeffs).reshape(-1, 2, nt)


def point_velocity_gradients(field):
    """Velocity gradient (rows are components) at the triangle quadrature
    points, shape (nq, 2, 2, nt) with entry [q, i, j, t] = d v_i / d x_j.
    One matmul of the reference gradients with the local dofs of all
    triangles, then the pull-back by ``inv_t``."""
    sp_ = field.space.parent
    nq, nt = sp_.ref_grads.shape[0], sp_.mesh.num_triangles
    coeffs = field.values[sp_.tri_vel_dofs.T].reshape(6, 2 * nt)     # (a, (c, t))
    ref = (sp_.ref_grads.reshape(2 * nq, 6) @ coeffs).reshape(nq, 2, 2, nt)
    inv_t = sp_.inv_t
    return ref[:, 0, :, None] * inv_t[:, 0] + ref[:, 1, :, None] * inv_t[:, 1]


def point_scalar_values(field):
    """Vertex-based scalar at the triangle quadrature points, shape
    (nq, nt)."""
    sp_ = field.space.parent
    return sp_.p1_vals @ field.values[field.space.mesh.triangles.T]


def velocity_trace(field, edge_indices):
    """Velocity samples at edge quadrature points of the given boundary
    edges, shape (len(edge_indices), m, 2)."""
    sp_ = field.space.parent
    nodes = sp_.bedge_nodes[edge_indices]               # (k, 3)
    coeffs = field.values.reshape(-1, 2)[nodes]         # (k, 3, 2)
    return np.einsum("ma,kac->kmc", sp_.edge_trace_vals, coeffs)


def basal_coeff_on_edges(field):
    """Friction coefficient at bed-edge quadrature points, (n_bed, m)."""
    sp_ = field.space.parent
    s = sp_.quadrature.edge_points
    vals = field.values[sp_.basal_edge_dofs]            # (n_bed, 2)
    return vals[:, 0][:, None] * (1.0 - s)[None, :] + vals[:, 1][:, None] * s[None, :]
