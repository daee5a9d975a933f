"""Vectorized space set-up against plain loops: the unique-edge table,
the boundary-edge tables and the velocity constraints on a bedded slab."""

import numpy as np
import pytest

import pglacier as pg
from pglacier.mesh import BoundaryTag, boundary_frames
from pglacier.spaces import NodeConstraint


@pytest.fixture(scope="module")
def bedded():
    bed = lambda x: 0.08 * np.sin(1.5 * np.pi * x + 0.4)
    return pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 7, 3, bed_profile=bed))


def loop_edge_tables(mesh):
    """Edges numbered in order of first appearance over (triangle,
    local edge), and the P2 node triple of every boundary edge."""
    nv = mesh.num_vertices
    index, edges = {}, []
    tri_edges = np.empty((mesh.num_triangles, 3), dtype=np.int64)
    for t, tri in enumerate(mesh.triangles):
        for slot, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
            key = (min(tri[a], tri[b]), max(tri[a], tri[b]))
            if key not in index:
                index[key] = len(edges)
                edges.append(key)
            tri_edges[t, slot] = index[key]
    bedge_nodes = np.array([(i, j, nv + index[(min(i, j), max(i, j))])
                            for i, j in mesh.boundary_edges])
    return np.array(edges), tri_edges, bedge_nodes


def loop_constraints(mesh, n_nodes, bedge_nodes):
    """Constraint kinds, normals, tangents, rotation and constrained
    flags, one node at a time."""
    nv = mesh.num_vertices
    edge_normals = boundary_frames(mesh)[0]
    kinds = np.zeros(n_nodes, dtype=np.int8)
    normals = np.zeros((n_nodes, 2))
    tangents = np.zeros((n_nodes, 2))
    for e in mesh.edges_with_tag(BoundaryTag.DIRICHLET):
        for node in bedge_nodes[e]:
            kinds[node] = NodeConstraint.FIXED
    vertex_sum = {}
    basal = mesh.edges_with_tag(BoundaryTag.BASAL)
    for e in basal:
        for v in bedge_nodes[e, :2]:
            vertex_sum[v] = vertex_sum.get(v, np.zeros(2)) + edge_normals[e]
    for e in basal:
        for node in bedge_nodes[e]:
            if kinds[node] == NodeConstraint.FIXED:
                continue
            kinds[node] = NodeConstraint.SLIP
            n = edge_normals[e]
            if node < nv:
                n = vertex_sum[node] / np.hypot(*vertex_sum[node])
            normals[node] = n
            tangents[node] = (-n[1], n[0])
    rotation = np.zeros((2 * n_nodes, 2 * n_nodes))
    constrained = np.zeros(2 * n_nodes, dtype=bool)
    for node in range(n_nodes):
        block = slice(2 * node, 2 * node + 2)
        if kinds[node] == NodeConstraint.SLIP:
            rotation[block, block] = np.column_stack([tangents[node], normals[node]])
            constrained[2 * node + 1] = True
        else:
            rotation[block, block] = np.eye(2)
            constrained[block] = kinds[node] == NodeConstraint.FIXED
    return kinds, normals, tangents, rotation, constrained


def test_edge_tables_match_loops(bedded):
    edges, tri_edges, bedge_nodes = loop_edge_tables(bedded.mesh)
    assert np.array_equal(bedded.edges, edges)
    assert np.array_equal(bedded.tri_edges, tri_edges)
    assert np.array_equal(bedded.bedge_nodes, bedge_nodes)


def test_constraints_match_loops(bedded):
    kinds, normals, tangents, rotation, constrained = loop_constraints(
        bedded.mesh, bedded.n_vnodes, bedded.bedge_nodes)
    cons = bedded.constraints
    assert np.array_equal(cons.kinds, kinds)
    assert np.array_equal(cons.normals, normals)
    assert np.array_equal(cons.tangents, tangents)
    assert np.array_equal(cons.rotation.toarray(), rotation)
    assert np.array_equal(cons.constrained, constrained)
    assert np.count_nonzero(kinds == NodeConstraint.SLIP) > 0


def test_basal_edge_dofs_follow_the_chain(bedded):
    chain = list(bedded.basal_vertex_ids)
    ends = bedded.mesh.boundary_edges[bedded.basal_edge_indices]
    expected = [[chain.index(i), chain.index(j)] for i, j in ends]
    assert np.array_equal(bedded.basal_edge_dofs, expected)
