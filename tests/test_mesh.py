"""Mesh generation, validation, file format and boundary geometry."""

import numpy as np
import pytest

from pglacier.mesh import (BoundaryTag, Mesh, MeshError, MeshFormatError,
                           boundary_frames,
                           generate_slab_mesh, load_mesh, save_mesh,
                           with_observed_span)


def shoelace(vertices, triangles):
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))


@pytest.mark.parametrize("nx,ny", [(2, 2), (4, 2), (8, 4), (16, 8), (3, 5)])
def test_slab_entity_counts(nx, ny):
    mesh = generate_slab_mesh(2.0, 1.0, nx, ny)
    assert mesh.num_vertices == (nx + 1) * (ny + 1)
    assert mesh.num_triangles == 2 * nx * ny
    # perimeter count
    assert mesh.num_boundary_edges == 2 * nx + 2 * ny


@pytest.mark.parametrize("length,height,nx,ny", [(2.0, 1.0, 8, 4),
                                                 (1.0, 1.0, 8, 8),
                                                 (3.0, 0.5, 5, 3)])
def test_slab_area(length, height, nx, ny):
    mesh = generate_slab_mesh(length, height, nx, ny)
    areas = shoelace(mesh.vertices, mesh.triangles)
    assert np.all(areas > 0.0)
    assert abs(areas.sum() - length * height) <= 1e-12 * length * height


def test_sinusoidal_bed_positive_areas():
    # oracle: direct shoelace summation against the trapezoid columns
    bed = lambda x: 0.05 * np.sin(2.0 * np.pi * x)
    mesh = generate_slab_mesh(1.0, 1.0, 8, 8, bed_profile=bed)
    areas = shoelace(mesh.vertices, mesh.triangles)
    assert np.all(areas > 0.0)
    xs = np.linspace(0.0, 1.0, 9)
    column = 0.5 * ((1.0 - bed(xs[:-1])) + (1.0 - bed(xs[1:]))) * np.diff(xs)
    assert abs(areas.sum() - column.sum()) <= 1e-12


def test_slab_boundary_tags():
    mesh = generate_slab_mesh(2.0, 1.0, 4, 3)
    tags = mesh.boundary_tags
    assert (tags == int(BoundaryTag.BASAL)).sum() == 4
    assert (tags == int(BoundaryTag.ATMOSPHERE)).sum() == 4
    assert (tags == int(BoundaryTag.DIRICHLET)).sum() == 6
    # the full free surface is observed by default
    assert np.array_equal(mesh.observed_edges,
                          mesh.edges_with_tag(BoundaryTag.ATMOSPHERE))


def loop_slab_arrays(length, height, nx, ny, bed_profile=None):
    """The slab mesh's arrays built vertex by vertex and edge by edge."""
    xs = np.linspace(0.0, length, nx + 1)
    if bed_profile is None:
        bed = np.zeros(nx + 1)
    else:
        bed = np.array([float(bed_profile(x)) for x in xs])

    verts = np.empty(((nx + 1) * (ny + 1), 2))
    for j in range(ny + 1):
        frac = j / ny
        verts[j * (nx + 1):(j + 1) * (nx + 1), 0] = xs
        verts[j * (nx + 1):(j + 1) * (nx + 1), 1] = bed + frac * (height - bed)

    def vid(i, j):
        return j * (nx + 1) + i

    tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
    k = 0
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris[k] = (a, b, c)
            tris[k + 1] = (a, c, d)
            k += 2

    edges = []
    tags = []
    obs = []
    for i in range(nx):                      # bed, left to right
        edges.append((vid(i, 0), vid(i + 1, 0)))
        tags.append(BoundaryTag.BASAL)
        obs.append(False)
    for i in range(nx):                      # free surface, left to right
        edges.append((vid(i, ny), vid(i + 1, ny)))
        tags.append(BoundaryTag.ATMOSPHERE)
        obs.append(True)
    for j in range(ny):                      # left wall, bottom to top
        edges.append((vid(0, j), vid(0, j + 1)))
        tags.append(BoundaryTag.DIRICHLET)
        obs.append(False)
    for j in range(ny):                      # right wall, bottom to top
        edges.append((vid(nx, j), vid(nx, j + 1)))
        tags.append(BoundaryTag.DIRICHLET)
        obs.append(False)

    return (verts, tris, np.array(edges), np.array([int(t) for t in tags]),
            np.array(obs))


@pytest.mark.parametrize("bedded", [False, True], ids=["flat", "bedded"])
@pytest.mark.parametrize("length,nx,ny", [(2.0, 2, 2), (2.0, 4, 2), (3.0, 3, 5),
                                          (2.0, 16, 8), (2.0, 128, 64),
                                          (20.0, 80, 8)])
def test_slab_matches_loop_reference_bitwise(length, nx, ny, bedded):
    bed = (lambda x: 0.05 * np.sin(np.pi * x)) if bedded else None
    mesh = generate_slab_mesh(length, 1.0, nx, ny, bed_profile=bed)
    built = (mesh.vertices, mesh.triangles, mesh.boundary_edges,
             mesh.boundary_tags, mesh.observed)
    for got, want in zip(built, loop_slab_arrays(length, 1.0, nx, ny, bed)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("nx,ny", [(1, 2), (2, 1), (0, 4)])
def test_slab_rejects_degenerate_resolution(nx, ny):
    with pytest.raises(ValueError):
        generate_slab_mesh(1.0, 1.0, nx, ny)


def test_with_observed_span():
    mesh = generate_slab_mesh(2.0, 1.0, 8, 2)
    windowed = with_observed_span(mesh, 0.5, 1.5)
    observed = windowed.observed_edges
    mids = 0.5 * (windowed.vertices[windowed.boundary_edges[observed, 0], 0]
                  + windowed.vertices[windowed.boundary_edges[observed, 1], 0])
    assert observed.size == 4
    assert np.all((mids >= 0.5) & (mids <= 1.5))


def test_empty_observed_span_rejected():
    mesh = generate_slab_mesh(2.0, 1.0, 8, 2)
    with pytest.raises(MeshError, match="observed"):
        with_observed_span(mesh, 10.0, 11.0)


def test_save_load_round_trip(tmp_path):
    mesh = generate_slab_mesh(2.0, 1.0, 5, 3,
                              bed_profile=lambda x: 0.03 * np.sin(x))
    path = tmp_path / "slab.pgmesh"
    save_mesh(mesh, path)
    loaded = load_mesh(path)
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert np.array_equal(loaded.triangles, mesh.triangles)
    assert np.array_equal(loaded.boundary_edges, mesh.boundary_edges)
    assert np.array_equal(loaded.boundary_tags, mesh.boundary_tags)
    assert np.array_equal(loaded.observed, mesh.observed)


def test_loader_fixes_clockwise_triangles(tmp_path):
    mesh = generate_slab_mesh(1.0, 1.0, 2, 2)
    path = tmp_path / "cw.pgmesh"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    # swap two vertices of the first triangle to make it clockwise
    head = lines.index("triangles %d" % mesh.num_triangles) + 1
    i, j, k = lines[head].split()
    lines[head] = " ".join((j, i, k))
    path.write_text("\n".join(lines) + "\n")
    loaded = load_mesh(path)
    assert np.all(shoelace(loaded.vertices, loaded.triangles) > 0.0)


@pytest.mark.parametrize("mutation,needle", [
    ("pgmesh 1", "header"),
    ("vertices 4", "vertex"),
    ("0.0 0.0", "float"),
])
def test_loader_rejects_garbage(tmp_path, mutation, needle):
    mesh = generate_slab_mesh(1.0, 1.0, 2, 2)
    path = tmp_path / "bad.pgmesh"
    save_mesh(mesh, path)
    text = path.read_text()
    if mutation == "pgmesh 1":
        text = text.replace("pgmesh 1", "pgmash 7", 1)
    elif mutation == "vertices 4":
        text = text.replace("vertices 9", "vertices nine", 1)
    else:
        text = text.replace("0.0 0.0", "0.0 spam", 1)
    path.write_text(text)
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert err.value.line is not None


def test_loader_reports_line_numbers(tmp_path):
    path = tmp_path / "short.pgmesh"
    path.write_text("pgmesh 1\nvertices 2\n0.0 0.0\n1.0 0.0\n"
                    "triangles 1\n0 1 7\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert err.value.line == 6


def test_loader_format_errors_carry_the_path(tmp_path):
    path = tmp_path / "short.pgmesh"
    path.write_text("pgmesh 1\nvertices 2\n0.0 0.0\n1.0 0.0\n"
                    "triangles 1\n0 1 7\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(path)
    assert err.value.path == path and err.value.line == 6
    assert str(err.value).startswith("%s: line 6: triangle vertex index" % path)


def test_loader_topology_errors_name_the_file(tmp_path):
    mesh = generate_slab_mesh(1.0, 1.0, 2, 2)
    path = tmp_path / "open.pgmesh"
    save_mesh(mesh, path)
    lines = path.read_text().splitlines()
    # drop the last boundary edge, leaving its mesh edge untagged
    head = lines.index("boundary %d" % mesh.num_boundary_edges)
    lines[head] = "boundary %d" % (mesh.num_boundary_edges - 1)
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(MeshError) as err:
        load_mesh(path)
    assert str(err.value) == ("%s: untagged boundary edge between vertices "
                              "5 and 8" % path)


def _slab_arrays(nx=2, ny=2):
    mesh = generate_slab_mesh(1.0, 1.0, nx, ny)
    return (mesh.vertices.copy(), mesh.triangles.copy(),
            mesh.boundary_edges.copy(), mesh.boundary_tags.copy(),
            mesh.observed.copy())


def test_missing_dirichlet_rejected():
    v, t, be, bt, obs = _slab_arrays()
    bt[bt == int(BoundaryTag.DIRICHLET)] = int(BoundaryTag.BASAL)
    with pytest.raises(MeshError, match="empty Gamma_d"):
        Mesh(v, t, be, bt, obs)


def test_missing_observed_surface_rejected():
    v, t, be, bt, obs = _slab_arrays()
    obs[:] = False
    with pytest.raises(MeshError, match="observed"):
        Mesh(v, t, be, bt, obs)


def test_observed_flag_requires_atmosphere():
    v, t, be, bt, obs = _slab_arrays()
    obs[bt == int(BoundaryTag.BASAL)] = True
    with pytest.raises(MeshError, match="atmosphere"):
        Mesh(v, t, be, bt, obs)


def test_boundary_edge_must_belong_to_one_triangle():
    v, t, be, bt, obs = _slab_arrays()
    be = be.copy()
    be[0] = (0, 4)  # interior diagonal, not a boundary edge
    with pytest.raises(MeshError):
        Mesh(v, t, be, bt, obs)


def test_boundary_geometry_flat_bottom():
    mesh = generate_slab_mesh(2.0, 1.0, 4, 2)
    normals, tangents, _ = boundary_frames(mesh)
    for normal, tangent in zip(normals, tangents):
        assert abs(np.dot(normal, tangent)) == 0.0
        assert abs(np.linalg.norm(normal) - 1.0) <= 1e-14
        assert abs(np.linalg.norm(tangent) - 1.0) <= 1e-14
    basal = mesh.edges_with_tag(BoundaryTag.BASAL)
    for e in basal:
        assert np.allclose(normals[e], (0.0, -1.0))
        assert np.allclose(tangents[e], (1.0, 0.0))


def test_boundary_normals_point_outward_on_curved_bed():
    bed = lambda x: 0.05 * np.sin(2.0 * np.pi * x)
    mesh = generate_slab_mesh(1.0, 1.0, 8, 4, bed_profile=bed)
    normals, _, _ = boundary_frames(mesh)
    centroid = mesh.vertices.mean(axis=0)
    for normal, (a, b) in zip(normals, mesh.boundary_edges):
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        edge_vec = mesh.vertices[b] - mesh.vertices[a]
        assert abs(np.dot(normal, edge_vec)) <= 1e-14 * np.linalg.norm(edge_vec)
        assert np.dot(normal, mid - centroid) > 0.0


def centroid_rule_normals(mesh):
    """Each boundary edge's right-hand normal, flipped where it points
    towards the centroid of the triangle that holds the edge."""
    ends = mesh.boundary_edges
    vec = mesh.vertices[ends[:, 1]] - mesh.vertices[ends[:, 0]]
    tangents = vec / np.hypot(vec[:, 0], vec[:, 1])[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
    tris = mesh.triangles
    for e, (a, b) in enumerate(ends):
        owner = np.flatnonzero((tris == a).any(axis=1) & (tris == b).any(axis=1))
        assert owner.size == 1
        centroid = mesh.vertices[tris[owner[0]]].mean(axis=0)
        midpoint = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        if np.dot(normals[e], centroid - midpoint) > 0.0:
            normals[e] = -normals[e]
    return normals


def test_directed_edge_normals_match_centroid_rule_on_reversed_edges():
    # interior vertices jittered by up to a quarter cell, and half of the
    # boundary edges listed against their triangles
    mesh = generate_slab_mesh(2.0, 1.0, 16, 8,
                              bed_profile=lambda x: 0.05 * np.sin(np.pi * x))
    rng = np.random.default_rng(5)
    vertices = mesh.vertices.copy()
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.boundary_edges.ravel()] = False
    shift = rng.uniform(-0.25, 0.25, vertices.shape) * np.array([2.0 / 16, 0.95 / 8])
    vertices[interior] += shift[interior]
    ends = mesh.boundary_edges.copy()
    flip = rng.permutation(mesh.num_boundary_edges)[:mesh.num_boundary_edges // 2]
    ends[flip] = ends[flip, ::-1]
    jittered = Mesh(vertices, mesh.triangles, ends, mesh.boundary_tags, mesh.observed)
    normals = boundary_frames(jittered)[0]
    assert normals.tobytes() == centroid_rule_normals(jittered).tobytes()
    # outward does not depend on the order an edge's endpoints are listed
    # in (up to the sign of a zero component)
    unflipped = Mesh(vertices, mesh.triangles, mesh.boundary_edges,
                     mesh.boundary_tags, mesh.observed)
    assert np.array_equal(normals, boundary_frames(unflipped)[0])


def _with_extra_edges(pairs, tags, vertex=None, triangle=None):
    v, t, be, bt, obs = _slab_arrays()
    if vertex is not None:
        v = np.vstack([v, vertex])
        t = np.vstack([t, triangle])
    return Mesh(v, t, np.vstack([be, pairs]), np.concatenate([bt, tags]),
                np.concatenate([obs, np.zeros(len(tags), dtype=bool)]))


def _dropped_last_edge():
    v, t, be, bt, obs = _slab_arrays()
    return Mesh(v, t, be[:-1], bt[:-1], obs[:-1])


DIRICHLET = int(BoundaryTag.DIRICHLET)


@pytest.mark.parametrize("build,message", [
    (lambda: _with_extra_edges([(4, 4)], [DIRICHLET]),
     "boundary edge 8 is degenerate (repeated vertex 4)"),
    (lambda: _with_extra_edges([(1, 0)], [DIRICHLET]),
     "boundary edge 8 duplicates edge 0"),
    (lambda: _with_extra_edges([(0, 8)], [DIRICHLET]),
     "boundary edge 8 is not an edge of any triangle"),
    (lambda: _with_extra_edges([(0, 4)], [DIRICHLET]),
     "boundary edge 8 belongs to 2 triangles, expected 1"),
    (_dropped_last_edge,
     "untagged boundary edge between vertices 5 and 8"),
    # a ninth triangle (1, 4, 9) on the interior edge 1-4, its two new
    # edges tagged
    (lambda: _with_extra_edges([(4, 9), (9, 1)], [DIRICHLET, DIRICHLET],
                               vertex=(0.25, 0.25), triangle=(1, 4, 9)),
     "edge between vertices 1 and 4 belongs to 3 triangles"),
], ids=["degenerate", "duplicate", "non_edge", "interior", "untagged",
        "three_triangles"])
def test_edge_incidence_defect_messages(build, message):
    with pytest.raises(MeshError) as err:
        build()
    assert str(err.value) == message
