"""Triangle meshes of glacier cross-sections with tagged boundary chains.

A mesh carries straight-sided triangles plus a list of boundary edges,
each tagged as clamped (dirichlet), bed (basal) or free surface
(atmosphere).  Atmosphere edges may additionally be flagged as observed,
which marks where surface-velocity data lives.

The text format is line oriented::

    pgmesh 1
    vertices N
    x y          (N lines)
    triangles M
    i j k        (M lines, zero-based)
    boundary K
    i j TAG [observed]

``#`` starts a comment anywhere on a line.  TAG is one of ``dirichlet``,
``basal``, ``atmosphere``; the optional literal ``observed`` is only
valid on atmosphere edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class BoundaryTag(IntEnum):
    DIRICHLET = 0
    BASAL = 1
    ATMOSPHERE = 2


_TAG_FROM_NAME = {
    "dirichlet": BoundaryTag.DIRICHLET,
    "basal": BoundaryTag.BASAL,
    "atmosphere": BoundaryTag.ATMOSPHERE,
}
_NAME_FROM_TAG = {v: k for k, v in _TAG_FROM_NAME.items()}


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


class MeshFormatError(MeshError):
    """Malformed mesh file.  Carries the offending 1-based line number
    and, once :func:`load_mesh` has seen it, the file's path."""

    def __init__(self, message, line=None, path=None):
        where = "" if path is None else "%s: " % path
        if line is not None:
            where += "line %d: " % line
        super().__init__(where + message)
        self.message = message
        self.line = line
        self.path = path


@dataclass
class Mesh:
    """Conforming triangle mesh with a fully tagged boundary.

    Parameters
    ----------
    vertices : ndarray of shape (nv, 2)
        Vertex coordinates.
    triangles : ndarray of shape (nt, 3)
        Vertex indices per triangle, counterclockwise.
    boundary_edges : ndarray of shape (nb, 2)
        Endpoint indices of every boundary edge.
    boundary_tags : ndarray of shape (nb,)
        A ``BoundaryTag`` value per boundary edge.
    observed : ndarray of shape (nb,)
        True where surface-velocity observations live.  Only allowed on
        atmosphere edges.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_tags: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(self.boundary_edges, dtype=np.int64)
        self.boundary_tags = np.ascontiguousarray(self.boundary_tags, dtype=np.int64)
        self.observed = np.ascontiguousarray(self.observed, dtype=bool)
        _validate(self)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self):
        return self.boundary_edges.shape[0]

    def signed_areas(self):
        """Signed area of every triangle (positive for counterclockwise)."""
        return _signed_areas(self.vertices, self.triangles)

    def edge_lengths(self):
        """Length of every boundary edge."""
        d = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    def edges_with_tag(self, tag):
        """Indices into the boundary list for one tag."""
        return np.flatnonzero(self.boundary_tags == int(tag))

    @property
    def observed_edges(self):
        """Indices of observed atmosphere edges, in boundary-list order."""
        return np.flatnonzero(self.observed)


def _signed_areas(vertices, triangles):
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))


def _validate(mesh):
    nv = mesh.vertices.shape[0]
    if mesh.vertices.ndim != 2 or mesh.vertices.shape[1] != 2:
        raise MeshError("vertices must have shape (nv, 2)")
    bad = np.flatnonzero(~np.isfinite(mesh.vertices).all(axis=1))
    if bad.size:
        raise MeshError("vertex %d has non-finite coordinates" % bad[0])
    if mesh.triangles.ndim != 2 or mesh.triangles.shape[1] != 3:
        raise MeshError("triangles must have shape (nt, 3)")
    if mesh.triangles.size and (mesh.triangles.min() < 0 or mesh.triangles.max() >= nv):
        raise MeshError("triangle vertex index out of range")
    if mesh.boundary_edges.ndim != 2 or mesh.boundary_edges.shape[1] != 2:
        raise MeshError("boundary_edges must have shape (nb, 2)")
    nb = mesh.boundary_edges.shape[0]
    if mesh.boundary_tags.shape != (nb,) or mesh.observed.shape != (nb,):
        raise MeshError("boundary tag/observed arrays must match the edge list")
    if mesh.boundary_edges.size and (mesh.boundary_edges.min() < 0
                                     or mesh.boundary_edges.max() >= nv):
        raise MeshError("boundary edge vertex index out of range")
    for tag in np.unique(mesh.boundary_tags):
        if tag not in (0, 1, 2):
            raise MeshError("unknown boundary tag %d" % tag)

    areas = mesh.signed_areas()
    bad = np.flatnonzero(areas <= 0.0)
    if bad.size:
        raise MeshError("triangle %d has non-positive area %g" % (bad[0], areas[bad[0]]))

    # Edge incidence: boundary edges belong to exactly one triangle,
    # interior edges to exactly two, and every single-triangle edge must
    # appear in the tagged boundary list.  Defects are reported in the
    # order of a walk over the boundary list, then over the triangle
    # edges in first-appearance order.
    keys, first_slot, counts = np.unique(triangle_edge_keys(mesh).ravel(),
                                         return_index=True, return_counts=True)
    bkeys = edge_keys(mesh, mesh.boundary_edges)
    _, bfirst, binverse = np.unique(bkeys, return_index=True, return_inverse=True)
    original = bfirst[binverse]
    slot = np.searchsorted(keys, bkeys)
    hit = slot < keys.size
    hit[hit] = keys[slot[hit]] == bkeys[hit]
    owners = np.zeros(nb, dtype=np.int64)
    owners[hit] = counts[slot[hit]]
    degenerate = mesh.boundary_edges[:, 0] == mesh.boundary_edges[:, 1]
    duplicate = original != np.arange(nb)
    bad = np.flatnonzero(degenerate | duplicate | (owners != 1))
    if bad.size:
        e = bad[0]
        if degenerate[e]:
            raise MeshError("boundary edge %d is degenerate (repeated vertex %d)"
                            % (e, mesh.boundary_edges[e, 0]))
        if duplicate[e]:
            raise MeshError("boundary edge %d duplicates edge %d" % (e, original[e]))
        if owners[e] == 0:
            raise MeshError("boundary edge %d is not an edge of any triangle" % e)
        raise MeshError("boundary edge %d belongs to %d triangles, expected 1"
                        % (e, owners[e]))
    untagged = (counts == 1) & ~np.isin(keys, bkeys)
    bad = np.flatnonzero(untagged | (counts > 2))
    if bad.size:
        k = bad[np.argmin(first_slot[bad])]
        i, j = divmod(int(keys[k]), nv)
        if untagged[k]:
            raise MeshError("untagged boundary edge between vertices %d and %d" % (i, j))
        raise MeshError("edge between vertices %d and %d belongs to %d triangles"
                        % (i, j, counts[k]))

    if np.any(mesh.observed & (mesh.boundary_tags != int(BoundaryTag.ATMOSPHERE))):
        e = np.flatnonzero(mesh.observed & (mesh.boundary_tags != int(BoundaryTag.ATMOSPHERE)))[0]
        raise MeshError("boundary edge %d is observed but not tagged atmosphere" % e)

    lengths = mesh.edge_lengths()
    if lengths[mesh.boundary_tags == int(BoundaryTag.DIRICHLET)].sum() <= 0.0:
        raise MeshError("empty Gamma_d: mesh has no dirichlet boundary edge")
    if lengths[mesh.observed].sum() <= 0.0:
        raise MeshError("no observed atmosphere edge: observed surface is empty")


def generate_slab_mesh(length, height, nx, ny, bed_profile=None):
    """Build a structured slab mesh on [0, length] x [bed(x), height].

    The bottom chain is tagged basal, the top chain atmosphere (all
    observed), both lateral sides dirichlet.  Columns of vertices are
    spaced evenly between the bed elevation and the flat top.

    Parameters
    ----------
    length, height : float
        Slab extent.  The top surface sits at y = height.
    nx, ny : int
        Cells per direction, both at least 2.
    bed_profile : callable or None
        Bed elevation as a function of x; None means a flat bed at
        y = 0.  Values must stay below ``height``.

    Returns
    -------
    Mesh
    """
    if nx < 2 or ny < 2:
        raise ValueError("slab mesh needs nx >= 2 and ny >= 2, got (%d, %d)" % (nx, ny))
    if length <= 0 or height <= 0:
        raise ValueError("slab mesh needs positive length and height")
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

    return Mesh(verts, tris, np.array(edges), np.array([int(t) for t in tags]),
                np.array(obs))


def with_observed_span(mesh, xmin, xmax):
    """Copy of ``mesh`` observing only atmosphere edges whose midpoint
    x-coordinate lies in [xmin, xmax]."""
    mid = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0], 0]
                 + mesh.vertices[mesh.boundary_edges[:, 1], 0])
    observed = (mesh.boundary_tags == int(BoundaryTag.ATMOSPHERE)) \
        & (mid >= xmin) & (mid <= xmax)
    return Mesh(mesh.vertices.copy(), mesh.triangles.copy(),
                mesh.boundary_edges.copy(), mesh.boundary_tags.copy(), observed)


def load_mesh(path):
    """Read a mesh from the ``pgmesh 1`` text format.

    Clockwise triangles are reoriented silently.  Parse problems raise
    :class:`MeshFormatError` with the path and the offending line
    number; topology problems raise :class:`MeshError` naming the path
    and the entity.
    """
    try:
        return _read_mesh(path)
    except MeshFormatError as exc:
        raise MeshFormatError(exc.message, exc.line, path) from None
    except MeshError as exc:
        raise MeshError("%s: %s" % (path, exc)) from None


def _read_mesh(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MeshFormatError("mesh file is not UTF-8 text: %s" % exc) from None

    tokens = []                  # (line_number, [fields])
    for ln, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.append((ln, body.split()))
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][0] if tokens else 0
            raise MeshFormatError("unexpected end of file, expected %s" % what, last)
        item = tokens[pos]
        pos += 1
        return item

    ln, fields = take("header")
    if fields != ["pgmesh", "1"]:
        raise MeshFormatError("expected header 'pgmesh 1', got %r" % " ".join(fields), ln)

    def take_count(section, entity):
        ln, fields = take("'%s N'" % section)
        if len(fields) != 2 or fields[0] != section:
            raise MeshFormatError("expected '%s N'" % section, ln)
        try:
            count = int(fields[1])
        except ValueError:
            raise MeshFormatError("%s count %r is not an integer"
                                  % (entity, fields[1]), ln) from None
        if not 0 <= count <= len(tokens) - pos:
            raise MeshFormatError("%s count %d does not fit the %d lines left"
                                  % (entity, count, len(tokens) - pos), ln)
        return count

    nv = take_count("vertices", "vertex")
    verts = np.empty((nv, 2))
    for k in range(nv):
        ln, fields = take("vertex coordinates")
        if len(fields) != 2:
            raise MeshFormatError("expected 'x y' for vertex %d" % k, ln)
        try:
            verts[k] = (float(fields[0]), float(fields[1]))
        except ValueError:
            raise MeshFormatError("bad vertex coordinates %r" % " ".join(fields), ln)

    nt = take_count("triangles", "triangle")
    tris = np.empty((nt, 3), dtype=np.int64)
    for k in range(nt):
        ln, fields = take("triangle indices")
        if len(fields) != 3:
            raise MeshFormatError("expected 'i j k' for triangle %d" % k, ln)
        try:
            tris[k] = [int(f) for f in fields]
        except (ValueError, OverflowError):
            raise MeshFormatError("bad triangle indices %r" % " ".join(fields), ln)
        if tris[k].min() < 0 or tris[k].max() >= nv:
            raise MeshFormatError("triangle vertex index out of range 0..%d"
                                  % (nv - 1), ln)

    nb = take_count("boundary", "boundary")
    bedges = np.empty((nb, 2), dtype=np.int64)
    btags = np.empty(nb, dtype=np.int64)
    bobs = np.zeros(nb, dtype=bool)
    for k in range(nb):
        ln, fields = take("boundary edge")
        if len(fields) not in (3, 4):
            raise MeshFormatError("expected 'i j TAG [observed]' for boundary edge %d" % k, ln)
        try:
            bedges[k] = (int(fields[0]), int(fields[1]))
        except (ValueError, OverflowError):
            raise MeshFormatError("bad boundary edge indices %r" % " ".join(fields[:2]), ln)
        tag = _TAG_FROM_NAME.get(fields[2])
        if tag is None:
            raise MeshFormatError("unknown boundary tag %r" % fields[2], ln)
        btags[k] = int(tag)
        if len(fields) == 4:
            if fields[3] != "observed":
                raise MeshFormatError("unexpected trailing token %r" % fields[3], ln)
            if tag is not BoundaryTag.ATMOSPHERE:
                raise MeshFormatError("'observed' is only valid on atmosphere edges", ln)
            bobs[k] = True

    if pos != len(tokens):
        raise MeshFormatError("trailing content after boundary section", tokens[pos][0])

    # Auto-fix clockwise triangles before the constructor validates.
    flip = _signed_areas(verts, tris) < 0.0
    tris[flip] = tris[flip][:, ::-1]

    return Mesh(verts, tris, bedges, btags, bobs)


def save_mesh(mesh, path):
    """Write ``mesh`` in the ``pgmesh 1`` text format.

    Floats are written with ``repr`` so a load/save/load cycle is exact.
    """
    lines = ["pgmesh 1"]
    lines.append("vertices %d" % mesh.num_vertices)
    for x, y in mesh.vertices:
        lines.append("%s %s" % (repr(float(x)), repr(float(y))))
    lines.append("triangles %d" % mesh.num_triangles)
    for i, j, k in mesh.triangles:
        lines.append("%d %d %d" % (i, j, k))
    lines.append("boundary %d" % mesh.num_boundary_edges)
    for e in range(mesh.num_boundary_edges):
        i, j = mesh.boundary_edges[e]
        tag = _NAME_FROM_TAG[BoundaryTag(mesh.boundary_tags[e])]
        suffix = " observed" if mesh.observed[e] else ""
        lines.append("%d %d %s%s" % (i, j, tag, suffix))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def edge_keys(mesh, pairs):
    """Orientation-free integer key ``min * nv + max`` of each vertex
    pair in ``pairs`` (shape (k, 2))."""
    pairs = np.asarray(pairs, dtype=np.int64)
    return pairs.min(axis=1) * mesh.num_vertices + pairs.max(axis=1)


def triangle_edge_keys(mesh):
    """Keys of the local edges (0,1), (1,2), (2,0) of every triangle,
    shape (nt, 3)."""
    tris = mesh.triangles
    pairs = np.stack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]], axis=1)
    return edge_keys(mesh, pairs.reshape(-1, 2)).reshape(-1, 3)


def _owning_triangles(mesh):
    """Index of the first triangle containing each boundary edge."""
    keys, first = np.unique(triangle_edge_keys(mesh).ravel(), return_index=True)
    return first[np.searchsorted(keys, edge_keys(mesh, mesh.boundary_edges))] // 3


def boundary_frames(mesh):
    """Unit outward normals, unit tangents and lengths of all boundary
    edges as arrays (nb, 2), (nb, 2) and (nb,).

    The tangent points from the first listed endpoint to the second.
    The normal is the tangent rotated by -90 degrees, flipped if needed
    so it points away from the owning triangle's centroid.
    """
    ends = mesh.boundary_edges
    vec = mesh.vertices[ends[:, 1]] - mesh.vertices[ends[:, 0]]
    lengths = np.hypot(vec[:, 0], vec[:, 1])
    zero = np.flatnonzero(lengths == 0.0)
    if zero.size:
        raise MeshError("boundary edge %d has zero length" % zero[0])
    tangents = vec / lengths[:, None]
    normals = np.stack([tangents[:, 1], -tangents[:, 0]], axis=1)
    centroids = mesh.vertices[mesh.triangles[_owning_triangles(mesh)]].mean(axis=1)
    midpoints = 0.5 * (mesh.vertices[ends[:, 0]] + mesh.vertices[ends[:, 1]])
    inward = (normals * (centroids - midpoints)).sum(axis=1) > 0.0
    normals[inward] = -normals[inward]
    return normals, tangents, lengths
