"""Disk formats for fields, observations and visualization output.

Field CSVs hold one row per degree of freedom with full-precision
floats (``repr``), so save/load round-trips are bit exact.  Observation
CSVs carry their projection mode and shape in comment headers.  The VTK
writer emits legacy ASCII unstructured grids with vertex point data;
quadratic velocity fields are subsampled at the vertices.
"""

from __future__ import annotations

import numpy as np

from .adjoint import PROJECTION_MODES, Observation
from .spaces import Field, SpaceKind


class FieldIOError(ValueError):
    """Malformed field or observation file."""

    def __init__(self, message, path=None, line=None):
        where = ""
        if path is not None:
            where = "%s: " % path
        if line is not None:
            where += "line %d: " % line
        super().__init__(where + message)
        self.path = path
        self.line = line


def _float_rows(values):
    return [repr(v) for v in np.asarray(values, dtype=float).tolist()]


def _vector_rows(values):
    """``x y 0.0`` rows of an (n, 2) array, with repr precision."""
    return ["%r %r 0.0" % (x, y)
            for x, y in np.asarray(values, dtype=float).tolist()]


def save_field_csv(field, path):
    """Write a field as ``dof,value`` rows with repr precision."""
    lines = ["dof,value"]
    lines.extend("%d,%s" % (k, s) for k, s in enumerate(_float_rows(field.values)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_field_csv(space, path):
    """Read a ``dof,value`` CSV into a Field on ``space``.

    Rows must enumerate every dof of the space exactly once, in order,
    with finite values; mismatched counts or indices and non-finite
    values raise FieldIOError naming the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FieldIOError("not UTF-8 text: %s" % exc, path) from None
    if not raw or raw[0].strip() != "dof,value":
        raise FieldIOError("expected header 'dof,value'", path, 1)
    values = np.empty(space.dof_count)
    seen = 0
    for ln, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FieldIOError("expected 'dof,value', got %r" % line, path, ln)
        try:
            dof = int(parts[0])
            val = float(parts[1])
        except ValueError:
            raise FieldIOError("malformed row %r" % line, path, ln) from None
        if not np.isfinite(val):
            raise FieldIOError("non-finite value in row %r" % line, path, ln)
        if dof != seen:
            raise FieldIOError("dof index %d out of order (expected %d)"
                               % (dof, seen), path, ln)
        if dof >= space.dof_count:
            raise FieldIOError("dof %d exceeds space size %d"
                               % (dof, space.dof_count), path, ln)
        values[dof] = val
        seen += 1
    if seen != space.dof_count:
        raise FieldIOError("file has %d dofs, space needs %d"
                           % (seen, space.dof_count), path)
    return Field(space, values)


def save_observation(obs, path):
    """Write an Observation with its mode and shape in the header."""
    samples = obs.samples
    lines = ["# observation v1",
             "# mode = %s" % obs.mode,
             "# noise_sigma = %s" % repr(float(obs.noise_sigma)),
             "# edges = %d" % samples.shape[0],
             "# points = %d" % samples.shape[1]]
    if obs.mode == "full_vector":
        lines.append("edge,point,vx,vy")
        for k in range(samples.shape[0]):
            for m in range(samples.shape[1]):
                lines.append("%d,%d,%s,%s" % (k, m,
                                              repr(float(samples[k, m, 0])),
                                              repr(float(samples[k, m, 1]))))
    else:
        lines.append("edge,point,vt")
        for k in range(samples.shape[0]):
            for m in range(samples.shape[1]):
                lines.append("%d,%d,%s" % (k, m, repr(float(samples[k, m]))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_observation(path):
    """Read an Observation written by save_observation.

    The declared mode, edge and point counts are enforced against the
    rows; any mismatch, a non-positive count, a noise level that is
    negative or not finite, or a non-finite sample raises FieldIOError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FieldIOError("not UTF-8 text: %s" % exc, path) from None
    meta = {}
    body = []
    for ln, line in enumerate(raw, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            content = line[1:].strip()
            if "=" in content:
                key, _, val = content.partition("=")
                meta[key.strip()] = (val.strip(), ln)
            continue
        body.append((ln, line))
    for key in ("mode", "edges", "points"):
        if key not in meta:
            raise FieldIOError("missing '# %s = ...' header" % key, path)
    mode = meta["mode"][0]
    if mode not in PROJECTION_MODES:
        raise FieldIOError("unknown projection mode %r" % mode, path,
                           meta["mode"][1])
    try:
        n_edges = int(meta["edges"][0])
        n_points = int(meta["points"][0])
        sigma = float(meta.get("noise_sigma", ("0.0",))[0])
    except ValueError:
        raise FieldIOError("malformed header metadata", path) from None
    for key, n in (("edges", n_edges), ("points", n_points)):
        if n < 1:
            raise FieldIOError("'# %s' must be >= 1, got %d" % (key, n), path,
                               meta[key][1])
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise FieldIOError("'# noise_sigma' must be a finite float >= 0, got %s"
                           % meta["noise_sigma"][0], path, meta["noise_sigma"][1])

    if not body:
        raise FieldIOError("missing column header row", path)
    header_ln, header = body[0]
    want = "edge,point,vx,vy" if mode == "full_vector" else "edge,point,vt"
    if header != want:
        raise FieldIOError("expected header %r, got %r" % (want, header),
                           path, header_ln)
    ncol = 4 if mode == "full_vector" else 3
    # Samples are kept by flat index and stacked only once the rows cover
    # the declared shape, so a huge declared count allocates nothing.
    rows = {}
    for ln, line in body[1:]:
        parts = line.split(",")
        if len(parts) != ncol:
            raise FieldIOError("expected %d columns, got %d" % (ncol, len(parts)),
                               path, ln)
        try:
            k, m = int(parts[0]), int(parts[1])
            vals = [float(v) for v in parts[2:]]
        except ValueError:
            raise FieldIOError("malformed row %r" % line, path, ln) from None
        if not (0 <= k < n_edges and 0 <= m < n_points):
            raise FieldIOError("sample index (%d, %d) outside declared "
                               "%d edges x %d points" % (k, m, n_edges, n_points),
                               path, ln)
        if not np.all(np.isfinite(vals)):
            raise FieldIOError("non-finite sample value in row %r" % line,
                               path, ln)
        index = k * n_points + m
        if index in rows:
            raise FieldIOError("duplicate sample (%d, %d)" % (k, m), path, ln)
        rows[index] = vals if mode == "full_vector" else vals[0]
    if len(rows) < n_edges * n_points:
        gap = next((i for i, index in enumerate(sorted(rows)) if i != index),
                   len(rows))
        k, m = divmod(gap, n_points)
        raise FieldIOError("missing sample (%d, %d): file declares %d edges x "
                           "%d points" % (k, m, n_edges, n_points), path)
    samples = np.array([rows[i] for i in range(len(rows))])
    return Observation(samples.reshape((n_edges, n_points) + samples.shape[1:]),
                       mode, sigma)


def vertex_values(field):
    """Field values sampled at mesh vertices.

    Velocity gives an (nv, 2) array; vertex scalars pass through; bed
    coefficients are extended by zero off the bed chain.
    """
    mesh = field.space.mesh
    nv = mesh.vertices.shape[0]
    kind = field.space.kind
    if kind is SpaceKind.VELOCITY_P2_VEC:
        return field.values.reshape(-1, 2)[:nv].copy()
    if kind in (SpaceKind.PRESSURE_P1, SpaceKind.COEFF_OMEGA_P1):
        return field.values.copy()
    out = np.zeros(nv)
    out[field.space.basal_vertices] = field.values
    return out


def save_vtk(mesh, path, scalars=None, vectors=None):
    """Legacy ASCII VTK unstructured-grid file with vertex point data.

    ``scalars`` maps names to Fields or (nv,) arrays; ``vectors`` maps
    names to velocity Fields or (nv, 2) arrays.  Quadratic data is
    subsampled at the vertices.
    """
    nv = mesh.vertices.shape[0]
    nt = mesh.triangles.shape[0]
    lines = ["# vtk DataFile Version 3.0", "pglacier output", "ASCII",
             "DATASET UNSTRUCTURED_GRID", "POINTS %d double" % nv]
    lines.extend(_vector_rows(mesh.vertices))
    lines.append("CELLS %d %d" % (nt, 4 * nt))
    lines.extend(["3 %d %d %d" % (a, b, c)
                  for a, b, c in mesh.triangles.tolist()])
    lines.append("CELL_TYPES %d" % nt)
    lines.extend(["5"] * nt)
    lines.append("POINT_DATA %d" % nv)
    for name, data in (scalars or {}).items():
        vals = vertex_values(data) if isinstance(data, Field) else np.asarray(data)
        if vals.shape != (nv,):
            raise ValueError("scalar %r has shape %s, need (%d,)"
                             % (name, vals.shape, nv))
        lines.append("SCALARS %s double 1" % name)
        lines.append("LOOKUP_TABLE default")
        lines.extend(_float_rows(vals))
    for name, data in (vectors or {}).items():
        vals = vertex_values(data) if isinstance(data, Field) else np.asarray(data)
        if vals.shape != (nv, 2):
            raise ValueError("vector %r has shape %s, need (%d, 2)"
                             % (name, vals.shape, nv))
        lines.append("VECTORS %s double" % name)
        lines.extend(_vector_rows(vals))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _csv_text(text, always=True):
    """``text`` as an RFC 4180 CSV field: quoted, its quotes doubled,
    unless ``always`` is false and it holds no comma, quote, CR or LF."""
    if always or any(ch in text for ch in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def save_inversion_history(history, path):
    """Write the inversion history rows as a CSV."""
    lines = ["iter,cost,misfit,regB,regTau,proj_grad_norm,step"]
    for row in history:
        it = int(row[0])
        rest = ",".join(repr(float(v)) for v in row[1:])
        lines.append("%d,%s" % (it, rest))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_inversion_trials(trials, path):
    """Write line-search trial rows as a CSV: the cost is empty for a
    failed forward solve, and the failure text is quoted on one line."""
    lines = ["iter,step,cost,outcome,failure"]
    for it, step, cost, outcome, failure in trials:
        cost = "" if cost is None else repr(float(cost))
        lines.append("%d,%r,%s,%s,%s" % (it, float(step), cost, outcome,
                                         _csv_text(failure.replace("\n", " "))))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
