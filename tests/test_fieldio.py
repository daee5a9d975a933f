"""File formats: field CSVs, observation files, VTK output and the
inversion history CSV."""

import numpy as np
import pytest

import pglacier as pg
from pglacier.adjoint import Observation
from pglacier.fieldio import (FieldIOError, load_field_csv, load_observation,
                              save_field_csv, save_inversion_history,
                              save_observation, save_vtk, vertex_values)

rng = np.random.default_rng(59)


@pytest.fixture(scope="module")
def spaces():
    return pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 2, 2))


def awkward_values(n):
    # thirds, tiny and huge magnitudes exercise repr round-tripping
    vals = rng.standard_normal(n) / 3.0
    vals[0] = 1.0 / 3.0
    if n > 2:
        vals[1] = 1e-300
        vals[2] = -1e300
    return vals


@pytest.mark.parametrize("which", ["coeff_omega", "coeff_basal", "velocity",
                                   "pressure"])
def test_field_csv_round_trip_is_bit_exact(tmp_path, spaces, which):
    space = getattr(spaces, which)
    field = pg.Field(space, awkward_values(space.dof_count))
    path = tmp_path / "field.csv"
    save_field_csv(field, path)
    back = load_field_csv(space, path)
    assert np.array_equal(back.values, field.values)
    lines = path.read_text().splitlines()
    assert lines[0] == "dof,value"
    assert len(lines) == 1 + space.dof_count


def test_field_csv_rejects_bad_header(tmp_path, spaces):
    path = tmp_path / "bad.csv"
    path.write_text("value,dof\n0,1.0\n")
    with pytest.raises(FieldIOError, match="dof,value") as err:
        load_field_csv(spaces.coeff_omega, path)
    assert err.value.line == 1
    assert str(path) in str(err.value)


def test_field_csv_rejects_malformed_row(tmp_path, spaces):
    path = tmp_path / "bad.csv"
    path.write_text("dof,value\n0,not-a-number\n")
    with pytest.raises(FieldIOError, match="malformed row") as err:
        load_field_csv(spaces.coeff_omega, path)
    assert err.value.line == 2


def test_field_csv_rejects_extra_columns(tmp_path, spaces):
    path = tmp_path / "bad.csv"
    path.write_text("dof,value\n0,1.0,2.0\n")
    with pytest.raises(FieldIOError, match="expected 'dof,value'"):
        load_field_csv(spaces.coeff_omega, path)


def test_field_csv_rejects_out_of_order_rows(tmp_path, spaces):
    path = tmp_path / "bad.csv"
    path.write_text("dof,value\n1,1.0\n0,2.0\n")
    with pytest.raises(FieldIOError, match="out of order") as err:
        load_field_csv(spaces.coeff_omega, path)
    assert err.value.line == 2


def test_field_csv_rejects_too_many_rows(tmp_path, spaces):
    n = spaces.coeff_omega.dof_count
    rows = ["dof,value"] + ["%d,1.0" % k for k in range(n + 1)]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(FieldIOError, match="exceeds space size"):
        load_field_csv(spaces.coeff_omega, path)


def test_field_csv_rejects_missing_rows(tmp_path, spaces):
    n = spaces.coeff_omega.dof_count
    rows = ["dof,value"] + ["%d,1.0" % k for k in range(n - 2)]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(FieldIOError,
                       match="has %d dofs, space needs %d" % (n - 2, n)) as err:
        load_field_csv(spaces.coeff_omega, path)
    assert err.value.line is None


@pytest.mark.parametrize("mode", ["full_vector", "tangential"])
def test_observation_round_trip(tmp_path, mode):
    shape = (4, 3, 2) if mode == "full_vector" else (4, 3)
    obs = Observation(rng.standard_normal(shape) / 3.0, mode,
                      noise_sigma=0.01)
    path = tmp_path / "obs.csv"
    save_observation(obs, path)
    back = load_observation(path)
    assert back.mode == mode
    assert back.noise_sigma == 0.01
    assert np.array_equal(back.samples, obs.samples)


def observation_text(rows=None):
    base = ["# observation v1", "# mode = full_vector",
            "# noise_sigma = 0.0", "# edges = 2", "# points = 2",
            "edge,point,vx,vy"]
    if rows is None:
        rows = ["%d,%d,1.0,2.0" % (k, m) for k in range(2) for m in range(2)]
    return "\n".join(base + rows) + "\n"


def test_observation_missing_header_key(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(observation_text().replace("# mode = full_vector\n", ""))
    with pytest.raises(FieldIOError, match="missing '# mode"):
        load_observation(path)


def test_observation_wrong_column_header(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(observation_text().replace("edge,point,vx,vy",
                                               "edge,point,u,v"))
    with pytest.raises(FieldIOError, match="expected header"):
        load_observation(path)


def test_observation_wrong_column_count(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(observation_text(["0,0,1.0"]))
    with pytest.raises(FieldIOError, match="expected 4 columns, got 3"):
        load_observation(path)


def test_observation_malformed_number(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(observation_text(["0,0,one,2.0"]))
    with pytest.raises(FieldIOError, match="malformed row"):
        load_observation(path)


def test_observation_index_outside_declared_shape(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(observation_text(["5,0,1.0,2.0"]))
    with pytest.raises(FieldIOError, match=r"\(5, 0\) outside declared"):
        load_observation(path)


def test_observation_duplicate_sample(tmp_path):
    rows = ["0,0,1.0,2.0", "0,0,3.0,4.0", "0,1,1.0,2.0",
            "1,0,1.0,2.0", "1,1,1.0,2.0"]
    path = tmp_path / "obs.csv"
    path.write_text(observation_text(rows))
    with pytest.raises(FieldIOError, match=r"duplicate sample \(0, 0\)"):
        load_observation(path)


def test_observation_missing_sample(tmp_path):
    rows = ["0,0,1.0,2.0", "0,1,1.0,2.0", "1,0,1.0,2.0"]
    path = tmp_path / "obs.csv"
    path.write_text(observation_text(rows))
    with pytest.raises(FieldIOError, match=r"missing sample \(1, 1\)"):
        load_observation(path)


@pytest.mark.parametrize("old,new,line,msg", [
    ("0,1,1.0,2.0", "0,1,nan,2.0", 8, "non-finite sample value"),
    ("1,1,1.0,2.0", "1,1,1.0,-inf", 10, "non-finite sample value"),
    ("# edges = 2", "# edges = -1", 4, "'# edges' must be >= 1, got -1"),
    ("# points = 2", "# points = 0", 5, "'# points' must be >= 1, got 0"),
    ("# edges = 2", "# edges = 100000000000", None,
     r"missing sample \(2, 0\): file declares 100000000000 edges"),
    ("# mode = full_vector", "# mode = bogus", 2,
     "unknown projection mode 'bogus'"),
    ("# noise_sigma = 0.0", "# noise_sigma = nan", 3,
     "'# noise_sigma' must be a finite float >= 0, got nan"),
    ("# noise_sigma = 0.0", "# noise_sigma = inf", 3,
     "'# noise_sigma' must be a finite float >= 0, got inf"),
    ("# noise_sigma = 0.0", "# noise_sigma = -0.5", 3,
     "'# noise_sigma' must be a finite float >= 0, got -0.5"),
], ids=["nan_sample", "inf_sample", "negative_edges", "zero_points",
        "huge_edges", "bogus_mode", "nan_noise", "inf_noise", "negative_noise"])
def test_observation_rejects_bad_input(tmp_path, old, new, line, msg):
    path = tmp_path / "obs.csv"
    path.write_text(observation_text().replace(old, new))
    with pytest.raises(FieldIOError, match=msg) as err:
        load_observation(path)
    assert err.value.path == path
    assert err.value.line == line
    assert str(path) in str(err.value)


def test_field_csv_rejects_bytes_that_are_not_text(tmp_path, spaces):
    path = tmp_path / "b.csv"
    path.write_bytes(b"dof,value\n0,1.0\n\xff\n")
    with pytest.raises(FieldIOError, match="not UTF-8") as err:
        load_field_csv(spaces.coeff_omega, path)
    assert err.value.path == path
    assert str(path) in str(err.value)


def test_observation_rejects_bytes_that_are_not_text(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_bytes(observation_text().encode() + b"\xff\xfe\n")
    with pytest.raises(FieldIOError, match="not UTF-8") as err:
        load_observation(path)
    assert err.value.path == path


def test_vertex_values_velocity_subsamples(spaces):
    nv = spaces.mesh.num_vertices
    v = pg.Field(spaces.velocity, rng.standard_normal(spaces.n_u))
    out = vertex_values(v)
    assert out.shape == (nv, 2)
    assert np.array_equal(out, v.values.reshape(-1, 2)[:nv])
    out[0, 0] = 123.0  # returned array is a copy
    assert v.values[0] != 123.0


def test_vertex_values_basal_extends_by_zero(spaces):
    tau = pg.Field(spaces.coeff_basal,
                   rng.standard_normal(spaces.coeff_basal.dof_count))
    out = vertex_values(tau)
    assert out.shape == (spaces.mesh.num_vertices,)
    assert np.array_equal(out[spaces.coeff_basal.basal_vertices], tau.values)
    off = np.setdiff1d(np.arange(spaces.mesh.num_vertices),
                       spaces.coeff_basal.basal_vertices)
    assert np.array_equal(out[off], np.zeros(off.size))


def test_vtk_structure(tmp_path, spaces):
    mesh = spaces.mesh
    nv, nt = mesh.num_vertices, mesh.num_triangles
    press = pg.Field(spaces.pressure, rng.standard_normal(nv) / 3.0)
    vel = pg.Field(spaces.velocity, rng.standard_normal(spaces.n_u) / 3.0)
    path = tmp_path / "out.vtk"
    save_vtk(mesh, path, scalars={"pressure": press}, vectors={"velocity": vel})
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS %d double" % nv
    points = lines[5:5 + nv]
    for row, (x, y) in zip(points, mesh.vertices):
        sx, sy, sz = row.split()
        assert float(sx) == x and float(sy) == y and sz == "0.0"
    k = 5 + nv
    assert lines[k] == "CELLS %d %d" % (nt, 4 * nt)
    cells = lines[k + 1:k + 1 + nt]
    for row, tri in zip(cells, mesh.triangles):
        assert row == "3 %d %d %d" % tuple(tri)
    k += 1 + nt
    assert lines[k] == "CELL_TYPES %d" % nt
    assert all(s == "5" for s in lines[k + 1:k + 1 + nt])
    k += 1 + nt
    assert lines[k] == "POINT_DATA %d" % nv
    assert lines[k + 1] == "SCALARS pressure double 1"
    assert lines[k + 2] == "LOOKUP_TABLE default"
    svals = [float(s) for s in lines[k + 3:k + 3 + nv]]
    assert np.array_equal(svals, press.values)
    k += 3 + nv
    assert lines[k] == "VECTORS velocity double"
    want = vertex_values(vel)
    for row, (vx, vy) in zip(lines[k + 1:k + 1 + nv], want):
        sx, sy, sz = row.split()
        assert float(sx) == vx and float(sy) == vy and sz == "0.0"


def test_vtk_rejects_bad_shapes(tmp_path, spaces):
    with pytest.raises(ValueError, match="scalar 'b' has shape"):
        save_vtk(spaces.mesh, tmp_path / "x.vtk",
                 scalars={"b": np.zeros(3)})
    with pytest.raises(ValueError, match="vector 'v' has shape"):
        save_vtk(spaces.mesh, tmp_path / "x.vtk",
                 vectors={"v": np.zeros((3, 2))})


def test_history_csv_format(tmp_path):
    history = [(0, 1.0 / 3.0, 0.25, 1e-300, 0.0, 2.5e-3, 0.0),
               (1, 0.2, 0.1, 0.05, 0.05, 1.2e-4, 0.5)]
    path = tmp_path / "history.csv"
    save_inversion_history(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,cost,misfit,regB,regTau,proj_grad_norm,step"
    assert len(lines) == 3
    for row, line in zip(history, lines[1:]):
        parts = line.split(",")
        assert int(parts[0]) == row[0]
        for want, got in zip(row[1:], parts[1:]):
            assert float(got) == want


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_field_csv_rejects_non_finite_values(tmp_path, spaces, bad):
    n = spaces.coeff_omega.dof_count
    rows = ["dof,value"] + ["%d,%s" % (k, bad if k == 2 else "1.0")
                            for k in range(n)]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(FieldIOError, match="non-finite value") as err:
        load_field_csv(spaces.coeff_omega, path)
    assert err.value.line == 4
    assert str(path) in str(err.value)


def test_trials_csv_format(tmp_path):
    import csv

    from pglacier.fieldio import save_inversion_trials

    trials = [(1, 2.0, None, "solver_failure", 'a "quoted", failure'),
              (1, 1.0, 1.0 / 3.0, "rejected", ""),
              (1, 0.5, 0.25, "accepted", "")]
    path = tmp_path / "trials.csv"
    save_inversion_trials(trials, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,step,cost,outcome,failure"
    rows = list(csv.reader(lines[1:]))
    assert len(rows) == 3
    for want, got in zip(trials, rows):
        assert int(got[0]) == want[0] and float(got[1]) == want[1]
        assert got[2] == ("" if want[2] is None else repr(want[2]))
        assert got[3:] == [want[3], want[4]]
