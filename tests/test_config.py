"""Run configuration: parsing, validation, typed accessors, the echo
round trip and field spec realization."""

import numpy as np
import pytest

import pglacier as pg
from pglacier.config import (SCHEMA, ConfigError, RunConfig, config_from_text,
                             load_config, parse_config_text, parse_field_spec,
                             realize_field)
from pglacier.fieldio import save_field_csv
from pglacier.mesh import save_mesh


def test_empty_text_yields_all_defaults():
    values = parse_config_text("")
    assert set(values) == set(SCHEMA)
    assert values["physics.p"] == 4.0 / 3.0
    assert values["physics.s"] is None
    assert values["mesh.nx"] == 16
    assert values["run.out"] == "out"


def test_comments_and_blank_lines_are_ignored():
    text = """
    # a comment
    physics.p = 1.5   # inline comment

    mesh.nx = 4
    """
    values = parse_config_text(text)
    assert values["physics.p"] == 1.5
    assert values["mesh.nx"] == 4


def test_echo_round_trip_reproduces_every_value():
    cfg = config_from_text("""
    physics.p = 1.7
    physics.s = 1.25
    physics.body_force_x = 0.5
    mesh.observed_xmin = 0.5
    mesh.observed_xmax = 1.5
    fields.rheology = sine:1.0,0.25,1
    opt.ls_max = 5
    run.seed = 7
    """)
    echoed = "\n".join(cfg.echo_lines()) + "\n"
    again = parse_config_text(echoed)
    assert again == cfg.values


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown config key") as err:
        parse_config_text("physics.q = 3\n")
    assert err.value.key == "physics.q"
    assert err.value.line == 1


def test_duplicate_key_is_rejected():
    with pytest.raises(ConfigError, match="duplicate key") as err:
        parse_config_text("mesh.nx = 4\nmesh.nx = 8\n")
    assert err.value.line == 2


def test_missing_equals_is_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'") as err:
        parse_config_text("mesh.nx 4\n")
    assert err.value.line == 1


@pytest.mark.parametrize("line,msg", [
    ("physics.p = fast", "expected a float"),
    ("mesh.nx = 4.5", "expected an integer"),
    ("observation.mode = radial", "expected one of full_vector/tangential"),
    ("physics.p = 2.5", r"must lie in \(1, 2\)"),
    ("physics.delta = 0", "must be > 0"),
    ("physics.mu0 = -1", "must be > 0"),
    ("solver.max_newton = 0", "must be >= 1"),
    ("solver.ls_shrink = 0.5", "line 1: key 'solver.ls_shrink': unknown config key"),
    ("solver.ls_decrease = 1e-4",
     "line 1: key 'solver.ls_decrease': unknown config key"),
    ("solver.ls_max = 30", "line 1: key 'solver.ls_max': unknown config key"),
    ("solver.initial_guess = zero",
     "line 1: key 'solver.initial_guess': unknown config key"),
    ("opt.grad_tol = 1e-9", "line 1: key 'opt.grad_tol': unknown config key"),
    ("opt.step_growth = 2.0", "line 1: key 'opt.step_growth': unknown config key"),
    ("opt.armijo_shrink = 0.5",
     "line 1: key 'opt.armijo_shrink': unknown config key"),
    ("opt.armijo_c = 1e-4", "line 1: key 'opt.armijo_c': unknown config key"),
    ("opt.step_init = 1.0", "line 1: key 'opt.step_init': unknown config key"),
    ("opt.representation = L2",
     "line 1: key 'opt.representation': unknown config key"),
    ("verify.samples = 0", "must be >= 1"),
])
def test_value_validation(line, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config_text(line + "\n")


@pytest.mark.parametrize("key,value", [
    ("physics.body_force_x", "nan"),
    ("physics.mu0", "inf"),
    ("physics.reg_rheology", "-inf"),
    ("physics.s", "NaN"),
    ("mesh.observed_xmin", "inf"),
])
def test_non_finite_floats_are_rejected(key, value):
    with pytest.raises(ConfigError, match="expected a finite float") as err:
        parse_config_text("mesh.nx = 4\n%s = %s\n" % (key, value))
    assert err.value.key == key
    assert err.value.line == 2


@pytest.mark.parametrize("text,key,msg", [
    ("physics.p = 1.5\nphysics.s = 1.8\n", "physics.s", r"in \(1, p\]"),
    ("physics.rheology_min = 2.0\nphysics.rheology_max = 1.0\n",
     "physics.rheology_min", "below upper bound"),
    ("mesh.source = file\n", "mesh.path", "required when mesh.source"),
    ("observation.source = file\n", "observation.path",
     "required when observation.source"),
    ("mesh.observed_xmin = 0.5\n", "mesh.observed_xmin", "set together"),
])
def test_cross_validation(text, key, msg):
    with pytest.raises(ConfigError, match=msg) as err:
        parse_config_text(text)
    assert err.value.key == key


def test_none_literal_for_optional_floats():
    values = parse_config_text("mesh.observed_xmin = none\n"
                               "mesh.observed_xmax = none\n")
    assert values["mesh.observed_xmin"] is None


def test_physics_accessor():
    cfg = config_from_text("""
    physics.p = 1.5
    physics.delta = 0.2
    physics.mu0 = 0.05
    physics.body_force_x = 0.5
    physics.reg_rheology = 1e-4
    """)
    params = cfg.physics()
    assert params.p == 1.5
    assert params.s == 1.5  # defaults to p
    assert params.delta == 0.2
    assert params.body_force == (0.5, -1.0)
    assert params.reg_rheology == 1e-4
    assert cfg.physics().rheology_max == 5.0


def test_solver_accessor_threads_trace_path():
    cfg = config_from_text("solver.newton_rtol = 1e-8\nsolver.max_newton = 7\n")
    sc = cfg.solver(trace_path="/tmp/trace.csv")
    assert sc.newton_rtol == 1e-8
    assert sc.max_newton == 7
    assert sc.trace_path == "/tmp/trace.csv"
    assert cfg.solver().trace_path is None


def test_optimization_accessor():
    cfg = config_from_text("opt.max_iterations = 3\nopt.ls_max = 5\n")
    oc = cfg.optimization()
    assert oc.max_iterations == 3
    assert oc.ls_max == 5


def test_run_properties():
    cfg = config_from_text("run.seed = 9\nrun.out = results\n")
    assert cfg.seed == 9
    assert cfg.out_dir == "results"


def test_build_mesh_slab_dimensions():
    cfg = config_from_text("mesh.nx = 4\nmesh.ny = 2\nmesh.length = 3.0\n")
    mesh = cfg.build_mesh()
    assert mesh.num_vertices == 5 * 3
    assert np.isclose(mesh.vertices[:, 0].max(), 3.0)


def test_build_mesh_sinusoidal_bed():
    cfg = config_from_text("mesh.bed_amplitude = 0.1\nmesh.nx = 8\n")
    mesh = cfg.build_mesh()
    bottom = mesh.vertices[np.isclose(mesh.vertices[:, 0], 0.5)][:, 1].min()
    # bed = 0.1 sin(2 pi x / 2), at x = 0.5 the bed sits at 0.1
    assert np.isclose(bottom, 0.1)


def test_build_mesh_observed_span():
    cfg = config_from_text("mesh.observed_xmin = 0.5\n"
                           "mesh.observed_xmax = 1.5\n")
    mesh = cfg.build_mesh()
    mids = mesh.boundary_edges[mesh.observed_edges]
    xm = mesh.vertices[mids].mean(axis=1)[:, 0]
    assert np.all((xm >= 0.5) & (xm <= 1.5))
    assert mesh.observed_edges.size == 8


def test_build_mesh_from_file(tmp_path):
    mesh = pg.generate_slab_mesh(2.0, 1.0, 3, 2)
    path = tmp_path / "mesh.pgmesh"
    save_mesh(mesh, path)
    cfg = config_from_text("mesh.source = file\nmesh.path = %s\n" % path)
    back = cfg.build_mesh()
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_rejects_bytes_that_are_not_text(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"mesh.nx = 4\n# \xff\n")
    with pytest.raises(ConfigError, match="not UTF-8") as err:
        load_config(path)
    assert str(path) in str(err.value)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mesh.nx = 4\n")
    cfg = load_config(path)
    assert isinstance(cfg, RunConfig)
    assert cfg["mesh.nx"] == 4


# -- field specs --------------------------------------------------------


@pytest.mark.parametrize("spec,want", [
    ("1.25", ("const", 1.25)),
    ("  -0.5 ", ("const", -0.5)),
    ("csv:fields/b.csv", ("csv", "fields/b.csv")),
    ("sine:1.0,0.5,2", ("sine", 1.0, 0.5, 2.0)),
    ("cosine:0.5,0.4,1", ("cosine", 0.5, 0.4, 1.0)),
])
def test_parse_field_spec(spec, want):
    assert parse_field_spec(spec, "fields.rheology") == want


@pytest.mark.parametrize("spec,msg", [
    ("", "empty field spec"),
    ("csv:", "csv spec needs a path"),
    ("sine:1.0,0.5", "needs base,amp,periods"),
    ("cosine:a,b,c", "malformed cosine spec"),
    ("triangle:1,2,3", "unrecognized field spec"),
])
def test_parse_field_spec_errors(spec, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_field_spec(spec, "fields.rheology")


def test_realize_constant_field(slab_spaces):
    f = realize_field("2.5", slab_spaces.coeff_omega, 2.0)
    assert np.array_equal(f.values, np.full(slab_spaces.coeff_omega.dof_count, 2.5))


def test_realize_sine_on_vertices(slab_spaces):
    f = realize_field("sine:1.0,0.25,1", slab_spaces.coeff_omega, 2.0)
    x = slab_spaces.mesh.vertices[:, 0]
    want = 1.0 + 0.25 * np.sin(2.0 * np.pi * x / 2.0)
    assert np.allclose(f.values, want, atol=1e-15)


def test_realize_cosine_on_bed_chain(slab_spaces):
    f = realize_field("cosine:0.5,0.4,2", slab_spaces.coeff_basal, 2.0)
    x = slab_spaces.coeff_basal.basal_coords[:, 0]
    want = 0.5 + 0.4 * np.cos(2.0 * np.pi * 2.0 * x / 2.0)
    assert np.allclose(f.values, want, atol=1e-15)


def test_realize_csv_field(tmp_path, slab_spaces):
    field = pg.Field(slab_spaces.coeff_basal,
                     np.linspace(0.1, 0.9, slab_spaces.coeff_basal.dof_count))
    path = tmp_path / "tau.csv"
    save_field_csv(field, path)
    back = realize_field("csv:%s" % path, slab_spaces.coeff_basal, 2.0)
    assert np.array_equal(back.values, field.values)


def test_realize_rejects_non_coefficient_space(slab_spaces):
    with pytest.raises(ConfigError, match="coefficient spaces"):
        realize_field("sine:1,1,1", slab_spaces.velocity, 2.0)
