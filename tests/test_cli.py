"""Command-line interface: subcommands, outputs, determinism and exit
codes, all exercised in process."""

import csv

import numpy as np
import pytest

import pglacier as pg
from conftest import raise_trial_costs, slit_bed_mesh
from pglacier import adjoint, cli, inversion
from pglacier.cli import entry
from pglacier.config import load_config
from pglacier.fieldio import load_field_csv, save_observation
from pglacier.mesh import load_mesh, save_mesh

TINY_MESH = "mesh.nx = 4\nmesh.ny = 2\n"
TWIN_BLOCK = ("observation.rheology = sine:1.25,0.5,0.5\n"
              "observation.friction = cosine:0.5,0.3,0.5\n"
              "physics.body_force_x = 0.5\n")


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(args):
    return entry(args)


def test_mesh_gen_writes_loadable_mesh(tmp_path):
    cfg = write_cfg(tmp_path, TINY_MESH + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["mesh-gen", "--config", cfg]) == 0
    mesh = load_mesh(tmp_path / "o" / "mesh.pgmesh")
    assert mesh.num_vertices == 5 * 3
    echoed = load_config(tmp_path / "o" / "effective_config.cfg")
    assert echoed["mesh.nx"] == 4


def test_forward_zero_force_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_MESH
                    + "physics.body_force_y = 0.0\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "converged in 0 iterations" in out
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    vel = load_field_csv(spaces.velocity, tmp_path / "o" / "velocity.csv")
    assert np.array_equal(vel.values, np.zeros(spaces.n_u))
    report = (tmp_path / "o" / "report.csv").read_text().splitlines()
    assert report[0] == "key,value"
    rows = dict(line.split(",", 1) for line in report[1:])
    assert rows["converged"] == "1"
    assert rows["iterations"] == "0"
    assert "wall" not in {k for k in rows}
    for name in ("newton_trace.csv", "pressure.csv", "solution.vtk"):
        assert (tmp_path / "o" / name).exists()


def test_forward_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, TINY_MESH + "physics.body_force_x = 0.5\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    names = ("velocity.csv", "pressure.csv", "newton_trace.csv",
             "report.csv", "solution.vtk", "effective_config.cfg")
    assert run(["forward", "--config", cfg]) == 0
    first = {n: (tmp_path / "o" / n).read_bytes() for n in names}
    assert run(["forward", "--config", cfg]) == 0
    for n in names:
        assert (tmp_path / "o" / n).read_bytes() == first[n], n


def test_forward_failure_exits_3_but_reports(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_MESH
                    + "physics.body_force_x = 0.5\n"
                    + "solver.max_newton = 1\n"
                    + "solver.newton_rtol = 1e-14\n"
                    + "solver.newton_atol = 1e-14\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    code = run(["forward", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 3
    assert "did not converge" in err
    report = (tmp_path / "o" / "report.csv").read_text()
    assert "converged,0" in report


def test_infinite_residual_exits_3(tmp_path, capsys):
    # used to print "converged in 0 iterations, residual inf" and exit 0
    cfg = write_cfg(tmp_path, TINY_MESH + "physics.body_force_y = 1e160\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 3
    assert "did not converge" in capsys.readouterr().err
    report = (tmp_path / "o" / "report.csv").read_text()
    assert "converged,0" in report and "final_residual,inf" in report


def test_invert_twin_outputs_and_determinism(tmp_path):
    base = (TINY_MESH + TWIN_BLOCK + "opt.max_iterations = 3\n")
    cfg1 = write_cfg(tmp_path, base + "run.out = %s\n" % (tmp_path / "a"), "a.cfg")
    cfg2 = write_cfg(tmp_path, base + "run.out = %s\n" % (tmp_path / "b"), "b.cfg")
    assert run(["invert", "--config", cfg1]) == 0
    assert run(["invert", "--config", cfg2]) == 0
    hist = (tmp_path / "a" / "history.csv").read_text().splitlines()
    assert hist[0] == "iter,cost,misfit,regB,regTau,proj_grad_norm,step"
    assert len(hist) == 2 + 3  # header + initial row + 3 iterations
    costs = [float(line.split(",")[1]) for line in hist[1:]]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    for name in ("history.csv", "rheology.csv", "friction.csv",
                 "velocity.csv", "adjoint.csv", "inversion.vtk"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    B = load_field_csv(spaces.coeff_omega, tmp_path / "a" / "rheology.csv")
    assert np.all(B.values >= 0.1) and np.all(B.values <= 5.0)


def test_invert_twin_without_truth_fields_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_MESH + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["invert", "--config", cfg]) == 2
    assert "observation.rheology" in capsys.readouterr().err


def test_invert_misaligned_observation_exits_2(tmp_path, capsys):
    obs = pg.Observation(np.zeros((3, 3, 2)))
    obs_path = tmp_path / "obs.csv"
    save_observation(obs, obs_path)
    cfg = write_cfg(tmp_path, TINY_MESH
                    + "observation.source = file\n"
                    + "observation.path = %s\n" % obs_path
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["invert", "--config", cfg]) == 2
    assert "observation/mesh mismatch" in capsys.readouterr().err


def test_verify_passes_and_writes_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_MESH
                    + "verify.samples = 20000\n"
                    + "physics.body_force_x = 0.5\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["verify", "--config", cfg]) == 0
    lines = (tmp_path / "o" / "verify_report.csv").read_text().splitlines()
    assert lines[0] == "check,passed,detail"
    assert len(lines) > 5
    rows = list(csv.reader(lines[1:]))
    assert all(len(row) == 3 and row[1] == "1" for row in rows)
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_report_quotes_names_with_commas(monkeypatch, tmp_path):
    # a check name with a comma used to shift the passed column
    names = ['energy bound mu0 |v|_V2^2 <= |(f, v)|', 'say "ok"', "plain"]
    monkeypatch.setattr(cli, "pointwise_suite", lambda **kwargs: [
        pg.verify.CheckResult(name, True, 'detail "%d", quoted' % k)
        for k, name in enumerate(names)])
    cfg = write_cfg(tmp_path, TINY_MESH + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["verify", "--config", cfg]) == 0
    with open(tmp_path / "o" / "verify_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "passed", "detail"]
    assert all(len(row) == 3 and row[1] == "1" for row in rows[1:])
    assert rows[1:4] == [[name, "1", 'detail "%d", quoted' % k]
                         for k, name in enumerate(names)]
    text = (tmp_path / "o" / "verify_report.csv").read_text()
    assert text.splitlines()[3] == 'plain,1,"detail ""2"", quoted"'


def test_verify_rejects_zero_delta_in_prime_sweep(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_MESH
                    + "verify.prime_delta_values = 0 0.1\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["verify", "--config", cfg]) == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("command,line,msg", [
    ("verify", "verify.p_values =", "expected at least one float"),
    ("verify", "verify.delta_values =", "expected at least one float"),
    ("verify", "verify.prime_delta_values =", "expected at least one float"),
    ("verify", "verify.p_values = 1.2 abc", "expected a float, got 'abc'"),
    ("verify", "verify.p_values = 2.5", "value 2.5 must lie in (1, 2]"),
    ("verify", "verify.p_values = 1.2 nan", "expected a finite float"),
    ("verify", "verify.delta_values = 0 -0.1", "value -0.1 must be >= 0"),
    ("verify", "verify.prime_delta_values = 0.1 0", "value 0 must be > 0"),
    ("taylor", "taylor.h_values = 0.1 x", "expected a float, got 'x'"),
    ("taylor", "taylor.h_values = 0.1 -1e-3", "value -1e-3 must be > 0"),
    ("taylor", "taylor.h_values =", "expected at least one float"),
], ids=["empty_p", "empty_delta", "empty_prime_delta", "p_not_a_float",
        "p_above_2", "p_nan", "negative_delta", "zero_prime_delta",
        "h_not_a_float", "negative_h", "empty_h"])
def test_check_lists_are_validated(tmp_path, capsys, command, line, msg):
    # an empty list used to pass every check it drives vacuously
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK + line + "\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    key = line.split("=")[0].strip()
    assert "config error: line 6: key '%s': %s" % (key, msg) in err
    assert not (tmp_path / "o").exists()


def test_taylor_runs_and_reports_slopes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK
                    + "taylor.directions = 1\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["taylor", "--config", cfg]) == 0
    lines = (tmp_path / "o" / "taylor_report.csv").read_text().splitlines()
    assert lines[0] == "direction,h,remainder_zero,remainder_first"
    assert len(lines) == 1 + 4  # one direction, four step sizes
    for line in lines[1:]:
        k, h, r0, r1 = line.split(",")
        assert int(k) == 0
        assert float(h) > 0 and float(r0) >= 0 and float(r1) >= 0
    assert "first-order slope" in capsys.readouterr().out


def test_missing_config_exits_2(tmp_path, capsys):
    assert run(["forward", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "physics.p = 2.5\n")
    assert run(["forward", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "physics.p" in err and "config error" in err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    # used to reach the solver and exit 3 with a nan residual
    cfg = write_cfg(tmp_path, TINY_MESH + "physics.body_force_x = nan\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "physics.body_force_x" in err
    assert "line 3" in err


def test_missing_mesh_file_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mesh.source = file\nmesh.path = %s\n"
                    % (tmp_path / "nope.pgmesh")
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 2


def test_seed_and_out_overrides(tmp_path):
    cfg = write_cfg(tmp_path, TINY_MESH + "run.seed = 1\n"
                    + "run.out = %s\n" % (tmp_path / "ignored"))
    out = tmp_path / "chosen"
    assert run(["mesh-gen", "--config", cfg, "--out", str(out),
                "--seed", "7"]) == 0
    assert (out / "mesh.pgmesh").exists()
    assert not (tmp_path / "ignored").exists()
    echoed = load_config(out / "effective_config.cfg")
    assert echoed.seed == 7


def test_serial_flag_is_accepted(tmp_path):
    cfg = write_cfg(tmp_path, TINY_MESH + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["mesh-gen", "--config", cfg, "--serial"]) == 0


def test_forward_reports_linear_solve_counts(tmp_path):
    cfg = write_cfg(tmp_path, TINY_MESH + "physics.body_force_x = 0.5\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 0
    report = (tmp_path / "o" / "report.csv").read_text().splitlines()
    rows = dict(line.split(",", 1) for line in report[1:])
    assert rows["factorizations"] == "1"
    assert int(rows["krylov_iterations"]) > 0


def test_removed_linear_solver_key_exits_2(tmp_path, capsys):
    # effective_config.cfg files written before a key was removed still
    # carry it
    for key, value in (("solver.linear_solver", "direct"),
                       ("opt.representation", "H1_smoothed")):
        cfg = write_cfg(tmp_path, TINY_MESH + "%s = %s\n" % (key, value)
                        + "run.out = %s\n" % (tmp_path / "o"))
        assert run(["forward", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and key in err


def test_invert_line_search_failure_exits_5(tmp_path, capsys, monkeypatch):
    # every trial costs more than the start; with two trials per line
    # search the iteration stops at once
    raise_trial_costs(monkeypatch, range(1, 100))
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK
                    + "opt.ls_max = 1\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["invert", "--config", cfg]) == 5
    captured = capsys.readouterr()
    assert "line_search_failed" in captured.out
    assert "no step" in captured.err
    history = (tmp_path / "o" / "history.csv").read_text().splitlines()
    assert len(history) == 2          # header and the starting point
    for name in ("rheology.csv", "friction.csv", "velocity.csv", "adjoint.csv"):
        assert (tmp_path / "o" / name).exists()


def test_invert_writes_deterministic_trial_log(tmp_path, monkeypatch):
    base = TINY_MESH + TWIN_BLOCK + "opt.max_iterations = 3\n"
    for name in ("a", "b"):
        # each run rejects its first trial
        raise_trial_costs(monkeypatch, {1})
        cfg = write_cfg(tmp_path, base + "run.out = %s\n" % (tmp_path / name),
                        name + ".cfg")
        assert run(["invert", "--config", cfg]) == 0
    text = (tmp_path / "a" / "trials.csv").read_bytes()
    assert text == (tmp_path / "b" / "trials.csv").read_bytes()
    lines = text.decode().splitlines()
    assert lines[0] == "iter,step,cost,outcome,failure"
    rows = list(csv.reader(lines[1:]))
    history = (tmp_path / "a" / "history.csv").read_text().splitlines()
    assert [r[3] for r in rows].count("accepted") == len(history) - 2
    assert "rejected" in [r[3] for r in rows]


def test_non_finite_field_csv_exits_2_naming_the_file(tmp_path, capsys):
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    n = spaces.coeff_omega.dof_count
    path = tmp_path / "b.csv"
    path.write_text("dof,value\n" + "".join(
        "%d,%s\n" % (k, "nan" if k == 3 else "1.0") for k in range(n)))
    cfg = write_cfg(tmp_path, TINY_MESH + "fields.rheology = csv:%s\n" % path
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "line 5" in err and "non-finite" in err


# -- exit 2 names the kind of input at fault -----------------------------


def test_non_utf8_field_csv_is_a_data_file_error(tmp_path, capsys):
    # used to read "config error: 'utf-8' codec can't decode byte 0xff",
    # naming no file
    path = tmp_path / "b.csv"
    path.write_bytes(b"dof,value\n0,1.0\n\xff\n")
    cfg = write_cfg(tmp_path, TINY_MESH + "fields.rheology = csv:%s\n" % path
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data file error: %s: not UTF-8" % path)


def test_bad_mesh_is_a_mesh_error(tmp_path, capsys):
    path = tmp_path / "slit.pgmesh"
    save_mesh(slit_bed_mesh(), path)
    cfg = write_cfg(tmp_path, "mesh.source = file\nmesh.path = %s\n" % path
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mesh error: ") and "vertex 4" in err


def test_mesh_file_that_is_not_text_is_named(tmp_path, capsys):
    # used to read "mesh error: mesh file is not UTF-8 text: ...", naming
    # no file
    path = tmp_path / "bad.pgmesh"
    path.write_bytes(b"pgmesh 1\n\xff\n")
    cfg = write_cfg(tmp_path, "mesh.source = file\nmesh.path = %s\n" % path
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mesh error: %s: mesh file is not UTF-8" % path)


def test_truncated_mesh_file_is_named(tmp_path, capsys):
    path = tmp_path / "short.pgmesh"
    path.write_text("pgmesh 1\nvertices 2\n0.0 0.0\n")
    cfg = write_cfg(tmp_path, "mesh.source = file\nmesh.path = %s\n" % path
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mesh error: %s: line 2: vertex count 2 does not "
                          "fit" % path)


def test_misaligned_observation_file_is_a_data_file_error(tmp_path, capsys):
    # used to read "config error: observation/mesh mismatch: ...", naming
    # neither the key nor the file
    obs_path = tmp_path / "obs.csv"
    save_observation(pg.Observation(np.zeros((3, 3, 2))), obs_path)
    cfg = write_cfg(tmp_path, TINY_MESH
                    + "observation.source = file\n"
                    + "observation.path = %s\n" % obs_path
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["invert", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data file error: %s: observation/mesh mismatch: "
                          "data has 3 edges" % obs_path)


def test_missing_data_file_is_a_file_error(tmp_path, capsys):
    path = tmp_path / "absent.csv"
    cfg = write_cfg(tmp_path, TINY_MESH + "fields.rheology = csv:%s\n" % path
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and str(path) in err


@pytest.mark.parametrize("command,key,value,box", [
    ("forward", "fields.rheology", "7.0", "[0.1, 5.0]"),
    ("forward", "fields.friction", "-0.5", "[0.0, 10.0]"),
    ("invert", "observation.rheology", "9.0", "[0.1, 5.0]"),
    ("invert", "observation.friction", "11.0", "[0.0, 10.0]"),
])
def test_out_of_box_field_names_its_key(tmp_path, capsys, command, key, value,
                                        box):
    specs = {"observation.rheology": "1.0", "observation.friction": "0.5",
             key: value}
    cfg = write_cfg(tmp_path, TINY_MESH
                    + "".join("%s = %s\n" % kv for kv in specs.items())
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key '%s'" % key)
    assert "admissible box %s" % box in err


def test_internal_value_error_is_not_a_config_error(tmp_path, capsys,
                                                    monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")
    monkeypatch.setattr(cli, "solve_forward", broken)
    cfg = write_cfg(tmp_path, TINY_MESH + "run.out = %s\n" % (tmp_path / "o"))
    with pytest.raises(ValueError, match="internal fault"):
        run(["forward", "--config", cfg])
    assert "config error" not in capsys.readouterr().err


def test_negative_seed_override_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_MESH + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["mesh-gen", "--config", cfg, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "run.seed" in err


def test_verify_on_unconverged_forward_solve_exits_3(tmp_path, capsys):
    # used to run the Hoelder probes on the unconverged state and fail
    # with ZeroDivisionError
    cfg = write_cfg(tmp_path, TINY_MESH + "physics.body_force_y = 1e160\n"
                    + "verify.samples = 1000\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["verify", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: forward solve did not converge")


def test_invert_with_non_finite_starting_cost_exits_2(tmp_path, capsys):
    # used to print "cost inf -> inf" and exit 0
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK
                    + "observation.noise_sigma = 1e300\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["invert", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'observation.noise_sigma': the "
                          "starting cost is not finite")


def test_observation_file_with_non_finite_cost_exits_2(tmp_path, capsys):
    spaces = pg.build_spaces(pg.generate_slab_mesh(2.0, 1.0, 4, 2))
    shape = (spaces.mesh.observed_edges.size,
             spaces.quadrature.edge_points.size, 2)
    obs_path = tmp_path / "obs.csv"
    save_observation(pg.Observation(np.full(shape, 1e300)), obs_path)
    cfg = write_cfg(tmp_path, TINY_MESH
                    + "observation.source = file\n"
                    + "observation.path = %s\n" % obs_path
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["invert", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data file error: %s: the starting cost is not "
                          "finite" % obs_path)


def test_verify_on_unconverged_forward_solve_skips_pointwise_sweep(
        tmp_path, capsys, monkeypatch):
    # the pointwise sweep used to run in full before the forward solve
    # was found not to converge
    def sweep(*args, **kwargs):
        raise AssertionError("pointwise sweep ran")
    monkeypatch.setattr(cli, "pointwise_suite", sweep)
    cfg = write_cfg(tmp_path, TINY_MESH + "physics.body_force_y = 1e160\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["verify", "--config", cfg]) == 3
    assert "solver failure" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verify_report.csv").exists()


def test_taylor_with_non_finite_starting_cost_exits_2(tmp_path, capsys):
    # used to write nan remainders and exit 4
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK
                    + "observation.noise_sigma = 1e300\n"
                    + "taylor.directions = 1\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["taylor", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: key 'observation.noise_sigma': the "
                          "starting cost is not finite")
    assert not (tmp_path / "o" / "taylor_report.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("fields.friction", "0.0"),
    ("fields.rheology", "0.1"),
    ("fields.rheology", "5.0"),
])
def test_taylor_on_field_at_box_bound_exits_2(tmp_path, capsys, key, value):
    # used to scale every direction by 0 and exit 4 on slopes of roundoff
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK
                    + "%s = %s\n" % (key, value)
                    + "taylor.directions = 1\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["taylor", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: key '%s': field reaches a "
                                   "bound of the admissible box" % key)
    assert "scaled by" not in captured.out


def test_taylor_on_field_just_inside_the_box_scales_only_that_field(
        tmp_path, capsys):
    # used to scale the rheology part by the friction margin too, giving
    # slopes of roundoff and exit 4
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK
                    + "fields.friction = 1e-12\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["taylor", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "friction part scaled by" in out
    assert "rheology part scaled by" not in out
    assert "first-order remainder slopes meet threshold 1.8" in out


def test_taylor_with_every_field_a_hair_inside_the_box_exits_2(tmp_path,
                                                              capsys):
    # used to scale both parts of every direction (by 5e-10 and 5e-12),
    # giving first-order slopes 0.483, 0.302, 0.187 and exit 4
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK
                    + "fields.rheology = 0.1000000001\n"
                    + "fields.friction = 1e-12\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["taylor", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: key 'fields.rheology': every "
                                   "field lies within 0.0001 of its box width")
    assert "friction 1e-13" in captured.err
    assert "scaled by" not in captured.out
    assert not (tmp_path / "o" / "taylor_report.csv").exists()


def test_taylor_solves_and_factors_its_base_state_once(tmp_path, monkeypatch):
    calls = {"assemble_adjoint_operator": [], "solve_forward": [],
             "taylor_test": []}
    for owner, name in ((adjoint, "assemble_adjoint_operator"),
                        (inversion, "solve_forward"), (cli, "taylor_test")):
        def counted(*args, _original=getattr(owner, name), _name=name,
                    **kwargs):
            calls[_name].append((args, kwargs))
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK
                    + "taylor.directions = 3\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["taylor", "--config", cfg]) == 0
    # twin data, the base state and four step sizes per direction; one
    # dual factorization serves all three directions
    assert len(calls["assemble_adjoint_operator"]) == 1
    assert len(calls["solve_forward"]) == 2 + 3 * 4
    # the report holds what each direction gives at a base solved afresh
    rows = []
    for k, (args, kwargs) in enumerate(calls["taylor_test"]):
        state, db, df, params, solver = args
        fresh = inversion.make_state(state.rheology, state.friction,
                                     state.obs, params, solver)
        report = inversion.taylor_test(fresh, db, df, params, solver, **kwargs)
        rows += ["%d,%r,%r,%r" % (k, float(h), float(r0), float(r1))
                 for h, r0, r1 in zip(report.h_values, report.remainder_zero,
                                      report.remainder_first)]
    assert k == 2
    lines = (tmp_path / "o" / "taylor_report.csv").read_text().splitlines()
    assert lines[1:] == rows


def test_every_subcommand_runs_on_a_mesh_file_with_no_bed(tmp_path):
    # a valid mesh file with no basal edge has an empty friction space:
    # every subcommand used to exit 1 on its empty box margin, then
    # invert on its 0x0 Riesz Gram matrix and taylor on its empty parts
    mesh = pg.generate_slab_mesh(2.0, 1.0, 8, 4)
    tags = mesh.boundary_tags.copy()
    tags[tags == int(pg.BoundaryTag.BASAL)] = int(pg.BoundaryTag.DIRICHLET)
    save_mesh(pg.Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges, tags,
                      mesh.observed), tmp_path / "clamped.pgmesh")
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, "mesh.source = file\nmesh.path = %s\n"
                    % (tmp_path / "clamped.pgmesh") + TWIN_BLOCK
                    + "taylor.directions = 1\n" + "run.out = %s\n" % out)
    for command in ("forward", "verify", "invert", "taylor"):
        assert run([command, "--config", cfg]) == 0, command
    assert "lu_fallbacks,0" in (out / "report.csv").read_text().splitlines()
    with open(out / "verify_report.csv", newline="") as fh:
        rows = {row["check"]: row for row in csv.DictReader(fh)}
    assert all(row["passed"] == "1" for row in rows.values())
    assert rows["bed-trace constant (measured)"]["detail"] == "C_trace = 0"
    assert len((out / "taylor_report.csv").read_text().splitlines()) == 1 + 4
    # the empty friction field has no room to perturb, so it does not
    # hide a rheology field a hair inside its box
    hair = write_cfg(tmp_path, "fields.rheology = 0.1000000001\n"
                     + open(cfg).read(), name="hair.cfg")
    assert run(["taylor", "--config", hair]) == 2
