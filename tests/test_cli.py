"""Command-line interface: subcommands, outputs, determinism and exit
codes, all exercised in process."""

import csv

import numpy as np
import pytest

import pglacier as pg
from pglacier.cli import entry
from pglacier.config import load_config
from pglacier.fieldio import load_field_csv, save_observation
from pglacier.mesh import load_mesh

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
                    + "solver.initial_guess = zero\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    code = run(["forward", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 3
    assert "did not converge" in err
    report = (tmp_path / "o" / "report.csv").read_text()
    assert "converged,0" in report


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


def test_verify_rejects_zero_delta_in_prime_sweep(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY_MESH
                    + "verify.prime_delta_values = 0 0.1\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["verify", "--config", cfg]) == 2
    assert "delta" in capsys.readouterr().err


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
    # effective_config.cfg files written before the key was removed
    # still carry it
    cfg = write_cfg(tmp_path, TINY_MESH + "solver.linear_solver = direct\n"
                    + "run.out = %s\n" % (tmp_path / "o"))
    assert run(["forward", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "unknown config key" in err and "solver.linear_solver" in err


def test_invert_line_search_failure_exits_5(tmp_path, capsys):
    # a huge first step lands on the box corners and raises the cost;
    # with two trials per line search descent stops at once
    cfg = write_cfg(tmp_path, TINY_MESH + TWIN_BLOCK
                    + "opt.step_init = 1e6\n"
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
