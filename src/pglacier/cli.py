"""Command-line entry point.

Subcommands: ``forward`` (solve the momentum balance and write the
velocity/pressure fields), ``invert`` (run the coefficient
identification), ``verify`` (inequality suites with a pass/fail table),
``taylor`` (gradient remainder-decay check) and ``mesh-gen`` (write a
slab mesh).  Exit codes: 0 success, 2 configuration or input-file error
(the stderr message starts with ``config error:``, ``data file error:``,
``mesh error:`` or ``file error:``; observations that make the
starting cost of ``invert`` or ``taylor`` non-finite are one, and so
are a ``taylor`` field at a bound of the admissible box and ``taylor``
fields that all lie within ``TAYLOR_MARGIN_FLOOR`` of their box width
from a bound), 3 solver failure (``verify`` stops at an unconverged
forward solve, before its pointwise sweep), 4 verification failure, 5
inversion stopped because its line search found no acceptable
Gauss-Newton step.  Any other exception is an internal error: it exits
1 with a traceback.

All CSV outputs are deterministic for a fixed config and seed: floats
are written with repr precision and wall-clock times never enter
files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .adjoint import _check_alignment
from .config import ConfigError, load_config, realize_field
from .fieldio import (FieldIOError, load_observation, save_field_csv,
                      save_inversion_history, save_inversion_trials, save_vtk)
from .forward import SolverError, solve_forward
from .inversion import (NonFiniteCostError, make_state, make_twin_data,
                        run_inversion, taylor_test)
from .mesh import MeshError, save_mesh
from .spaces import Field, build_spaces
from .verify import discrete_suite, pointwise_suite

# ``taylor`` perturbs only inside the admissible box; when every field
# lies closer to a bound than this fraction of its box width, the
# perturbed costs differ from the base cost by little more than
# roundoff and no remainder slope can be measured.
TAYLOR_MARGIN_FLOOR = 1e-4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pglacier",
        description="Nonlinear glacier momentum solver and coefficient "
                    "identification toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("forward", "solve the momentum balance"),
                        ("invert", "identify rheology and friction from "
                                   "surface velocities"),
                        ("verify", "run the inequality verification suites"),
                        ("taylor", "gradient remainder-decay check"),
                        ("mesh-gen", "generate a slab mesh")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory "
                       "(overrides run.out)")
        p.add_argument("--serial", action="store_true",
                       help="force serial execution (the default; kept for "
                            "reproducibility contracts)")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed")
    return parser


def _floats(text):
    return [float(t) for t in text.split()]


def _coefficients(cfg, spaces, params, section):
    """The rheology and friction fields that ``section`` (``fields`` or
    ``observation``) specifies, each checked against the admissible box."""
    length = cfg["mesh.length"]
    rheology = realize_field(cfg[section + ".rheology"], spaces.coeff_omega,
                             length, section + ".rheology")
    friction = realize_field(cfg[section + ".friction"], spaces.coeff_basal,
                             length, section + ".friction")
    for key, margin in _box_margins(rheology, friction, params).items():
        if not margin >= 0.0:
            raise ConfigError("field leaves the admissible box [%r, %r]"
                              % params.box[key], section + "." + key)
    return rheology, friction


def _box_margins(rheology, friction, params):
    """Each field's distance from the bounds of its admissible interval,
    keyed by field name: negative outside it, nan for a nan value and
    inf for a field with no values (a mesh with no bed has no friction)."""
    return {key: float(min((field.values - lo).min(initial=np.inf),
                           (hi - field.values).min(initial=np.inf)))
            for field, (key, (lo, hi)) in zip((rheology, friction),
                                              params.box.items())}


def _prepare(cfg):
    mesh = cfg.build_mesh()
    spaces = build_spaces(mesh)
    params = cfg.physics()
    rheology, friction = _coefficients(cfg, spaces, params, "fields")
    return mesh, spaces, params, rheology, friction


def _load_observation(cfg, spaces, params, solver_config):
    if cfg["observation.source"] == "file":
        path = cfg["observation.path"]
        obs = load_observation(path)
        try:
            _check_alignment(spaces, obs)
        except ValueError as exc:
            raise FieldIOError(str(exc), path) from None
        return obs
    if not cfg["observation.rheology"] or not cfg["observation.friction"]:
        raise ConfigError("twin observations need observation.rheology and "
                          "observation.friction field specs",
                          "observation.rheology")
    b_true, f_true = _coefficients(cfg, spaces, params, "observation")
    return make_twin_data(b_true, f_true, params,
                          noise_sigma=cfg["observation.noise_sigma"],
                          seed=cfg.seed, mode=cfg["observation.mode"],
                          solver_config=solver_config)


def _non_finite_cost_error(cfg, exc):
    """The input error behind a non-finite starting cost: the
    observation file, or the noise level of twin observations."""
    if cfg["observation.source"] == "file":
        return FieldIOError(str(exc), cfg["observation.path"])
    return ConfigError(str(exc), "observation.noise_sigma")


def _write_report_csv(path, report):
    rows = [("converged", int(report.converged)),
            ("iterations", report.iterations),
            ("final_residual", repr(report.residual_history[-1])),
            ("final_energy", repr(report.final_energy)),
            ("energy_bound", repr(report.energy_bound)),
            ("factorizations", report.factorizations),
            ("krylov_iterations", report.krylov_iterations),
            ("lu_fallbacks", report.lu_fallbacks)]
    with open(path, "w") as fh:
        fh.write("key,value\n")
        for key, val in rows:
            fh.write("%s,%s\n" % (key, val))


def cmd_forward(cfg, out):
    _, spaces, params, rheology, friction = _prepare(cfg)
    solver = cfg.solver(trace_path=os.path.join(out, "newton_trace.csv"))
    solution = solve_forward(rheology, friction, params, solver)
    save_field_csv(solution.velocity, os.path.join(out, "velocity.csv"))
    save_field_csv(solution.pressure, os.path.join(out, "pressure.csv"))
    save_vtk(spaces.mesh, os.path.join(out, "solution.vtk"),
             scalars={"pressure": solution.pressure},
             vectors={"velocity": solution.velocity})
    _write_report_csv(os.path.join(out, "report.csv"), solution.report)
    if not solution.report.converged:
        print("forward solve did not converge: residual %g after %d iterations"
              % (solution.report.residual_history[-1],
                 solution.report.iterations), file=sys.stderr)
        return 3
    print("forward solve converged in %d iterations, residual %g"
          % (solution.report.iterations, solution.report.residual_history[-1]))
    print("energy %g within bound %g" % (solution.report.final_energy,
                                         solution.report.energy_bound))
    return 0


def cmd_invert(cfg, out):
    _, spaces, params, rheology0, friction0 = _prepare(cfg)
    solver = cfg.solver()
    obs = _load_observation(cfg, spaces, params, solver)
    try:
        result = run_inversion(rheology0, friction0, obs, params,
                               cfg.optimization(), solver)
    except NonFiniteCostError as exc:
        raise _non_finite_cost_error(cfg, exc) from None
    state = result.state
    save_inversion_history(result.history, os.path.join(out, "history.csv"))
    save_inversion_trials(result.trials, os.path.join(out, "trials.csv"))
    save_field_csv(state.rheology, os.path.join(out, "rheology.csv"))
    save_field_csv(state.friction, os.path.join(out, "friction.csv"))
    save_field_csv(state.velocity, os.path.join(out, "velocity.csv"))
    save_field_csv(state.adjoint_state, os.path.join(out, "adjoint.csv"))
    save_vtk(spaces.mesh, os.path.join(out, "inversion.vtk"),
             scalars={"rheology": state.rheology, "friction": state.friction},
             vectors={"velocity": state.velocity})
    first, last = result.history[0], result.history[-1]
    print("inversion stopped after %d iterations (%s)"
          % (state.iteration, result.reason))
    print("cost %g -> %g, misfit %g -> %g"
          % (first[1], last[1], first[2], last[2]))
    if result.reason == "line_search_failed":
        print("inversion stopped early: no step along the Gauss-Newton "
              "direction was accepted at iteration %d" % (state.iteration + 1),
              file=sys.stderr)
        return 5
    return 0


def _csv_text(text, always=True):
    """``text`` as an RFC 4180 CSV field: quoted, with embedded quotes
    doubled, unless ``always`` is false and it holds no comma, quote or
    line break."""
    if always or any(ch in text for ch in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def cmd_verify(cfg, out):
    # the discrete suite runs first, so a forward solve that does not
    # converge stops the run before the pointwise sweep
    _, _, params, rheology, friction = _prepare(cfg)
    discrete = discrete_suite(rheology, friction, params, cfg.solver(),
                              seed=cfg.seed)
    results = pointwise_suite(
        samples=cfg["verify.samples"],
        p_values=_floats(cfg["verify.p_values"]),
        delta_values=_floats(cfg["verify.delta_values"]),
        prime_delta_values=_floats(cfg["verify.prime_delta_values"]),
        seed=cfg.seed) + discrete
    with open(os.path.join(out, "verify_report.csv"), "w") as fh:
        fh.write("check,passed,detail\n")
        for res in results:
            fh.write("%s,%d,%s\n" % (_csv_text(res.name, always=False),
                                     int(res.passed), _csv_text(res.detail)))
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 4


def _taylor_directions(cfg, spaces, rng):
    """Standard-normal directions, each part scaled to max-abs at most 1;
    the rheology part has a draw per vertex, so no direction is zero."""
    n_omega = spaces.coeff_omega.dof_count
    n_basal = spaces.coeff_basal.dof_count
    for _ in range(cfg["taylor.directions"]):
        db = rng.standard_normal(n_omega)
        df = rng.standard_normal(n_basal)
        yield (Field(spaces.coeff_omega, db / np.abs(db).max(initial=1.0)),
               Field(spaces.coeff_basal, df / np.abs(df).max(initial=1.0)))


def cmd_taylor(cfg, out):
    _, spaces, params, rheology, friction = _prepare(cfg)
    margins = _box_margins(rheology, friction, params)
    for key, margin in margins.items():
        if not margin > 0.0:
            raise ConfigError("field reaches a bound of the admissible box "
                              "[%r, %r], so no perturbation of it stays inside"
                              % params.box[key], "fields." + key)
    relative = {key: margin / (params.box[key][1] - params.box[key][0])
                for (key, margin), field in zip(margins.items(), (rheology, friction))
                if field.values.size}
    roomiest = max(relative, key=relative.get)
    if relative[roomiest] < TAYLOR_MARGIN_FLOOR:
        raise ConfigError("every field lies within %g of its box width from a "
                          "bound (%s), so no perturbation that stays inside is "
                          "large enough to measure a remainder"
                          % (TAYLOR_MARGIN_FLOOR, ", ".join(
                              "%s %.3g" % kv for kv in relative.items())),
                          "fields." + roomiest)
    solver = cfg.solver()
    obs = _load_observation(cfg, spaces, params, solver)
    # one base state for every direction: solved once, dual factored once
    state = make_state(rheology, friction, obs, params, solver)
    h_values = _floats(cfg["taylor.h_values"])
    h_max = max(h_values)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    slopes = []
    for k, (db, df) in enumerate(_taylor_directions(cfg, spaces, rng)):
        parts = []      # each field's part keeps to that field's margin
        for (key, margin), part in zip(margins.items(), (db, df)):
            biggest = h_max * np.abs(part.values).max(initial=0.0)
            if biggest > margin:
                scale = 0.5 * margin / biggest
                print("direction %d: %s part scaled by %g to stay inside the box"
                      % (k, key, scale))
                part = Field(part.space, part.values * scale)
            parts.append(part)
        try:
            report = taylor_test(state, *parts, params, solver,
                                 h_values=h_values)
        except NonFiniteCostError as exc:
            raise _non_finite_cost_error(cfg, exc) from None
        slopes.append(report.slope_first)
        for h, r0, r1 in zip(report.h_values, report.remainder_zero,
                             report.remainder_first):
            rows.append((k, h, r0, r1))
        print("direction %d: zero-order slope %s, first-order slope %s"
              % (k, "%.3f" % report.slope_zero if report.slope_zero else "n/a",
                 "%.3f" % report.slope_first if report.slope_first else "n/a"))
    with open(os.path.join(out, "taylor_report.csv"), "w") as fh:
        fh.write("direction,h,remainder_zero,remainder_first\n")
        for k, h, r0, r1 in rows:
            fh.write("%d,%s,%s,%s\n" % (k, repr(float(h)), repr(float(r0)),
                                        repr(float(r1))))
    ok = all(s is not None and s >= 1.8 for s in slopes)
    print("first-order remainder slopes %s threshold 1.8"
          % ("meet" if ok else "miss"))
    return 0 if ok else 4


def cmd_mesh_gen(cfg, out):
    mesh = cfg.build_mesh()
    path = os.path.join(out, "mesh.pgmesh")
    save_mesh(mesh, path)
    print("wrote %s: %d vertices, %d triangles, %d boundary edges"
          % (path, mesh.vertices.shape[0], mesh.triangles.shape[0],
             mesh.num_boundary_edges))
    return 0


_COMMANDS = {"forward": cmd_forward, "invert": cmd_invert,
             "verify": cmd_verify, "taylor": cmd_taylor,
             "mesh-gen": cmd_mesh_gen}


def entry(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed %d must be >= 0" % args.seed, "run.seed")
            cfg.values["run.seed"] = args.seed
        if args.out is not None:
            cfg.values["run.out"] = args.out
        out = cfg.out_dir
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "effective_config.cfg"), "w") as fh:
            fh.write("\n".join(cfg.echo_lines()) + "\n")
        return _COMMANDS[args.command](cfg, out)
    except FieldIOError as exc:
        print("data file error: %s" % exc, file=sys.stderr)
        return 2
    except MeshError as exc:
        print("mesh error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("file error: %s" % exc, file=sys.stderr)
        return 2
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except SolverError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 3


def main():
    sys.exit(entry())


if __name__ == "__main__":
    main()
