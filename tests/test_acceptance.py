"""End-to-end acceptance checks.

Each test covers one headline guarantee at its stated tolerance and
time budget and records a single summary line, printed by the terminal
reporter at the end of the run.
"""

import contextlib
import time

import numpy as np
import pytest

import pglacier as pg
from pglacier.assembly import (assemble_adjoint_operator, assemble_jacobian,
                               assemble_residual, solver_sign)
from pglacier.cli import entry
from pglacier.forward import SolverConfig
from pglacier.inversion import (OptimizationConfig, directional_derivative,
                                evaluate_cost, evaluate_gradient, in_box,
                                make_state, run_inversion, taylor_test)
from pglacier.spaces import norm
from pglacier.verify import pointwise_suite

from conftest import TILTED_FORCE, truth_friction, truth_rheology


@pytest.fixture
def criterion(request):
    @contextlib.contextmanager
    def _criterion(number, text, limit_seconds):
        start = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - start
            assert elapsed <= limit_seconds, \
                "runtime %.1f s exceeds the %g s budget" % (elapsed,
                                                            limit_seconds)
        except BaseException:
            request.config.acceptance_lines.append(
                "ACCEPTANCE %d: %s: FAIL" % (number, text))
            raise
        request.config.acceptance_lines.append(
            "ACCEPTANCE %d: %s: PASS (%.1f s <= %g s)"
            % (number, text, elapsed, limit_seconds))
    return _criterion


def random_admissible_state(spaces, rng, scale=0.1):
    full = rng.standard_normal(spaces.n_sys) * scale
    full = spaces.expand_vector(spaces.reduce_vector(full))
    return (pg.Field(spaces.velocity, full[:spaces.n_u]),
            pg.Field(spaces.pressure, full[spaces.n_u:]), full)


def test_criterion_1_pointwise_inequalities(criterion):
    with criterion(1, "pointwise kernel inequalities, 1e5 samples", 10.0):
        results = pointwise_suite(samples=100000,
                                  p_values=(1.2, 4.0 / 3.0, 1.6, 1.9),
                                  delta_values=(0.0, 1e-3, 0.1, 1.0),
                                  prime_delta_values=(1e-3, 0.1, 1.0),
                                  seed=0)
        assert len(results) == 4
        for result in results:
            assert result.passed, result.line()


def test_criterion_2_jacobian_consistency(criterion, slab_spaces,
                                          tilted_params, base_coeffs):
    with criterion(2, "Jacobian FD order, symmetry, adjoint equality", 30.0):
        spaces = slab_spaces
        rheology, friction = base_coeffs
        sign = solver_sign(spaces)
        rng = np.random.default_rng(7)
        for _ in range(5):
            vel, pres, _ = random_admissible_state(spaces, rng)
            J = assemble_jacobian(vel, rheology, friction, tilted_params).matrix
            A = assemble_adjoint_operator(vel, rheology, friction,
                                          tilted_params).matrix
            scale = abs(J).max()
            assert abs(J - J.T).max() <= 1e-12 * scale
            assert abs(J - A).max() <= 1e-12 * scale

            z = spaces.expand_vector(
                spaces.reduce_vector(rng.standard_normal(spaces.n_sys)))
            Jz = spaces.project_dual(sign * (J @ z))
            r0 = assemble_residual(vel, pres, rheology, friction, tilted_params)
            hs = np.logspace(-3, -6, 4)
            errs = []
            for h in hs:
                vh = pg.Field(spaces.velocity, vel.values + h * z[:spaces.n_u])
                ph = pg.Field(spaces.pressure, pres.values + h * z[spaces.n_u:])
                fd = (assemble_residual(vh, ph, rheology, friction,
                                        tilted_params) - r0) / h
                errs.append(np.linalg.norm(fd - Jz) / np.linalg.norm(Jz))
            order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
            assert order >= 0.95, "observed order %.3f" % order


def test_criterion_3_forward_solver(criterion, fine_spaces):
    with criterion(3, "forward Newton convergence and energy bound", 60.0):
        # default parameters: p = s = 4/3, delta = 0.1, mu0 = 0.01,
        # body force (0, -1)
        params = pg.PhysicsParams()
        rheology = pg.constant_field(fine_spaces.coeff_omega, 1.0)
        friction = pg.constant_field(fine_spaces.coeff_basal, 0.5)
        solution = pg.solve_forward(rheology, friction, params)
        report = solution.report
        assert report.converged
        assert report.iterations <= 30
        assert report.residual_history[-1] <= 1e-10
        assert norm(solution.velocity, "V2_seminorm") <= report.energy_bound


def test_criterion_4_state_lipschitz_in_coefficients(criterion, slab_spaces,
                                                     tilted_params,
                                                     tight_solver,
                                                     base_solution):
    with criterion(4, "dyadic coefficient halving at least halves the state "
                   "distance / 1.2", 120.0):
        spaces = slab_spaces
        base_b = pg.constant_field(spaces.coeff_omega, 1.0)
        base_f = pg.constant_field(spaces.coeff_basal, 0.5)
        delta_b = pg.field_from_callable(
            spaces.coeff_omega, lambda x, y: 0.5 * np.sin(np.pi * x))
        delta_f = pg.field_from_callable(
            spaces.coeff_basal, lambda x, y: 0.3 * np.cos(np.pi * x))
        warm = (base_solution.velocity, base_solution.pressure)
        distances = []
        for k in range(5):
            t = 0.5 ** k
            pb = pg.Field(spaces.coeff_omega, base_b.values + t * delta_b.values)
            pf = pg.Field(spaces.coeff_basal, base_f.values + t * delta_f.values)
            sol = pg.solve_forward(pb, pf, tilted_params, tight_solver,
                                   warm_start=warm)
            assert sol.report.converged
            diff = pg.Field(spaces.velocity,
                            sol.velocity.values - base_solution.velocity.values)
            distances.append(norm(diff, "V2_seminorm"))
        factors = [a / b for a, b in zip(distances, distances[1:])]
        # measured factors 2.219, 2.050, 2.012, 2.003
        assert len(factors) == 4
        for factor in factors:
            assert factor >= 2.0 / 1.2, "halving factor %.3f" % factor


def test_criterion_5_adjoint_gradient(criterion, slab_spaces, tilted_params,
                                      tight_solver, base_coeffs, twin_obs):
    with criterion(5, "adjoint gradient vs central differences and Taylor "
                   "slope", 180.0):
        spaces = slab_spaces
        rheology, friction = base_coeffs
        state = make_state(rheology, friction, twin_obs, tilted_params,
                           tight_solver)
        evaluate_gradient(state, twin_obs, tilted_params)
        warm = (state.velocity, state.pressure)
        rng = np.random.default_rng(11)
        h = 1e-4
        for _ in range(5):
            db = pg.Field(spaces.coeff_omega,
                          rng.standard_normal(spaces.coeff_omega.dof_count))
            df = pg.Field(spaces.coeff_basal,
                          rng.standard_normal(spaces.coeff_basal.dof_count))
            adj = directional_derivative(state, db, df, tilted_params)
            plus = evaluate_cost(
                pg.Field(spaces.coeff_omega, rheology.values + h * db.values),
                pg.Field(spaces.coeff_basal, friction.values + h * df.values),
                twin_obs, tilted_params, tight_solver, warm_start=warm)
            minus = evaluate_cost(
                pg.Field(spaces.coeff_omega, rheology.values - h * db.values),
                pg.Field(spaces.coeff_basal, friction.values - h * df.values),
                twin_obs, tilted_params, tight_solver, warm_start=warm)
            fd = (plus.parts.total - minus.parts.total) / (2.0 * h)
            assert abs(adj - fd) < 1e-5 * max(1.0, abs(fd))

        taylor_b = pg.field_from_callable(
            spaces.coeff_omega, lambda x, y: 0.5 * np.sin(np.pi * x) * (1 + y))
        taylor_f = pg.field_from_callable(
            spaces.coeff_basal, lambda x, y: 0.3 * np.cos(np.pi * x))
        report = taylor_test(rheology, friction, taylor_b, taylor_f, twin_obs,
                             tilted_params, tight_solver)
        assert 1.8 <= report.slope_first <= 2.2, report.slope_first


def test_criterion_6_adjoint_well_posedness(criterion, slab_spaces,
                                            tilted_params, tight_solver,
                                            base_coeffs, base_solution):
    with criterion(6, "dual coercivity and vanishing zero-misfit dual", 60.0):
        spaces = slab_spaces
        rheology, friction = base_coeffs
        vel = base_solution.velocity
        K = assemble_adjoint_operator(
            vel, rheology, friction, tilted_params).matrix.tocsr()
        K = K[:spaces.n_u, :spaces.n_u]
        observed = spaces.mesh.observed_edges
        nq = spaces.quadrature.edge_points.size
        rng = np.random.default_rng(13)
        for _ in range(10):
            obs = pg.Observation(rng.standard_normal((observed.size, nq, 2)))
            lam = pg.solve_adjoint(vel, rheology, friction, obs, tilted_params)
            energy = float(lam.values @ (K @ lam.values))
            floor = tilted_params.mu0 * norm(lam, "V2_seminorm") ** 2
            assert energy >= floor * (1.0 - 1e-10)

        exact = pg.make_twin_data(rheology, friction, tilted_params,
                                  solver_config=tight_solver)
        lam0 = pg.solve_adjoint(vel, rheology, friction, exact, tilted_params)
        scale = norm(vel, "L2") + 1.0
        assert norm(lam0, "L2") <= 1e-10 * scale


def test_criterion_7_twin_inversion(criterion, fine_spaces, tilted_params,
                                    tight_solver):
    with criterion(7, "twin inversion recovers 90% of the misfit", 900.0):
        spaces = fine_spaces
        obs = pg.make_twin_data(truth_rheology(spaces), truth_friction(spaces),
                                tilted_params, solver_config=tight_solver)
        start_b = pg.constant_field(spaces.coeff_omega, 1.0)
        start_f = pg.constant_field(spaces.coeff_basal, 0.5)
        result = run_inversion(start_b, start_f, obs, tilted_params,
                               OptimizationConfig(max_iterations=100))
        history = result.history
        assert history[-1][0] <= 100
        misfits = [row[2] for row in history]
        assert misfits[-1] <= 0.10 * misfits[0], \
            "misfit only fell to %.3g of %.3g" % (misfits[-1], misfits[0])
        costs = [row[1] for row in history]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        # every evaluated iterate was box-checked inside the cost call;
        # confirm the final one explicitly
        assert in_box(result.state.rheology, result.state.friction,
                      tilted_params)


def test_criterion_8_serial_determinism(criterion, tmp_path):
    with criterion(8, "serial re-runs produce byte-identical CSV files",
                   600.0):
        base = ("mesh.nx = 4\nmesh.ny = 2\n"
                "observation.rheology = sine:1.25,0.5,0.5\n"
                "observation.friction = cosine:0.5,0.3,0.5\n"
                "physics.body_force_x = 0.5\n"
                "opt.max_iterations = 3\n"
                "verify.samples = 20000\n"
                "taylor.directions = 1\n")
        for name in ("forward", "invert", "verify", "taylor"):
            out = tmp_path / name
            cfg = tmp_path / ("%s.cfg" % name)
            cfg.write_text(base + "run.out = %s\n" % out)
            args = [name, "--config", str(cfg), "--serial", "--seed", "3"]
            first = entry(args)
            snapshot = {f.name: f.read_bytes() for f in out.iterdir()}
            assert any(n.endswith(".csv") for n in snapshot), name
            assert entry(args) == first, name
            for f in sorted(out.iterdir()):
                assert f.read_bytes() == snapshot[f.name], f.name
