"""Damped inexact Newton solver for the nonlinear momentum balance.

Each Newton step assembles the exact symmetric saddle-point Jacobian
after symmetric constraint elimination and backtracks on the euclidean
norm of the reduced system residual.  One forward solve factorizes
once: its first linear solve (the p = 2 warm start, or the first Newton
step) is a sparse LU solve, and every later step runs right-
preconditioned GMRES on ``J . LU^-1`` with that LU, to Eisenstat-Walker
forcing terms.  When one GMRES cycle of ``GMRES_RESTART`` iterations
misses its tolerance, the step refactorizes at the current Jacobian,
solves directly and keeps the new LU.  The default initial guess solves
the linear (p = 2) problem once; if plain Newton stalls, the solver
retries with a short continuation ladder in the exponent, still
preconditioned by the same LU.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import (assemble_jacobian, _residual_raw, solver_sign)
from .spaces import Field, SpaceKind, norm, zero_field


# Krylov vectors in the one GMRES cycle a Newton step may run before it
# refactorizes.
GMRES_RESTART = 30

# Eisenstat-Walker choice 2: eta_k = gamma (|F_k| / |F_k-1|)^alpha,
# capped at ETA_MAX; ETA_FIRST is used when no previous ratio exists.
EW_GAMMA = 0.9
EW_ALPHA = 2.0
ETA_MAX = 0.9
ETA_FIRST = 0.1


class SolverError(Exception):
    """Forward or linear solve failed."""


@dataclass
class SolverConfig:
    """Newton settings of a forward solve; the linear solves take none.

    Relative tolerance applies to the initial residual norm,
    ``newton_atol`` is the absolute floor.  The line search halves the
    step until the residual norm drops by a (1 - ls_decrease * alpha)
    factor, at most ``ls_max`` times.
    """

    newton_rtol: float = 1e-10
    newton_atol: float = 1e-12
    max_newton: int = 30
    ls_shrink: float = 0.5
    ls_decrease: float = 1e-4
    ls_max: int = 30
    initial_guess: str = "p2_warmstart"
    trace_path: str = None


@dataclass
class SolveReport:
    """Convergence record of one forward solve."""

    converged: bool
    iterations: int
    residual_history: list
    step_lengths: list
    energy_history: list
    final_energy: float
    energy_bound: float
    continuation_used: bool
    factorizations: int
    krylov_iterations: int


@dataclass
class ForwardSolution:
    velocity: Field
    pressure: Field
    report: SolveReport


def _gmres(matrix, lu, rhs, rtol):
    """One cycle of GMRES on ``matrix . lu^-1`` (right preconditioning,
    so its residual is the true residual of ``matrix . x = rhs``).

    Returns ``(x, iterations)``; ``x`` is None when the cycle ends above
    ``rtol * |rhs|``.
    """
    beta = float(np.linalg.norm(rhs))
    basis = np.empty((GMRES_RESTART + 1, rhs.size))
    basis[0] = rhs / beta
    hess = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
    target = np.zeros(GMRES_RESTART + 1)
    target[0] = beta
    for k in range(GMRES_RESTART):
        w = matrix @ lu.solve(basis[k])
        for i in range(k + 1):              # modified Gram-Schmidt
            hess[i, k] = basis[i] @ w
            w -= hess[i, k] * basis[i]
        hess[k + 1, k] = np.linalg.norm(w)
        h, g = hess[:k + 2, :k + 1], target[:k + 2]
        y = np.linalg.lstsq(h, g, rcond=None)[0]
        if np.linalg.norm(h @ y - g) <= rtol * beta:
            return lu.solve(y @ basis[:k + 1]), k + 1
        if hess[k + 1, k] == 0.0:           # breakdown short of the target
            return None, k + 1
        basis[k + 1] = w / hess[k + 1, k]
    return None, GMRES_RESTART


class _LinearSolver:
    """The linear solves of one forward solve, sharing one LU.

    The first solve factorizes; later ones run GMRES preconditioned by
    the current LU and refactorize only when GMRES falls short.  The LU
    lives as long as this object, never beyond the forward solve.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.krylov_iterations = 0

    def solve(self, matrix, rhs, rtol=0.0):
        """Solve ``matrix . x = rhs``, to relative residual ``rtol``
        when the LU preconditions GMRES."""
        if self.lu is not None:
            x, iterations = _gmres(matrix, self.lu, rhs, rtol)
            self.krylov_iterations += iterations
            if x is not None:
                return x
        self.lu = None                      # release the stale LU first
        try:
            self.lu = spla.splu(matrix.tocsc())
        except RuntimeError as exc:
            raise SolverError("sparse factorization failed: %s" % exc)
        self.factorizations += 1
        return self.lu.solve(rhs)


def _forcing_term(res, res_prev, eta_prev, floor):
    """Eisenstat-Walker choice-2 relative tolerance for the next linear
    solve, safeguarded against sudden drops and floored at what the
    Newton tolerance needs."""
    if res_prev is None:
        eta = ETA_FIRST
    else:
        eta = EW_GAMMA * (res / res_prev) ** EW_ALPHA
        guard = EW_GAMMA * eta_prev ** EW_ALPHA
        if guard > 0.1:
            eta = max(eta, guard)
    return min(ETA_MAX, max(eta, floor))


def _fields_from_system(spaces, x):
    vel = Field(spaces.velocity, x[:spaces.n_u].copy())
    press = Field(spaces.pressure, x[spaces.n_u:].copy())
    return vel, press


def _reduced_residual(spaces, x_hat, rheology, friction, params, sign):
    x = spaces.expand_vector(x_hat)
    vel, press = _fields_from_system(spaces, x)
    raw = _residual_raw(vel, press, rheology, friction, params)
    return spaces.reduce_vector(sign * raw)


def _newton(spaces, x_hat0, rheology, friction, params, config, linear):
    """Damped inexact Newton on the reduced rotated system, with the
    linear solves of ``linear``; returns the iterate, histories and a
    convergence flag."""
    sign = solver_sign(spaces)
    x_hat = x_hat0.copy()
    r = _reduced_residual(spaces, x_hat, rheology, friction, params, sign)
    res = float(np.linalg.norm(r))
    tol = max(config.newton_atol, config.newton_rtol * res)
    residuals = [res]
    steps = []
    energies = [norm(_fields_from_system(spaces, spaces.expand_vector(x_hat))[0],
                     "V2_seminorm")]
    it = 0
    eta = None
    while res > tol and it < config.max_newton:
        vel, press = _fields_from_system(spaces, spaces.expand_vector(x_hat))
        system = assemble_jacobian(vel, rheology, friction, params)
        eta = _forcing_term(res, residuals[-2] if it else None, eta,
                            0.5 * tol / res)
        delta = linear.solve(system.reduced(), -r, eta)
        alpha = 1.0
        accepted = False
        for _ in range(config.ls_max + 1):
            trial = x_hat + alpha * delta
            r_trial = _reduced_residual(spaces, trial, rheology, friction,
                                        params, sign)
            res_trial = float(np.linalg.norm(r_trial))
            if res_trial <= (1.0 - config.ls_decrease * alpha) * res:
                accepted = True
                break
            alpha *= config.ls_shrink
        if not accepted:
            return x_hat, residuals, steps, energies, False
        x_hat, r, res = trial, r_trial, res_trial
        it += 1
        residuals.append(res)
        steps.append(alpha)
        energies.append(norm(_fields_from_system(
            spaces, spaces.expand_vector(x_hat))[0], "V2_seminorm"))
    return x_hat, residuals, steps, energies, res <= tol


def _linear_state(spaces, rheology, friction, params, linear):
    """One exact solve of the linear (p = s = 2) problem, used as a warm
    start.  Returns reduced rotated coordinates."""
    p2 = replace(params, p=2.0, s=2.0)
    zero_v = zero_field(spaces.velocity)
    zero_p = zero_field(spaces.pressure)
    system = assemble_jacobian(zero_v, rheology, friction, p2)
    sign = solver_sign(spaces)
    raw = _residual_raw(zero_v, zero_p, rheology, friction, p2)
    rhs = spaces.reduce_vector(sign * raw)
    return linear.solve(system.reduced(), -rhs)


def energy_bound(spaces, params):
    """Load-over-viscosity bound on the V2 seminorm of the solution."""
    area = float((0.5 * spaces.det).sum())
    f = np.asarray(params.body_force)
    return float(np.hypot(f[0], f[1]) * np.sqrt(area) / params.mu0)


def _write_trace(path, residuals, steps, energies):
    lines = ["iter,residual,step_length,energy"]
    for k, res in enumerate(residuals):
        step = repr(steps[k - 1]) if k > 0 else "0.0"
        lines.append("%d,%r,%s,%r" % (k, res, step, energies[k]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def solve_forward(rheology, friction, params, config=None, warm_start=None):
    """Solve the nonlinear momentum balance for the given coefficients.

    Parameters
    ----------
    rheology : Field on the vertex space, within the admissible box.
    friction : Field on the bed chain, within the admissible box.
    params : PhysicsParams with delta > 0.
    config : SolverConfig, optional.
    warm_start : (Field, Field), optional
        Previous (velocity, pressure) pair used as the initial guess,
        overriding the configured policy.

    Returns
    -------
    ForwardSolution
        Holds velocity and pressure fields (constraints satisfied
        exactly) and a SolveReport.  Non-convergence is reported via
        ``report.converged``, not an exception; the energy bound is
        asserted on success.
    """
    config = config or SolverConfig()
    spaces = rheology.space.parent
    if rheology.space.kind is not SpaceKind.COEFF_OMEGA_P1:
        raise ValueError("rheology must live on the vertex space")
    if friction.space.kind is not SpaceKind.COEFF_BASAL_P1:
        raise ValueError("friction must live on the bed chain")
    if params.delta <= 0.0:
        raise ValueError("forward solve needs delta > 0")
    for name, values, lo, hi in (
            ("rheology", rheology.values, params.rheology_min, params.rheology_max),
            ("friction", friction.values, 0.0, params.friction_max)):
        if not np.all(np.isfinite(values)):
            raise ValueError("%s field has non-finite values" % name)
        if np.any(values < lo) or np.any(values > hi):
            raise ValueError("%s field leaves the admissible box" % name)

    linear = _LinearSolver()
    if warm_start is not None:
        x0 = np.concatenate([warm_start[0].values, warm_start[1].values])
        x_hat0 = spaces.reduce_vector(x0)
    elif config.initial_guess == "p2_warmstart" and params.p != 2.0:
        x_hat0 = _linear_state(spaces, rheology, friction, params, linear)
    elif config.initial_guess in ("zero", "p2_warmstart"):
        x_hat0 = np.zeros(spaces.n_sys)
    else:
        raise ValueError("unknown initial guess policy %r" % config.initial_guess)

    x_hat, residuals, steps, energies, ok = _newton(
        spaces, x_hat0, rheology, friction, params, config, linear)
    continuation = False
    if not ok:
        # Continuation ladder in the exponent, warm starting each stage.
        continuation = True
        ladder = [pc for pc in (2.0, 1.8, 1.6) if pc > params.p] + [params.p]
        x_hat = np.zeros(spaces.n_sys)
        for pc in ladder:
            stage = replace(params, p=pc, s=min(params.s, pc))
            x_hat, residuals, steps, energies, ok = _newton(
                spaces, x_hat, rheology, friction, stage, config, linear)
            if not ok:
                break

    x = spaces.expand_vector(x_hat)
    vel, press = _fields_from_system(spaces, x)
    bound = energy_bound(spaces, params)
    final_energy = energies[-1]
    report = SolveReport(ok, len(residuals) - 1, residuals, steps, energies,
                         final_energy, bound, continuation,
                         linear.factorizations, linear.krylov_iterations)
    if ok and final_energy > bound * (1.0 + 1e-9):
        raise SolverError("energy bound violated: |v|_V2 = %g exceeds %g"
                          % (final_energy, bound))
    if config.trace_path:
        _write_trace(config.trace_path, residuals, steps, energies)
    return ForwardSolution(vel, press, report)


def solve_system(system, rhs):
    """Solve ``operator . x = rhs`` for an AssembledSystem after
    constraint elimination; returns the full system vector."""
    spaces = system.spaces
    rhs_hat = spaces.reduce_vector(rhs)
    x_hat = _LinearSolver().solve(system.reduced(), rhs_hat)
    return spaces.expand_vector(x_hat)


def solve_linearized(velocity, rheology, friction, rhs, params):
    """Solve the Jacobian system at the given state for an arbitrary
    dual right-hand side; returns the velocity part as a Field.

    The operator is the symmetric saddle form, so sensitivity solves
    pass the negated coefficient derivative as ``rhs``.
    """
    system = assemble_jacobian(velocity, rheology, friction, params)
    x = solve_system(system, rhs)
    return Field(velocity.space.parent.velocity, x[:velocity.space.parent.n_u])
