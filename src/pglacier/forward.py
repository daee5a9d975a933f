"""Damped inexact Newton solver for the nonlinear momentum balance.

Each Newton step assembles the exact symmetric saddle-point Jacobian
after symmetric constraint elimination and backtracks on the euclidean
norm of the reduced system residual.  One forward solve factorizes
once, in single precision: its first linear solve (the p = 2 warm
start, or the first Newton step) is a direct solve on that LU with two
steps of iterative refinement in double precision, and every later
step runs flexible GMRES preconditioned by that LU, to Eisenstat-
Walker forcing terms.  Flexible GMRES keeps the preconditioned vectors,
so its residual is the true double-precision residual whatever the
precision of the LU.  When one GMRES cycle of ``GMRES_RESTART``
iterations misses its tolerance, the step refactorizes at the current
Jacobian, solves directly and keeps the new LU.  The default initial
guess solves the linear (p = 2) problem once; if plain Newton stalls,
the solver retries with a short continuation ladder in the exponent,
still preconditioned by the same LU.  A caller holding the LU of a
nearby Jacobian (the inversion keeps the dual operator's) passes it as
``preconditioner``; the solve then runs GMRES from its first Newton
step and may finish without a factorization of its own.

Every LU comes from ``_factorize``: a forward solve's own through
``_LinearSolver``, in single precision, all others (the dual operator,
the Gram matrices of the Riesz map, the trace constant) through
``factorize``, in double precision, as they are exact solves with no
Krylov loop around them.  It exploits the symmetry of these operators
and takes pivots on the diagonal.  The saddle operator (forward
Jacobian, dual operator) is factored in the node-blocked order of
:meth:`Spaces.saddle_order`: a minimum-degree order of the P2 node
graph in which each node's velocity dofs precede its pressure dof, so
no zero pressure diagonal is pivoted on before the velocity pivots that
fill it.  That order is built once per mesh, on the mesh's first saddle
factorization, together with a slot map that gathers each operator's
data into the permuted CSC matrix; SuperLU then factors it in its
natural order.  Any other operator (a Gram matrix) is ordered by a
minimum-degree ordering of A + A^T.  An LU of either kind is checked by
one probe solve (refined twice in double precision for a single-
precision LU); if SuperLU raises or the probe misses ``PROBE_RTOL``,
the unpermuted matrix is factored again in double precision with
SuperLU's default COLAMD ordering and partial pivoting, and the
forward solve counts the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .assembly import (assemble_jacobian, _residual_raw, norm, solver_sign)
from .spaces import Field, SpaceKind, zero_field


# Krylov vectors in the one GMRES cycle a Newton step may run before it
# refactorizes.
GMRES_RESTART = 30

# Eisenstat-Walker choice 2: eta_k = gamma (|F_k| / |F_k-1|)^alpha,
# capped at ETA_MAX; ETA_FIRST is used when no previous ratio exists.
EW_GAMMA = 0.9
EW_ALPHA = 2.0
ETA_MAX = 0.9
ETA_FIRST = 0.1

# Residual line search: the step shrinks by LS_SHRINK, at most LS_MAX
# times, until the residual norm drops by a (1 - LS_DECREASE alpha) factor.
LS_SHRINK = 0.5
LS_DECREASE = 1e-4
LS_MAX = 30

# A symmetric-mode LU is kept when its solve of A x = A 1 meets this
# relative residual in the max norm; otherwise A is factored again with
# COLAMD and partial pivoting.
PROBE_RTOL = 1e-8

# Steps of double-precision refinement on a forward solve's own single-
# precision LU, in the direct solve that follows its factorization and
# in the probe of that LU.  One step leaves the probe of the p = 2
# Jacobian just above PROBE_RTOL on some bedded 64x32 slabs (1.2e-8 to
# 4.4e-8), where two reach 1e-12.
DIRECT_REFINEMENTS = 2


class SolverError(Exception):
    """Forward or linear solve failed."""


@dataclass
class SolverConfig:
    """Newton settings of a forward solve; the linear solves and the
    line search (``LS_*``) take none.

    ``newton_rtol`` applies to the initial residual norm, ``newton_atol``
    is the absolute floor; ``trace_path``, when set, receives the Newton
    history as CSV.
    """

    newton_rtol: float = 1e-10
    newton_atol: float = 1e-12
    max_newton: int = 30
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
    lu_fallbacks: int


@dataclass
class ForwardSolution:
    velocity: Field
    pressure: Field
    report: SolveReport


def _gmres(matrix, lu, rhs, rtol):
    """One cycle of flexible GMRES on ``matrix . x = rhs``, preconditioned
    by ``lu`` from the right.

    The cycle keeps each preconditioned vector z_k = lu^-1 v_k and builds
    x from them, so its Arnoldi relation, and with it the residual, holds
    in double precision whatever the precision of ``lu``.  Givens
    rotations keep the Hessenberg matrix triangular as it grows; the last
    entry of the rotated right-hand side is then the residual norm of
    the current iterate.

    Returns ``(x, iterations, residual)``, with ``residual`` that norm at
    exit; ``x`` is None when the cycle ends above ``rtol * |rhs|``.
    """
    beta = float(np.linalg.norm(rhs))
    basis = np.empty((GMRES_RESTART + 1, rhs.size))
    basis[0] = rhs / beta
    precond = np.empty((GMRES_RESTART, rhs.size))
    hess = np.zeros((GMRES_RESTART, GMRES_RESTART))
    cos = np.zeros(GMRES_RESTART)
    sin = np.zeros(GMRES_RESTART)
    target = np.zeros(GMRES_RESTART + 1)
    target[0] = beta
    for k in range(GMRES_RESTART):
        precond[k] = lu.solve(basis[k])
        w = matrix @ precond[k]
        h = hess[:, k]
        for i in range(k + 1):              # modified Gram-Schmidt
            h[i] = basis[i] @ w
            w -= h[i] * basis[i]
        below = float(np.linalg.norm(w))
        for i in range(k):                  # the earlier rotations
            h[i], h[i + 1] = (cos[i] * h[i] + sin[i] * h[i + 1],
                              cos[i] * h[i + 1] - sin[i] * h[i])
        diagonal = math.hypot(h[k], below)
        if diagonal == 0.0:                 # a singular Hessenberg matrix
            return None, k + 1, abs(target[k])
        cos[k], sin[k] = h[k] / diagonal, below / diagonal
        h[k] = diagonal
        target[k + 1] = -sin[k] * target[k]
        target[k] *= cos[k]
        if abs(target[k + 1]) <= rtol * beta:
            y = solve_triangular(hess[:k + 1, :k + 1], target[:k + 1])
            return y @ precond[:k + 1], k + 1, abs(target[k + 1])
        if below == 0.0:                    # breakdown short of the target
            return None, k + 1, abs(target[k + 1])
        basis[k + 1] = w / below
    return None, GMRES_RESTART, abs(target[GMRES_RESTART])


def _refined_solve(matrix, lu, rhs, steps):
    """``lu``'s solve of ``matrix . x = rhs`` followed by ``steps`` steps
    of iterative refinement, with residuals in double precision."""
    x = lu.solve(rhs)
    for _ in range(steps):
        x += lu.solve(rhs - matrix @ x)
    return x


def _probe_passes(matrix, lu, steps):
    """Whether ``lu``, refined ``steps`` times, solves
    ``matrix . x = matrix . 1`` to ``PROBE_RTOL`` in the max norm; a
    non-finite residual fails."""
    rhs = matrix @ np.ones(matrix.shape[0])
    with np.errstate(all="ignore"):
        x = _refined_solve(matrix, lu, rhs, steps)
        residual = np.abs(matrix @ x - rhs).max()
    return bool(residual <= PROBE_RTOL * np.abs(rhs).max())


class _PermutedLU:
    """SuperLU ``lu`` of ``A[order][:, order]``, solving with A itself.

    A ``single`` (float32) ``lu`` solves each right-hand side divided by
    its max-abs, so that no finite one overflows in the cast, and
    returns the solution in double precision.
    """

    def __init__(self, lu, order, single=False):
        self.lu, self.order, self.single = lu, order, single

    def solve(self, rhs):
        x = np.empty_like(rhs)
        if self.single:
            scale = np.abs(rhs).max() or 1.0
            x[self.order] = self.lu.solve(
                (rhs[self.order] / scale).astype(np.float32))
            x *= scale
        else:
            x[self.order] = self.lu.solve(rhs[self.order])
        return x


def _factorize(matrix, order=None, single=False):
    """``(lu, fell_back)``: the symmetric-mode LU of ``matrix``, or its
    COLAMD LU (``fell_back`` true) when the symmetric one raises or
    fails the probe.

    With a :class:`SaddleOrder` ``order`` of the matrix's pattern, the
    symmetric attempt factors ``order.permute(matrix)`` in its natural
    order; without one, SuperLU orders A + A^T by minimum degree.  With
    pivots on the diagonal SuperLU steps past an exactly zero pivot by
    itself, but a tiny nonzero one can give a useless LU without an
    error, hence the probe.  With ``single`` (and an ``order``) the
    symmetric attempt factors a float32 copy, and the probe measures the
    solve that ``_LinearSolver`` makes right after a factorization, with
    ``DIRECT_REFINEMENTS`` steps of refinement in double precision; an
    entry beyond float32 range fails it.  The COLAMD LU is always double
    precision.
    """
    if order is None:
        csc, spec = matrix.tocsc(), "MMD_AT_PLUS_A"
    else:
        csc, spec = order.permute(matrix), "NATURAL"
    if single:
        with np.errstate(over="ignore"):
            csc = csc.astype(np.float32)
    try:
        lu = spla.splu(csc, permc_spec=spec, diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError:
        lu = None
    csc = None                              # the LU no longer needs it
    if lu is not None:
        lu = lu if order is None else _PermutedLU(lu, order.order, single)
        if _probe_passes(matrix, lu, DIRECT_REFINEMENTS if single else 0):
            return lu, False
    lu = None                               # release the rejected LU first
    try:
        return spla.splu(matrix.tocsc()), True
    except RuntimeError as exc:
        raise SolverError("sparse factorization failed: %s" % exc)


def factorize(matrix, order=None):
    """Sparse LU of a symmetric reduced operator with diagonal pivots:
    in the node-blocked ``order`` (``spaces.saddle_order()``) for a
    saddle operator, by minimum degree on A + A^T otherwise, or COLAMD
    with partial pivoting when that LU fails its probe solve (see
    ``_factorize``).  Only the LU's ``solve`` is for callers."""
    return _factorize(matrix, order)[0]


class _LinearSolver:
    """The linear solves of one forward solve, sharing one LU.

    Without a starting LU the first solve factorizes; later ones run
    flexible GMRES preconditioned by the current LU and refactorize only
    when GMRES falls short (a direct solve, ``rtol = 0``, always
    factorizes).  A refactorization rebinds only this object's
    reference, so a caller's LU is never replaced; the solver's own LU
    lives as long as this object, never beyond the forward solve.  Its
    LUs are single precision, in the node-blocked order of ``spaces``;
    the solve right after one refines ``DIRECT_REFINEMENTS`` times in
    double precision.  ``fallbacks`` counts the LUs that fell back to
    double-precision COLAMD.
    """

    def __init__(self, spaces, lu=None):
        self.spaces = spaces
        self.lu = lu
        self.factorizations = 0
        self.krylov_iterations = 0
        self.fallbacks = 0

    def solve(self, matrix, rhs, rtol=0.0):
        """Solve ``matrix . x = rhs``, to relative residual ``rtol``
        when the LU preconditions GMRES."""
        if self.lu is not None and rtol > 0.0:
            x, iterations, _ = _gmres(matrix, self.lu, rhs, rtol)
            self.krylov_iterations += iterations
            if x is not None:
                return x
        self.lu = None                      # release the stale LU first
        self.lu, fell_back = _factorize(matrix, self.spaces.saddle_order(),
                                        single=True)
        self.factorizations += 1
        self.fallbacks += fell_back
        return _refined_solve(matrix, self.lu, rhs, DIRECT_REFINEMENTS)


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
        for _ in range(LS_MAX + 1):
            trial = x_hat + alpha * delta
            r_trial = _reduced_residual(spaces, trial, rheology, friction,
                                        params, sign)
            res_trial = float(np.linalg.norm(r_trial))
            if res_trial <= (1.0 - LS_DECREASE * alpha) * res:
                accepted = True
                break
            alpha *= LS_SHRINK
        if not accepted:
            return x_hat, residuals, steps, energies, False
        x_hat, r, res = trial, r_trial, res_trial
        it += 1
        residuals.append(res)
        steps.append(alpha)
        energies.append(norm(_fields_from_system(
            spaces, spaces.expand_vector(x_hat))[0], "V2_seminorm"))
    # an infinite first residual makes ``tol`` infinite too
    return x_hat, residuals, steps, energies, res <= tol and math.isfinite(res)


def _linear_state(spaces, rheology, friction, params, linear):
    """One direct solve of the linear (p = s = 2) problem, refined to
    double precision on the forward solve's own LU, used as a warm
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


def solve_forward(rheology, friction, params, config=None, warm_start=None,
                  preconditioner=None):
    """Solve the nonlinear momentum balance for the given coefficients.

    Parameters
    ----------
    rheology : Field on the vertex space, within the admissible box.
    friction : Field on the bed chain, within the admissible box.
    params : PhysicsParams with delta > 0.
    config : SolverConfig, optional.
    warm_start : (Field, Field), optional
        Previous (velocity, pressure) pair used as the initial guess in
        place of the linear (p = 2) solve.
    preconditioner : SuperLU, optional
        LU of a nearby reduced Jacobian (the dual operator at a nearby
        state, say).  Every Newton step then runs flexible GMRES
        preconditioned by it from the start and factorizes only on a
        miss; ``report.factorizations`` counts this solve's own LUs,
        and ``report.lu_fallbacks`` those of them that fell back to
        COLAMD.

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
    for (name, (lo, hi)), values in zip(params.box.items(),
                                        (rheology.values, friction.values)):
        if not np.all(np.isfinite(values)):
            raise ValueError("%s field has non-finite values" % name)
        if np.any(values < lo) or np.any(values > hi):
            raise ValueError("%s field leaves the admissible box" % name)

    linear = _LinearSolver(spaces, preconditioner)
    if warm_start is not None:
        x0 = np.concatenate([warm_start[0].values, warm_start[1].values])
        x_hat0 = spaces.reduce_vector(x0)
    elif params.p != 2.0:
        x_hat0 = _linear_state(spaces, rheology, friction, params, linear)
    else:
        x_hat0 = np.zeros(spaces.n_sys)

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
                         linear.factorizations, linear.krylov_iterations,
                         linear.fallbacks)
    if ok and final_energy > bound * (1.0 + 1e-9):
        raise SolverError("energy bound violated: |v|_V2 = %g exceeds %g"
                          % (final_energy, bound))
    if config.trace_path:
        _write_trace(config.trace_path, residuals, steps, energies)
    return ForwardSolution(vel, press, report)
