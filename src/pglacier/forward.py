"""Damped inexact Newton solver for the nonlinear momentum balance.

Each Newton step assembles the exact symmetric saddle-point Jacobian
after symmetric constraint elimination and backtracks on the euclidean
norm of the reduced system residual.  A solve without a warm start
starts at rest: with delta > 0 the Jacobian there is the linear Stokes
operator with the rest viscosity B delta^(p-2).  Every Newton step runs
flexible GMRES preconditioned by an LU, to Eisenstat-Walker forcing
terms.  Flexible GMRES keeps the preconditioned vectors, so its residual
is the true double-precision residual whatever the precision of the LU.
A solve given no ``preconditioner`` starts on its mesh's shared rest LU:
one single-precision LU of the Jacobian at rest under the coefficients
``REST_COEFFICIENTS``, which each ``Spaces`` factors on first need and
keeps for the exponents, shift and floor it was taken at, so repeated
solves on one mesh factor nothing of their own.  When one GMRES cycle of
``GMRES_RESTART`` iterations misses its tolerance, the step
refactorizes at the current Jacobian, solves directly and keeps the new
LU for the rest of the solve; the shared one is never replaced by it.
A solve is one Newton loop of at most ``max_newton`` steps; one that
misses its tolerance in them, or whose line search stalls, reports
itself unconverged.  A caller holding the LU of a nearby
Jacobian (the inversion keeps the dual operator's) passes it as
``preconditioner`` instead.

GMRES's first preconditioner solve in a Newton step needs only the
residual.  When the current LU fills ``OVERLAP_FILL`` or more (L + U
nonzeros: bedded slabs of 32x16 and up), the step starts that solve on
one worker thread before it assembles its Jacobian on the calling
thread; SuperLU solves without the GIL, so the two run at once, and
the vector is bit for bit the one GMRES would compute itself.  Below
the threshold the thread handoff costs more than the solve it hides.
The worker lives for one ``solve_forward``.  Every other LU solve and
every factorization, with its probe, runs on the calling thread: the
benchmark's speed clock probes from a hook on
``scipy.sparse.linalg.splu``, and a probe on the worker would run
beside the assembly and mis-scale the run.

Every LU comes from ``_factorize``: a forward solve's, the shared rest
LU included, in single precision, all others (the dual operator, the
Gram matrices of the Riesz map, the trace constant) through
``factorize``, in double precision, as they are exact solves with no
Krylov loop around them.  It exploits the symmetry of these operators
and takes pivots on the diagonal.  A reduced saddle operator (forward
Jacobian, dual operator) is factored in its own order: the reduced
frame of :class:`~pglacier.spaces.ReducedFrame` runs node by node, in a
minimum-degree order of the P2 node graph with each node's velocity
dofs before its pressure dof, so no zero pressure diagonal is pivoted
on before the velocity pivots that fill it, and SuperLU factors the
reduced operator's own CSC arrays in their natural order.  Any other
operator (a Gram matrix) is ordered by a minimum-degree ordering of
A + A^T.  An LU of either kind is checked by one probe solve (refined
twice in double precision for a single-precision LU); if SuperLU
raises or the probe misses ``PROBE_RTOL``, the matrix is factored again
as given, in double precision with SuperLU's default COLAMD ordering
and partial pivoting, and the forward solve counts the fallback.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .assembly import (_omega_quad_integral, assemble_jacobian, _residual_raw,
                       norm, solver_sign)
from .spaces import (Field, SpaceKind, constant_field, point_velocity_values,
                     zero_field)


# Krylov vectors in the one GMRES cycle a Newton step may run before it
# refactorizes.
GMRES_RESTART = 30

# L + U nonzeros from which a Newton step starts its first preconditioner
# solve on the worker thread, beside its Jacobian assembly.  The forward
# LUs of bedded slabs fill 1.0e5 at 16x8 and 5.7e5 at 32x16; overlapping
# every step made cached 16x8 solves 5% slower and 32x16 ones 6% faster
# (one BLAS thread, 2 vCPUs): below the threshold the handoff, about
# 32 us a step and 126 us for the worker's start and shutdown, costs
# more than the solve it hides.
OVERLAP_FILL = 250_000

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

# Steps of double-precision refinement on a single-precision forward LU:
# in the probe of each, the shared rest LU's included, and in the direct
# solve of a Newton step that refactorized on a GMRES miss.  On 20 bedded
# 64x32 slabs under the tilted load, one step leaves the probe of the
# Jacobian at rest at 1e-11 to 6e-10, but on one slab at 9e-8
# (delta = 1e-6) and 3e-7 (delta = 1e-3), above PROBE_RTOL; two reach
# 5e-11 or less.
DIRECT_REFINEMENTS = 2

# (rheology, friction) at which the shared rest LU takes the Jacobian at
# rest: the defaults of the config keys fields.rheology and
# fields.friction.
REST_COEFFICIENTS = (1.0, 0.5)

# Relative slack of the energy check of a converged solve: the bound is
# exact for the discrete solution, and the solve leaves a small residual.
ENERGY_RTOL = 1e-9


class SolverError(Exception):
    """Forward or linear solve failed."""


@dataclass
class SolverConfig:
    """Newton settings of a forward solve; the linear solves and the
    line search (``LS_*``) take none.

    ``newton_rtol`` (finite, > 0) applies to the initial residual norm,
    ``newton_atol`` (finite, > 0) is the absolute floor and
    ``max_newton`` (>= 1) caps the Newton steps of the solve;
    ``trace_path``, when set, receives the Newton history as CSV.
    """

    newton_rtol: float = 1e-10
    newton_atol: float = 1e-12
    max_newton: int = 100
    trace_path: str = None

    def __post_init__(self):
        for name in ("newton_rtol", "newton_atol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError("%s must be finite and > 0, got %r" % (name, value))
        if self.max_newton < 1:
            raise ValueError("max_newton must be >= 1, got %r" % (self.max_newton,))


@dataclass
class SolveReport:
    """Convergence record of one forward solve.

    ``factorizations`` counts the LUs the solve itself factored: the
    shared rest LU when this call built it, and one per Newton step
    whose GMRES cycle missed.  A solve that found the rest LU cached,
    or whose caller's preconditioner served every step, reads 0.
    ``lu_fallbacks`` counts those of them that fell back to COLAMD.
    ``continuation_used`` is always False: it stays only for the
    benchmark's trace, and goes once the benchmark stops reading it.
    """

    converged: bool
    iterations: int
    residual_history: list
    step_lengths: list
    energy_history: list
    final_energy: float
    energy_bound: float
    factorizations: int
    krylov_iterations: int
    lu_fallbacks: int
    continuation_used: bool = False


@dataclass
class ForwardSolution:
    velocity: Field
    pressure: Field
    report: SolveReport


def _gmres(matrix, lu, rhs, rtol, first=None):
    """One cycle of flexible GMRES on ``matrix . x = rhs``, preconditioned
    by ``lu`` from the right.

    The cycle keeps each preconditioned vector z_k = lu^-1 v_k and builds
    x from them, so its Arnoldi relation, and with it the residual, holds
    in double precision whatever the precision of ``lu``; ``first``, when
    given, is z_0, the solve of ``rhs / |rhs|`` made beforehand.  Givens
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
        precond[k] = lu.solve(basis[k]) if k or first is None else first
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


class _SingleLU:
    """A float32 SuperLU ``lu`` solving in double precision: each
    right-hand side is divided by its max-abs before the cast, so that no
    finite one overflows, and the solution is scaled back in double
    precision."""

    def __init__(self, lu):
        self.lu = lu

    @property
    def nnz(self):
        return self.lu.nnz

    def solve(self, rhs):
        scale = np.abs(rhs).max() or 1.0
        x = self.lu.solve((rhs / scale).astype(np.float32)).astype(np.float64)
        x *= scale
        return x


def _factorize(matrix, permc_spec="MMD_AT_PLUS_A", single=False):
    """``(lu, fell_back)``: the symmetric-mode LU of ``matrix`` in the
    column order ``permc_spec``, or its COLAMD LU (``fell_back`` true)
    when the symmetric one raises or fails the probe.

    A reduced saddle operator is factored in its own node-blocked order,
    ``"NATURAL"``; other operators by minimum degree on A + A^T.  With
    pivots on the diagonal SuperLU steps past an exactly zero pivot by
    itself, but a tiny nonzero one can give a useless LU without an
    error, hence the probe.  With ``single`` the symmetric attempt
    factors a float32 copy of the data on the matrix's own index arrays,
    and the probe measures the solve that ``_LinearSolver`` makes right
    after a refactorization, with ``DIRECT_REFINEMENTS`` steps of
    refinement in double precision; an entry beyond float32 range fails
    it.  The COLAMD LU is always double precision.
    """
    csc = matrix.tocsc()
    if single:
        with np.errstate(over="ignore"):
            csc = sp.csc_matrix((csc.data.astype(np.float32), csc.indices,
                                 csc.indptr), shape=csc.shape)
    try:
        lu = spla.splu(csc, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError:
        lu = None
    csc = None                              # the LU no longer needs it
    if lu is not None:
        lu = _SingleLU(lu) if single else lu
        if _probe_passes(matrix, lu, DIRECT_REFINEMENTS if single else 0):
            return lu, False
    lu = None                               # release the rejected LU first
    try:
        return spla.splu(matrix.tocsc()), True
    except RuntimeError as exc:
        raise SolverError("sparse factorization failed: %s" % exc)


def factorize(matrix, permc_spec="MMD_AT_PLUS_A"):
    """Sparse LU of a symmetric reduced operator with diagonal pivots:
    in the column order ``permc_spec`` (``"NATURAL"`` for a reduced
    saddle operator, by minimum degree on A + A^T otherwise), or COLAMD
    with partial pivoting when that LU fails its probe solve (see
    ``_factorize``).  Only the LU's ``solve`` is for callers."""
    return _factorize(matrix, permc_spec)[0]


class _LinearSolver:
    """The linear solves of one forward solve, sharing one LU.

    Every solve runs flexible GMRES preconditioned by the current LU and
    refactorizes only when GMRES falls short.  A refactorization rebinds
    only this object's reference, so neither a caller's LU nor the
    shared rest LU is ever replaced; the solver's own LU lives as long
    as this object, never beyond the forward solve.  Its LUs are single
    precision, in the reduced frame's own order, and the direct solve
    right after one refines ``DIRECT_REFINEMENTS`` times in double
    precision.  ``factorizations`` and ``fallbacks`` count the LUs of
    the forward solve (``fallbacks`` those that fell back to
    double-precision COLAMD): the starting ``lu`` when ``built`` says the
    forward solve factored it, with ``fell_back`` its fallback, and each
    refactorization.

    A solve comes in two halves, so that its first LU solve can run
    while the caller assembles the matrix: ``start(rhs)`` needs only the
    right-hand side and, when the current LU fills ``OVERLAP_FILL`` or
    more, solves GMRES's first basis vector on one worker thread;
    ``finish(matrix, started, rtol)`` waits for that vector and runs the
    rest on the calling thread.  Every other LU solve and every
    factorization, with its probe, stays on the calling thread, and the
    worker is idle by the time ``finish`` goes on: the benchmark's speed
    clock probes from a hook on ``scipy.sparse.linalg.splu``, and a
    probe on the worker would run beside the assembly and mis-scale the
    run.  The worker starts at the first overlapped solve and ends at
    ``close``, which the forward solve calls in a ``finally``.
    """

    def __init__(self, lu, built=False, fell_back=False):
        self.lu = lu
        self.factorizations = int(built)
        self.krylov_iterations = 0
        self.fallbacks = int(fell_back)
        self._worker = None

    def start(self, rhs):
        """``(rhs, exponent, first)`` for ``finish``: ``rhs`` divided by
        the power of two at its max-abs, which is exact, so that GMRES's
        norms cannot overflow, that exponent, and the Future of the LU's
        solve of GMRES's first basis vector on the worker, or None below
        ``OVERLAP_FILL``."""
        exponent = np.frexp(np.abs(rhs).max())[1]
        rhs = np.ldexp(rhs, -exponent)
        first = None
        if self.lu.nnz >= OVERLAP_FILL:
            if self._worker is None:
                self._worker = ThreadPoolExecutor(max_workers=1)
            basis = rhs / float(np.linalg.norm(rhs))
            first = self._worker.submit(self.lu.solve, basis)
        return rhs, exponent, first

    def finish(self, matrix, started, rtol):
        """Solve ``matrix . x = rhs`` to relative residual ``rtol``, where
        ``started`` is ``start(rhs)``."""
        rhs, exponent, first = started
        if first is not None:
            first = first.result()          # a worker's error raises here
        x, iterations, _ = _gmres(matrix, self.lu, rhs, rtol, first)
        self.krylov_iterations += iterations
        if x is None:
            self.lu = None                  # release the stale LU first
            self.lu, fell_back = _factorize(matrix, "NATURAL", single=True)
            self.factorizations += 1
            self.fallbacks += fell_back
            x = _refined_solve(matrix, self.lu, rhs, DIRECT_REFINEMENTS)
        return np.ldexp(x, exponent)

    def close(self):
        """Shut the worker down, once its solve has ended."""
        if self._worker is not None:
            self._worker.shutdown()
            self._worker = None


def _rest_lu(spaces, params):
    """``(lu, built, fell_back)``: the single-precision LU of the reduced
    Jacobian at rest under ``REST_COEFFICIENTS`` that the cold solves on
    ``spaces`` share, whether this call factored it (rather than finding
    it cached) and whether that LU fell back to COLAMD.  It depends on
    ``params`` through p, s, delta and mu0 only; ``spaces`` keeps one,
    for the last such key asked for, and factors it again when the key
    changes."""
    key = (params.p, params.s, params.delta, params.mu0)
    cached = spaces._cache.get("rest_lu")
    if cached is not None and cached[0] == key:
        return cached[1], False, False
    spaces._cache.pop("rest_lu", None)      # release the old LU first
    rheology, friction = REST_COEFFICIENTS
    system = assemble_jacobian(zero_field(spaces.velocity),
                               constant_field(spaces.coeff_omega, rheology),
                               constant_field(spaces.coeff_basal, friction),
                               params)
    lu, fell_back = _factorize(system.reduced(), "NATURAL", single=True)
    spaces._cache["rest_lu"] = (key, lu)
    return lu, True, fell_back


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


def _reduced_residual(spaces, x_hat, rheology, friction, params, sign):
    """The reduced residual at ``x_hat`` and the fields it expands to."""
    x = spaces.expand_vector(x_hat)
    fields = (Field(spaces.velocity, x[:spaces.n_u].copy()),
              Field(spaces.pressure, x[spaces.n_u:].copy()))
    raw = _residual_raw(*fields, rheology, friction, params)
    return spaces.reduce_vector(sign * raw), fields


def _newton(spaces, x_hat, rheology, friction, params, config, linear):
    """Damped inexact Newton on the reduced rotated system, with the
    linear solves of ``linear``; returns the last iterate's fields, the
    histories and a convergence flag.  An iterate's fields, built once by
    its residual, serve its energy, its Jacobian and the solution."""
    sign = solver_sign(spaces)
    r, fields = _reduced_residual(spaces, x_hat, rheology, friction, params, sign)
    res = float(np.linalg.norm(r))
    tol = max(config.newton_atol, config.newton_rtol * res)
    residuals = [res]
    steps = []
    energies = [norm(fields[0], "V2_seminorm")]
    eta = None
    while res > tol and len(steps) < config.max_newton:
        started = linear.start(-r)          # may solve beside the assembly
        system = assemble_jacobian(fields[0], rheology, friction, params)
        eta = _forcing_term(res, residuals[-2] if steps else None, eta,
                            0.5 * tol / res)
        delta = linear.finish(system.reduced(), started, eta)
        alpha = 1.0
        for _ in range(LS_MAX + 1):
            trial = x_hat + alpha * delta
            r_trial, trial_fields = _reduced_residual(
                spaces, trial, rheology, friction, params, sign)
            res_trial = float(np.linalg.norm(r_trial))
            if res_trial <= (1.0 - LS_DECREASE * alpha) * res:
                break
            alpha *= LS_SHRINK
        else:
            return fields, residuals, steps, energies, False
        x_hat, r, res, fields = trial, r_trial, res_trial, trial_fields
        residuals.append(res)
        steps.append(alpha)
        energies.append(norm(fields[0], "V2_seminorm"))
    # an infinite first residual makes ``tol`` infinite too
    return fields, residuals, steps, energies, res <= tol and math.isfinite(res)


def energy_bound(velocity, params):
    """Energy bound sqrt(|f . int_Omega v| / mu0) on the V2 seminorm of
    a discrete solution ``velocity``.

    Testing the discrete momentum equations with v itself gives
    mu0 |v|_V2^2 <= |(f, v)|: the viscous and bed terms are
    nonnegative, and the pressure term vanishes as v is discretely
    divergence-free.  It holds at a converged solve up to its residual.
    """
    spaces = velocity.space.parent
    values = point_velocity_values(velocity)
    load = sum(f * _omega_quad_integral(spaces, values[:, c])
               for c, f in enumerate(params.body_force))
    return math.sqrt(abs(load) / params.mu0)


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
        Previous (velocity, pressure) pair used as the initial guess;
        without it the solve starts at rest.
    preconditioner : SuperLU, optional
        LU of a nearby reduced Jacobian (the dual operator at a nearby
        state, say).  Without it the solve takes its mesh's shared rest
        LU, factoring it first if ``rheology.space.parent`` holds none
        for these p, s, delta and mu0.  Either way every Newton step
        runs flexible GMRES preconditioned by the LU and factorizes
        only on a miss.  ``report.factorizations`` counts the LUs this
        call factored, a shared rest LU it built included, and
        ``report.lu_fallbacks`` those of them that fell back to COLAMD.

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

    if preconditioner is None:
        linear = _LinearSolver(*_rest_lu(spaces, params))
    else:
        linear = _LinearSolver(preconditioner)
    if warm_start is not None:
        x0 = np.concatenate([warm_start[0].values, warm_start[1].values])
        x_hat0 = spaces.reduce_vector(x0)
    else:
        x_hat0 = np.zeros(spaces.n_sys)

    try:
        (vel, press), residuals, steps, energies, ok = _newton(
            spaces, x_hat0, rheology, friction, params, config, linear)
    finally:
        linear.close()
    bound = energy_bound(vel, params)
    final_energy = energies[-1]
    report = SolveReport(ok, len(residuals) - 1, residuals, steps, energies,
                         final_energy, bound,
                         linear.factorizations, linear.krylov_iterations,
                         linear.fallbacks)
    if ok and final_energy > bound * (1.0 + ENERGY_RTOL):
        raise SolverError("energy bound violated: |v|_V2 = %g exceeds %g"
                          % (final_energy, bound))
    if config.trace_path:
        _write_trace(config.trace_path, residuals, steps, energies)
    return ForwardSolution(vel, press, report)
