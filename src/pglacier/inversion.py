"""Tikhonov-regularized identification of the rheology and friction
coefficients from surface-velocity data.

The reduced cost is the observation misfit plus gradient-seminorm
penalties on both coefficients.  It is minimized over the admissible
box by a projected inexact Gauss-Newton-CG iteration (Petra et al.,
J. Glaciol. 2012) in reduced space (Bertsekas, SIAM J. Control Optim.
1982): nodes near a bound whose gradient points out of the box move
onto it, CG preconditioned by the Riesz map solves the Gauss-Newton
system on the other nodes, and a monotone Armijo search backtracks
from the full projected step.  Only an accepted iterate gets a
gradient, which factors the dual operator (the Jacobian) at its state,
solves the dual problem and keeps the LU, together with the
coefficient Jacobian G of the operator at that state in the reduced
frame.  Those two serve the whole iterate: every Gauss-Newton Hessian
product is two solves on the LU between sparse products with G, the
observation Gram matrix and G^T, and the LU preconditions the forward
solves of the next trials, each warm started from the first-order
prediction of its state, itself one solve on G d.  Every trial,
accepted, rejected or failed, is logged.  Every cost is a state from
:func:`make_state`, and the Taylor check perturbs one such state with
the same warm start and preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import (PROJECTION_MODES, Observation, _checked_noise_sigma,
                      _projected_trace, factor_adjoint, misfit, observation_gram,
                      solve_adjoint)
from .assembly import (_cached, assemble_coeff_jacobian, basal_p1_stiffness,
                       gram_matrices, omega_p1_stiffness)
from .forward import SolverError, factorize, solve_forward
from .spaces import Field, SpaceKind

# The iteration stops at a projected gradient norm of GRAD_TOL, or of
# GRAD_RTOL times its starting value.  CG stops at the quadratic forcing
# term min(CG_FORCING_MAX, |g| / |g0|) of ``_cg_forcing`` in the Riesz
# norm or after CG_MAX_ITERATIONS Hessian products.  Nodes within
# ACTIVE_EPS (or the projected gradient norm, if smaller) of a bound
# whose gradient points out of the box are active.  A trial is accepted
# when its cost falls by ARMIJO_C times the predicted decrease; the step
# shrinks by ARMIJO_SHRINK after a rejected or failed trial.
GRAD_TOL = 1e-9
GRAD_RTOL = 1e-6
# On noisy data (noise_sigma > 0) the iteration also stops once the
# misfit falls to DISCREPANCY_TAU times the expected misfit of the truth
# (Morozov's discrepancy principle, see ``noise_misfit``).
DISCREPANCY_TAU = 1.1
CG_FORCING_MAX = 0.1
CG_MAX_ITERATIONS = 50
ACTIVE_EPS = 1e-2
ARMIJO_SHRINK = 0.5
ARMIJO_C = 1e-4


class NonFiniteCostError(ValueError):
    """The cost at the starting coefficients is not finite, so the
    inversion has nothing to decrease and a Taylor test nothing to
    expand."""


@dataclass
class OptimizationConfig:
    """Gauss-Newton settings: at most ``max_iterations`` (>= 0) accepted
    iterates, each trying at most ``ls_max`` (>= 1) + 1 steps, the first
    the full Gauss-Newton step.  CG is preconditioned by the H1 Riesz map
    M + K; the CG, step and stopping rules are the module constants above.
    """

    max_iterations: int = 100
    ls_max: int = 30

    def __post_init__(self):
        for name, least in (("max_iterations", 0), ("ls_max", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError("%s must be >= %d, got %r" % (name, least, value))


@dataclass
class CostParts:
    total: float
    misfit: float
    reg_rheology: float
    reg_friction: float


@dataclass
class InversionState:
    """Current iterate with its cached solves and gradient data.

    The forward state and cost are solved when the state is made; the
    dual state, the LU of the dual operator it was solved with and the
    coefficient Jacobian in the reduced frame (``coeff_jacobian``, from
    :func:`assemble_coeff_jacobian` and the mesh's velocity reduction,
    with its transpose ``coeff_jacobian_t``) are filled by the first
    gradient request.  The cache token ties the stored solves and
    operators to the coefficient values they were made for; gradients,
    linearized states and Hessian products refuse stale states.
    """

    rheology: Field
    friction: Field
    velocity: Field
    pressure: Field
    cost: CostParts
    obs: Observation
    adjoint_state: Field = None
    adjoint_lu: object = None
    coeff_jacobian: object = None
    coeff_jacobian_t: object = None
    grad_rheology: Field = None
    grad_friction: Field = None
    grad_rheology_dual: np.ndarray = None
    grad_friction_dual: np.ndarray = None
    projected_grad_norm: float = None
    iteration: int = 0
    _token: bytes = None

    def token(self):
        return self.rheology.values.tobytes() + self.friction.values.tobytes()


@dataclass
class TaylorReport:
    h_values: np.ndarray
    remainder_zero: np.ndarray
    remainder_first: np.ndarray
    slope_zero: float
    slope_first: float


@dataclass
class InversionResult:
    """Final state, one history row per accepted iterate, one trial row
    (iteration, step, cost or None, outcome, failure text) per
    line-search trial, and the reason the iteration stopped."""

    state: InversionState
    history: list
    reason: str
    trials: list


def _check_coeff_fields(rheology, friction):
    if rheology.space.kind is not SpaceKind.COEFF_OMEGA_P1:
        raise ValueError("rheology must live on the vertex space")
    if friction.space.kind is not SpaceKind.COEFF_BASAL_P1:
        raise ValueError("friction must live on the bed chain")
    return rheology.space.parent


def project_onto_W(rheology, friction, params):
    """Nodal clip onto the admissible box; idempotent."""
    spaces = _check_coeff_fields(rheology, friction)
    b = np.clip(rheology.values, *params.box["rheology"])
    t = np.clip(friction.values, *params.box["friction"])
    return Field(spaces.coeff_omega, b), Field(spaces.coeff_basal, t)


def in_box(rheology, friction, params):
    return all(np.all((lo <= field.values) & (field.values <= hi))
               for field, (lo, hi) in zip((rheology, friction),
                                          params.box.values()))


def _require_finite_cost(state):
    if not np.isfinite(state.cost.total):
        raise NonFiniteCostError("the starting cost is not finite (misfit %r): "
                                 "the observations are too large"
                                 % state.cost.misfit)


def regularization_parts(rheology, friction, params):
    spaces = rheology.space.parent
    Kb = omega_p1_stiffness(spaces)
    Kt = basal_p1_stiffness(spaces)
    reg_b = 0.5 * params.reg_rheology * float(rheology.values @ (Kb @ rheology.values))
    reg_t = 0.5 * params.reg_friction * float(friction.values @ (Kt @ friction.values))
    return reg_b, reg_t


def make_state(rheology, friction, obs, params, solver_config=None,
               warm_start=None, preconditioner=None):
    """Solve the forward problem at (rheology, friction) and bundle the
    solve, the cost parts and the data for later gradients; the dual
    problem is solved only when a gradient is requested.

    ``warm_start`` and ``preconditioner`` pass through to
    :func:`solve_forward`, which raises ValueError for coefficients off
    their spaces or outside the admissible box.  Raises SolverError if
    the forward solve does not converge.
    """
    solution = solve_forward(rheology, friction, params, solver_config,
                             warm_start=warm_start,
                             preconditioner=preconditioner)
    if not solution.report.converged:
        raise SolverError("forward solve did not converge "
                          "(final residual %g)" % solution.report.residual_history[-1])
    mis = misfit(solution.velocity, obs)
    reg_b, reg_t = regularization_parts(rheology, friction, params)
    state = InversionState(rheology, friction, solution.velocity,
                           solution.pressure,
                           CostParts(mis + reg_b + reg_t, mis, reg_b, reg_t), obs)
    state._token = state.token()
    return state


def gradient_duals(state, params):
    """Dual vectors of the reduced-cost gradient on both coefficient
    spaces (data terms via the dual state plus Tikhonov terms).

    The first request at a state factors the dual operator, solves the
    dual problem and assembles the reduced coefficient Jacobian, and
    keeps all three on the state; the data terms are G^T applied to the
    reduced dual state.
    """
    if state._token != state.token():
        raise ValueError("stale inversion state: coefficients changed since "
                         "the cached solves")
    spaces = state.rheology.space.parent
    if state.adjoint_state is None:
        state.adjoint_lu = factor_adjoint(state.velocity, state.rheology,
                                          state.friction, params)
        state.adjoint_state = solve_adjoint(state.velocity, state.obs,
                                            state.adjoint_lu)
        state.coeff_jacobian = spaces.velocity_reduction() @ \
            assemble_coeff_jacobian(state.velocity, params)
        state.coeff_jacobian_t = state.coeff_jacobian.T.tocsr()
    g_rheo, g_fric = _split(spaces, state.coeff_jacobian_t @ (
        spaces.velocity_reduction() @ state.adjoint_state.values))
    r_rheo, r_fric = _tikhonov_duals(state.rheology, state.friction, params)
    return g_rheo + r_rheo, g_fric + r_fric


def _split(spaces, stacked):
    """The vertex and bed parts of a stacked coefficient vector."""
    n = spaces.coeff_omega.dof_count
    return stacked[:n], stacked[n:]


def _tikhonov_duals(rheology, friction, params):
    """Dual vectors of the Tikhonov terms' derivative at (rheology,
    friction), which is also their Hessian applied to it."""
    spaces = rheology.space.parent
    return (params.reg_rheology * (omega_p1_stiffness(spaces) @ rheology.values),
            params.reg_friction * (basal_p1_stiffness(spaces) @ friction.values))


def represent(dual, spaces, which, representation="H1_smoothed"):
    """Riesz representative of a dual vector on the coefficient space
    ``which`` (``omega`` or ``basal``): a solve on its H1 Gram matrix
    M + K, LU cached per mesh; nothing to factor on a space with no dofs
    (a bedless mesh's friction space).  ``representation`` must be
    ``H1_smoothed``; it goes once the benchmark stops passing it."""
    if representation != "H1_smoothed":
        raise ValueError("unknown gradient representation %r" % representation)
    if which not in ("omega", "basal"):
        raise ValueError("unknown coefficient space %r" % which)
    if not dual.size:
        return np.zeros(0)

    def build():
        mass, stiffness = gram_matrices(getattr(spaces, "coeff_" + which))
        return factorize(mass + stiffness)
    return _cached(spaces, which + "_riesz", build).solve(dual)


def evaluate_gradient(state, params):
    """Projected gradient fields of the reduced cost at a fresh state.

    Fills the state's gradient dual vectors, the Riesz representatives
    of the projected gradient (the duals without their components that
    point out of the box at nodes on a bound) and the euclidean norm of
    those representatives' nodal values, which vanishes exactly at a
    stationary point of the boxed problem.  Returns the pair
    (grad_rheology, grad_friction).
    """
    spaces = state.rheology.space.parent
    state.grad_rheology_dual, state.grad_friction_dual = gradient_duals(state,
                                                                        params)
    x, g = _stacked(state)
    blocked = _points_out(x, g, _bounds(spaces, params), 0.0)
    rep = _riesz(spaces, np.where(blocked, 0.0, g))
    state.grad_rheology, state.grad_friction = _coefficient_fields(spaces, rep)
    state.projected_grad_norm = float(np.linalg.norm(rep))
    return state.grad_rheology, state.grad_friction


def directional_derivative(state, rheology_dir, friction_dir, params):
    """Pairing of the gradient duals with a coefficient direction."""
    g_rheo, g_fric = gradient_duals(state, params)
    return float(g_rheo @ rheology_dir.values + g_fric @ friction_dir.values)


def _held_solve(state, rheology_dir, friction_dir):
    """Reduced system vector J^-1 (-G d) for the direction d on the held
    LU of the state's dual operator (the Jacobian J) and its reduced
    coefficient Jacobian G."""
    if state._token != state.token() or state.coeff_jacobian is None:
        raise ValueError("Hessian products and linearized states need a "
                         "fresh state with its gradient evaluated")
    d = np.concatenate([rheology_dir.values, friction_dir.values])
    return state.adjoint_lu.solve(-(state.coeff_jacobian @ d))


def linearized_state(state, rheology_dir, friction_dir):
    """First-order change of the forward state along a coefficient
    direction, at a state whose gradient was evaluated: the system
    vector of J^-1 (-G d) in plain x/y components, one solve on the
    held LU."""
    spaces = state.rheology.space.parent
    return spaces.expand_vector(_held_solve(state, rheology_dir, friction_dir))


def hessian_product(state, rheology_dir, friction_dir, params):
    """Dual vectors of the Gauss-Newton Hessian of the reduced cost
    applied to a coefficient direction d, at a state whose gradient was
    evaluated.

    Two solves on the held LU and sparse products with the held reduced
    coefficient Jacobian G and the mesh's observation Gram matrix Q:
    w = J^-1 (-G d) is the linearized state, z = J^-1 (-Q w) the dual
    state of its misfit against zero data, and G^T z, plus the Tikhonov
    terms, the product.  No element assembly runs.
    """
    spaces = state.rheology.space.parent
    w = _held_solve(state, rheology_dir, friction_dir)
    z = state.adjoint_lu.solve(-(observation_gram(spaces, state.obs.mode) @ w))
    h_rheo, h_fric = _split(spaces, state.coeff_jacobian_t @ z)
    r_rheo, r_fric = _tikhonov_duals(rheology_dir, friction_dir, params)
    return h_rheo + r_rheo, h_fric + r_fric


def _stacked(state):
    """Coefficient values and gradient duals of a state, each as one
    vector: the vertex part, then the bed part."""
    return (np.concatenate([state.rheology.values, state.friction.values]),
            np.concatenate([state.grad_rheology_dual, state.grad_friction_dual]))


def _coefficient_fields(spaces, x):
    b, f = _split(spaces, x)
    return Field(spaces.coeff_omega, b), Field(spaces.coeff_basal, f)


def _bounds(spaces, params):
    """Lower and upper bounds of the stacked coefficient vector."""
    sizes = (spaces.coeff_omega.dof_count, spaces.coeff_basal.dof_count)
    return np.repeat(np.array(list(params.box.values())), sizes, axis=0).T


def _points_out(x, g, bounds, eps):
    """Mask of the stacked nodes within ``eps`` of a bound (from
    :func:`_bounds`) whose gradient dual ``g`` points out of the box."""
    lo, hi = bounds
    return ((x <= lo + eps) & (g > 0.0)) | ((x >= hi - eps) & (g < 0.0))


def _riesz(spaces, dual):
    """Stacked Riesz representative of a stacked dual vector."""
    omega, basal = _split(spaces, dual)
    return np.concatenate([represent(omega, spaces, "omega"),
                           represent(basal, spaces, "basal")])


def _cg_forcing(g_norm, g0):
    """Relative CG tolerance eta = min(CG_FORCING_MAX, |g| / |g0|) of an
    iterate whose free gradient has Riesz norm ``g_norm``; ``g0`` is
    that norm at the first iterate, and None (or 0) gives the cap.

    A forcing term of order |g| makes inexact Newton converge
    quadratically near the solution (Dembo, Eisenstat & Steihaug, SIAM
    J. Numer. Anal. 1982), so late iterates solve the Gauss-Newton
    system accurately instead of polishing over more outer iterations.
    """
    return min(CG_FORCING_MAX, g_norm / g0) if g0 else CG_FORCING_MAX


def _gauss_newton_step(state, params, free, g0):
    """Inexact solve of H s = -g on the ``free`` nodes (a 0/1 mask) by
    CG preconditioned with the Riesz map.

    CG starts from s = 0 and stops when the residual's Riesz norm falls
    to :func:`_cg_forcing` eta times that of the free gradient g, after
    CG_MAX_ITERATIONS Hessian products, or on a direction of
    non-positive curvature.  Returns (s, |g|).
    """
    spaces = state.rheology.space.parent

    def apply(d):
        return free * np.concatenate(
            hessian_product(state, *_coefficient_fields(spaces, d), params))

    r = -free * _stacked(state)[1]
    z = free * _riesz(spaces, r)
    s = np.zeros_like(r)
    d = z
    rz = float(r @ z)
    g_norm = np.sqrt(rz)
    stop = _cg_forcing(g_norm, g0) ** 2 * rz     # rz is a squared norm
    for k in range(CG_MAX_ITERATIONS):
        if rz <= stop:
            break
        hd = apply(d)
        curvature = float(d @ hd)
        if curvature <= 0.0:
            if k == 0:
                s = d           # the preconditioned steepest descent step
            break
        a = rz / curvature
        s = s + a * d
        r = r - a * hd
        z = free * _riesz(spaces, r)
        rz, rz_old = float(r @ z), rz
        d = z + (rz / rz_old) * d
    return s, g_norm


def noise_misfit(spaces, obs):
    """Expected misfit of the truth under the data's noise:
    0.5 sigma^2 times the stored components per point times the
    observed length (0 for exact data)."""
    components = 2 if obs.mode == "full_vector" else 1
    length = float(spaces.bedge_lengths[spaces.mesh.observed_edges].sum())
    return 0.5 * obs.noise_sigma ** 2 * components * length


def _stop_reason(state, grad_tol, misfit_floor):
    """``converged`` at a small projected gradient, ``noise_level`` at a
    misfit within the noise (never on exact data), else None."""
    if state.projected_grad_norm <= grad_tol:
        return "converged"
    if misfit_floor > 0.0 and state.cost.misfit <= misfit_floor:
        return "noise_level"
    return None


def run_inversion(rheology0, friction0, obs, params, opt_config=None,
                  solver_config=None):
    """Projected inexact Gauss-Newton-CG from (rheology0, friction0).

    Every iterate stays in the admissible box, the cost decreases
    monotonically, and each history row records
    (iteration, cost, misfit, reg_rheology, reg_friction,
    projected_grad_norm, accepted_step).  At each accepted state the
    nodes within the Bertsekas epsilon of a bound whose gradient points
    out of the box move to that bound, CG solves the Gauss-Newton
    system on the others, and a monotone Armijo search runs from the
    full projected step.  Each trial's forward solve is warm started
    from the first-order prediction of its state and preconditioned by
    the LU of the current dual operator.

    Returns
    -------
    InversionResult with the final state, the history rows, the trial
    rows (iteration, step, cost or None, outcome ``accepted``,
    ``rejected`` or ``solver_failure``, failure text) and the reason
    the iteration stopped (``converged``, ``noise_level`` when noisy
    data is fitted to ``DISCREPANCY_TAU`` times :func:`noise_misfit`,
    ``max_iterations``, ``line_search_failed`` or
    ``iteration_budget_zero``).  Raises NonFiniteCostError when the
    starting cost is not finite.
    """
    opt = opt_config or OptimizationConfig()
    state = make_state(rheology0, friction0, obs, params, solver_config)
    _require_finite_cost(state)
    spaces = state.rheology.space.parent
    n_u = spaces.n_u
    bounds = _bounds(spaces, params)
    evaluate_gradient(state, params)
    history = [(0, state.cost.total, state.cost.misfit, state.cost.reg_rheology,
                state.cost.reg_friction, state.projected_grad_norm, 0.0)]
    trials = []
    if opt.max_iterations == 0:
        return InversionResult(state, history, "iteration_budget_zero", trials)

    grad_tol = max(GRAD_TOL, GRAD_RTOL * state.projected_grad_norm)
    misfit_floor = DISCREPANCY_TAU * noise_misfit(spaces, obs)
    g0 = None
    for it in range(1, opt.max_iterations + 1):
        reason = _stop_reason(state, grad_tol, misfit_floor)
        if reason is not None:
            break
        # Bertsekas' epsilon-active nodes move onto their bound, CG
        # steps the others
        x, g = _stacked(state)
        active = _points_out(x, g, bounds,
                             min(ACTIVE_EPS, state.projected_grad_norm))
        step, g_norm = _gauss_newton_step(state, params, (~active).astype(np.float64), g0)
        g0 = g0 or g_norm
        step = np.where(active, np.where(g > 0.0, *bounds) - x, step)
        alpha = 1.0
        accepted = None
        for _ in range(opt.ls_max + 1):
            trial_b, trial_f = project_onto_W(
                *_coefficient_fields(spaces, x + alpha * step), params)
            delta = np.concatenate([trial_b.values, trial_f.values]) - x
            if not np.any(delta):
                break     # projection swallowed the whole step
            pred = float(g @ delta)
            dx = linearized_state(state, *_coefficient_fields(spaces, delta))
            warm = (Field(spaces.velocity, state.velocity.values + dx[:n_u]),
                    Field(spaces.pressure, state.pressure.values + dx[n_u:]))
            try:
                trial = make_state(trial_b, trial_f, obs, params, solver_config,
                                   warm_start=warm,
                                   preconditioner=state.adjoint_lu)
            except SolverError as exc:
                trials.append((it, alpha, None, "solver_failure", str(exc)))
                alpha *= ARMIJO_SHRINK
                continue
            if trial.cost.total <= state.cost.total + ARMIJO_C * min(pred, 0.0):
                trials.append((it, alpha, trial.cost.total, "accepted", ""))
                accepted = trial
                break
            trials.append((it, alpha, trial.cost.total, "rejected", ""))
            alpha *= ARMIJO_SHRINK
        if accepted is None:
            reason = "line_search_failed"
            break
        state = accepted
        state.iteration = it
        evaluate_gradient(state, params)
        history.append((it, state.cost.total, state.cost.misfit,
                        state.cost.reg_rheology, state.cost.reg_friction,
                        state.projected_grad_norm, alpha))
    else:
        reason = _stop_reason(state, grad_tol, misfit_floor) or "max_iterations"
    return InversionResult(state, history, reason, trials)


def taylor_test(state, rheology_dir, friction_dir, params, solver_config=None,
                h_values=(1e-1, 1e-2, 1e-3, 1e-4)):
    """Remainder decay of the cost expansion along one direction at the
    solved ``state`` (from :func:`make_state`).

    The zeroth-order remainder |f(x + h d) - f(x)| should decay like h,
    the first-order remainder |f(x + h d) - f(x) - h f'(x) d| like h^2;
    slopes are least-squares fits in log-log.  Tests along several
    directions at one state share the LU of its dual operator.  A point
    that equals the base point bitwise (a zero direction, or h below its
    resolution) takes the base cost unsolved, so a zero direction gives
    identically zero remainders and undefined slopes.
    Raises ValueError if any perturbed point leaves the admissible box
    and NonFiniteCostError when the cost at the base point is not finite.
    """
    spaces = state.rheology.space.parent
    h_values = np.asarray(sorted(h_values, reverse=True), dtype=np.float64)
    b, f = state.rheology.values, state.friction.values
    points = [(Field(spaces.coeff_omega, b + h * rheology_dir.values),
               Field(spaces.coeff_basal, f + h * friction_dir.values))
              for h in h_values]
    for h, (pb, pf) in zip(h_values, points):
        if not in_box(pb, pf, params):
            raise ValueError("perturbation exits the admissible box at h = %g" % h)

    _require_finite_cost(state)
    f0 = state.cost.total
    df = directional_derivative(state, rheology_dir, friction_dir, params)
    r0 = np.empty(h_values.size)
    r1 = np.empty(h_values.size)
    warm = (state.velocity, state.pressure)
    for k, (h, (pb, pf)) in enumerate(zip(h_values, points)):
        if np.array_equal(pb.values, b) and np.array_equal(pf.values, f):
            fh = f0                 # a warm re-solve may still take steps
        else:
            fh = make_state(pb, pf, state.obs, params, solver_config,
                            warm_start=warm,
                            preconditioner=state.adjoint_lu).cost.total
        r0[k] = abs(fh - f0)
        r1[k] = abs(fh - f0 - h * df)
    return TaylorReport(h_values, r0, r1, _loglog_slope(h_values, r0),
                        _loglog_slope(h_values, r1))


def _loglog_slope(h, r):
    mask = r > 0.0
    if mask.sum() < 2:
        return None
    x = np.log(h[mask])
    y = np.log(r[mask])
    return float(np.polyfit(x, y, 1)[0])


def make_twin_data(rheology_true, friction_true, params, noise_sigma=0.0,
                   seed=0, mode="full_vector", solver_config=None):
    """Synthesize an Observation from a known coefficient pair.

    Solves the forward problem at the truth, samples the trace on the
    observed edges, projects per ``mode`` and adds seeded Gaussian noise
    of standard deviation ``noise_sigma`` per stored component; a
    ``mode`` outside ``PROJECTION_MODES`` or a non-finite or negative
    ``noise_sigma`` raises ValueError before the solve.
    """
    if mode not in PROJECTION_MODES:
        raise ValueError("unknown projection mode %r" % (mode,))
    noise_sigma = _checked_noise_sigma(noise_sigma)
    solution = solve_forward(rheology_true, friction_true, params, solver_config)
    if not solution.report.converged:
        raise SolverError("twin forward solve did not converge")
    spaces = rheology_true.space.parent
    samples = _projected_trace(spaces, solution.velocity, mode,
                               spaces.mesh.observed_edges)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        samples = samples + noise_sigma * rng.standard_normal(samples.shape)
    return Observation(samples, mode, noise_sigma)
