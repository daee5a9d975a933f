"""Tikhonov-regularized identification of the rheology and friction
coefficients from surface-velocity data.

The reduced cost is the observation misfit plus gradient-seminorm
penalties on both coefficients.  Its gradient is assembled from one
dual solve per evaluation; descent runs projected gradient steps with
nodal clipping onto the admissible box and an Armijo backtracking line
search, warm starting every forward solve from the previous state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .adjoint import Observation, misfit, solve_adjoint
from .assembly import (assemble_coeff_gradient_duals, basal_p1_mass,
                       basal_p1_stiffness, omega_p1_mass, omega_p1_stiffness)
from .forward import SolverError, solve_forward
from .spaces import Field, SpaceKind, velocity_trace

REPRESENTATIONS = ("L2", "H1_smoothed")


@dataclass
class OptimizationConfig:
    """Projected-gradient settings.

    The step grows by ``step_growth`` after each accepted iterate and
    shrinks by ``armijo_shrink`` on rejection; ``representation``
    selects the inner product in which the gradient dual is represented
    for the descent direction.
    """

    max_iterations: int = 100
    grad_tol: float = 1e-9
    step_init: float = 1.0
    step_growth: float = 2.0
    armijo_shrink: float = 0.5
    armijo_c: float = 1e-4
    ls_max: int = 30
    representation: str = "H1_smoothed"


@dataclass
class CostParts:
    total: float
    misfit: float
    reg_rheology: float
    reg_friction: float


@dataclass
class EvaluatedCost:
    parts: CostParts
    velocity: Field
    pressure: Field
    report: object


@dataclass
class InversionState:
    """Current iterate with its cached solves and gradient data.

    The cache token ties the stored velocity/adjoint to the coefficient
    values they were solved for; gradient evaluation refuses stale
    states.
    """

    rheology: Field
    friction: Field
    velocity: Field
    pressure: Field
    adjoint_state: Field
    cost: CostParts
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
    state: InversionState
    history: list
    reason: str


def _check_coeff_fields(rheology, friction):
    if rheology.space.kind is not SpaceKind.COEFF_OMEGA_P1:
        raise ValueError("rheology must live on the vertex space")
    if friction.space.kind is not SpaceKind.COEFF_BASAL_P1:
        raise ValueError("friction must live on the bed chain")
    return rheology.space.parent


def project_onto_W(rheology, friction, params):
    """Nodal clip onto the admissible box; idempotent."""
    spaces = _check_coeff_fields(rheology, friction)
    b = np.clip(rheology.values, params.rheology_min, params.rheology_max)
    t = np.clip(friction.values, 0.0, params.friction_max)
    return Field(spaces.coeff_omega, b), Field(spaces.coeff_basal, t)


def in_box(rheology, friction, params, slack=0.0):
    return (np.all(rheology.values >= params.rheology_min - slack)
            and np.all(rheology.values <= params.rheology_max + slack)
            and np.all(friction.values >= -slack)
            and np.all(friction.values <= params.friction_max + slack))


def regularization_parts(rheology, friction, params):
    spaces = rheology.space.parent
    Kb = omega_p1_stiffness(spaces)
    Kt = basal_p1_stiffness(spaces)
    reg_b = 0.5 * params.reg_rheology * float(rheology.values @ (Kb @ rheology.values))
    reg_t = 0.5 * params.reg_friction * float(friction.values @ (Kt @ friction.values))
    return reg_b, reg_t


def evaluate_cost(rheology, friction, obs, params, solver_config=None,
                  warm_start=None):
    """Forward solve plus cost decomposition at (rheology, friction).

    Raises SolverError if the forward solve does not converge and
    ValueError if the coefficients leave the admissible box.
    """
    _check_coeff_fields(rheology, friction)
    if not in_box(rheology, friction, params):
        raise ValueError("coefficients outside the admissible box")
    solution = solve_forward(rheology, friction, params, solver_config,
                             warm_start=warm_start)
    if not solution.report.converged:
        raise SolverError("forward solve did not converge "
                          "(final residual %g)" % solution.report.residual_history[-1])
    mis = misfit(solution.velocity, obs)
    reg_b, reg_t = regularization_parts(rheology, friction, params)
    parts = CostParts(mis + reg_b + reg_t, mis, reg_b, reg_t)
    return EvaluatedCost(parts, solution.velocity, solution.pressure,
                         solution.report)


def make_state(rheology, friction, obs, params, solver_config=None,
               warm_start=None):
    """Evaluate cost and dual state, bundling everything for gradients."""
    cost = evaluate_cost(rheology, friction, obs, params, solver_config,
                         warm_start=warm_start)
    lam = solve_adjoint(cost.velocity, rheology, friction, obs, params)
    state = InversionState(rheology, friction, cost.velocity, cost.pressure,
                           lam, cost.parts)
    state._token = state.token()
    return state


def gradient_duals(state, params):
    """Dual vectors of the reduced-cost gradient on both coefficient
    spaces (data terms via the dual state plus Tikhonov terms)."""
    if state._token != state.token():
        raise ValueError("stale inversion state: coefficients changed since "
                         "the cached solves")
    spaces = state.rheology.space.parent
    g_rheo, g_fric = assemble_coeff_gradient_duals(state.velocity,
                                                   state.adjoint_state, params)
    g_rheo = g_rheo + params.reg_rheology * (omega_p1_stiffness(spaces)
                                             @ state.rheology.values)
    g_fric = g_fric + params.reg_friction * (basal_p1_stiffness(spaces)
                                             @ state.friction.values)
    return g_rheo, g_fric


def _riesz_solver(spaces, key, builder):
    cache = spaces._cache
    if key not in cache:
        cache[key] = spla.splu(builder().tocsc())
    return cache[key]


def represent(dual, spaces, which, representation):
    """Riesz representative of a coefficient-space dual vector in the
    chosen inner product (plain L2 or the H1 smoother)."""
    if representation not in REPRESENTATIONS:
        raise ValueError("unknown gradient representation %r" % representation)
    if which == "omega":
        mass, stiff = omega_p1_mass(spaces), omega_p1_stiffness(spaces)
        key = "omega_riesz_" + representation
    else:
        mass, stiff = basal_p1_mass(spaces), basal_p1_stiffness(spaces)
        key = "basal_riesz_" + representation
    if representation == "L2":
        lu = _riesz_solver(spaces, key, lambda: mass)
    else:
        lu = _riesz_solver(spaces, key, lambda: mass + stiff)
    return lu.solve(dual)


def evaluate_gradient(state, obs, params, representation="H1_smoothed"):
    """Gradient fields of the reduced cost at a fresh state.

    Fills the state's dual vectors, representative fields and projected
    gradient norm, and returns the pair (grad_rheology, grad_friction).
    """
    del obs  # data already folded into the cached dual state
    spaces = state.rheology.space.parent
    g_rheo, g_fric = gradient_duals(state, params)
    rb = represent(g_rheo, spaces, "omega", representation)
    rf = represent(g_fric, spaces, "basal", representation)
    state.grad_rheology_dual = g_rheo
    state.grad_friction_dual = g_fric
    state.grad_rheology = Field(spaces.coeff_omega, rb)
    state.grad_friction = Field(spaces.coeff_basal, rf)
    pb, pf = project_onto_W(
        Field(spaces.coeff_omega, state.rheology.values - rb),
        Field(spaces.coeff_basal, state.friction.values - rf), params)
    state.projected_grad_norm = float(np.sqrt(
        np.sum((state.rheology.values - pb.values) ** 2)
        + np.sum((state.friction.values - pf.values) ** 2)))
    return state.grad_rheology, state.grad_friction


def directional_derivative(state, rheology_dir, friction_dir, params):
    """Pairing of the gradient duals with a coefficient direction."""
    g_rheo, g_fric = gradient_duals(state, params)
    return float(g_rheo @ rheology_dir.values + g_fric @ friction_dir.values)


def run_inversion(rheology0, friction0, obs, params, opt_config=None,
                  solver_config=None):
    """Projected gradient descent from (rheology0, friction0).

    Every iterate stays in the admissible box, the cost decreases
    monotonically, and each history row records
    (iteration, cost, misfit, reg_rheology, reg_friction,
    projected_grad_norm, accepted_step).

    Returns
    -------
    InversionResult with the final state, the history rows and the
    reason descent stopped (``converged``, ``max_iterations``,
    ``line_search_failed`` or ``iteration_budget_zero``).
    """
    opt = opt_config or OptimizationConfig()
    spaces = _check_coeff_fields(rheology0, friction0)
    if not in_box(rheology0, friction0, params):
        raise ValueError("initial coefficients outside the admissible box")

    state = make_state(rheology0, friction0, obs, params, solver_config)
    evaluate_gradient(state, obs, params, opt.representation)
    history = [(0, state.cost.total, state.cost.misfit, state.cost.reg_rheology,
                state.cost.reg_friction, state.projected_grad_norm, 0.0)]
    if opt.max_iterations == 0:
        return InversionResult(state, history, "iteration_budget_zero")

    alpha = opt.step_init
    reason = "max_iterations"
    for it in range(1, opt.max_iterations + 1):
        if state.projected_grad_norm <= opt.grad_tol:
            reason = "converged"
            break
        accepted = None
        for _ in range(opt.ls_max + 1):
            trial_b = Field(spaces.coeff_omega,
                            state.rheology.values - alpha * state.grad_rheology.values)
            trial_f = Field(spaces.coeff_basal,
                            state.friction.values - alpha * state.grad_friction.values)
            trial_b, trial_f = project_onto_W(trial_b, trial_f, params)
            delta_b = trial_b.values - state.rheology.values
            delta_f = trial_f.values - state.friction.values
            if np.linalg.norm(delta_b) == 0.0 and np.linalg.norm(delta_f) == 0.0:
                break     # projection swallowed the whole step
            pred = float(state.grad_rheology_dual @ delta_b
                         + state.grad_friction_dual @ delta_f)
            try:
                trial = make_state(trial_b, trial_f, obs, params, solver_config,
                                   warm_start=(state.velocity, state.pressure))
            except SolverError:
                alpha *= opt.armijo_shrink
                continue
            if trial.cost.total <= state.cost.total + opt.armijo_c * min(pred, 0.0):
                accepted = trial
                break
            alpha *= opt.armijo_shrink
        if accepted is None:
            reason = "line_search_failed"
            break
        state = accepted
        state.iteration = it
        evaluate_gradient(state, obs, params, opt.representation)
        history.append((it, state.cost.total, state.cost.misfit,
                        state.cost.reg_rheology, state.cost.reg_friction,
                        state.projected_grad_norm, alpha))
        alpha *= opt.step_growth
    else:
        if state.projected_grad_norm <= opt.grad_tol:
            reason = "converged"
    return InversionResult(state, history, reason)


def taylor_test(rheology, friction, rheology_dir, friction_dir, obs, params,
                solver_config=None, h_values=(1e-1, 1e-2, 1e-3, 1e-4)):
    """Remainder decay of the cost expansion along one direction.

    The zeroth-order remainder |f(x + h d) - f(x)| should decay like h,
    the first-order remainder |f(x + h d) - f(x) - h f'(x) d| like h^2;
    slopes are least-squares fits in log-log.  A zero direction gives
    identically zero remainders and undefined slopes.  Raises if any
    perturbed point leaves the admissible box.
    """
    spaces = _check_coeff_fields(rheology, friction)
    h_values = np.asarray(sorted(h_values, reverse=True), dtype=np.float64)
    for h in h_values:
        pb = Field(spaces.coeff_omega, rheology.values + h * rheology_dir.values)
        pf = Field(spaces.coeff_basal, friction.values + h * friction_dir.values)
        if not in_box(pb, pf, params):
            raise ValueError("perturbation exits the admissible box at h = %g" % h)

    state = make_state(rheology, friction, obs, params, solver_config)
    f0 = state.cost.total
    df = directional_derivative(state, rheology_dir, friction_dir, params)
    r0 = np.empty(h_values.size)
    r1 = np.empty(h_values.size)
    warm = (state.velocity, state.pressure)
    for k, h in enumerate(h_values):
        pb = Field(spaces.coeff_omega, rheology.values + h * rheology_dir.values)
        pf = Field(spaces.coeff_basal, friction.values + h * friction_dir.values)
        fh = evaluate_cost(pb, pf, obs, params, solver_config,
                           warm_start=warm).parts.total
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
    of standard deviation ``noise_sigma`` per stored component.
    """
    spaces = _check_coeff_fields(rheology_true, friction_true)
    solution = solve_forward(rheology_true, friction_true, params, solver_config)
    if not solution.report.converged:
        raise SolverError("twin forward solve did not converge")
    observed = spaces.mesh.observed_edges
    samples = velocity_trace(solution.velocity, observed)
    if mode == "tangential":
        t = spaces.bedge_tangents[observed]
        samples = np.einsum("kmc,kc->km", samples, t)
    elif mode != "full_vector":
        raise ValueError("unknown projection mode %r" % mode)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        samples = samples + noise_sigma * rng.standard_normal(samples.shape)
    return Observation(samples, mode, float(noise_sigma))
