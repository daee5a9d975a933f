"""Numerical verification of the provable kernel and operator bounds.

Two suites: a pointwise sweep over seeded random matrix/vector pairs
checking the power-law kernel inequalities (norm bound, strict
monotonicity, Lipschitz ratio with fitted constant, derivative
coercivity), and a discrete suite on an assembled problem checking the
energy bound, the Hoelder bound of the viscous volume term, dual-
operator coercivity and the measured trace constant.

Every check returns a CheckResult; fitted constants are reported in
the detail string so the CLI can print a table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import Observation, solve_adjoint
from .assembly import assemble_adjoint_operator, basal_trace_mass, \
    velocity_mass, velocity_v2_stiffness
from .forward import solve_forward
from .spaces import Field, norm, scalar_values_at_quadrature, \
    velocity_gradients_at_quadrature, velocity_trace
from .tensor_ops import (PhysicsParams, monotonicity_witness, s_gamma,
                         s_gamma_prime_apply, s_omega, s_omega_prime_apply)

DEFAULT_P_VALUES = (1.2, 4.0 / 3.0, 1.6, 1.9)
DEFAULT_DELTA_VALUES = (0.0, 1e-3, 0.1, 1.0)
DEFAULT_PRIME_DELTA_VALUES = (1e-3, 0.1, 1.0)

# Relative slack for comparisons that are exact in real arithmetic but
# accumulate a few ulps in floats.
_EPS = 1e-12


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self):
        return "%-44s %s  %s" % (self.name, "PASS" if self.passed else "FAIL",
                                 self.detail)


def _sample_pairs(rng, n):
    """Random 2x2 matrix pairs and vectors with log-uniform magnitudes."""
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
    P = rng.standard_normal((n, 2, 2)) * scale[:, None, None]
    Q = rng.standard_normal((n, 2, 2)) * np.roll(scale, 1)[:, None, None]
    W = rng.standard_normal((n, 2, 2))
    u = rng.standard_normal((n, 2)) * scale[:, None]
    v = rng.standard_normal((n, 2)) * np.roll(scale, 2)[:, None]
    w = rng.standard_normal((n, 2))
    return P, Q, W, u, v, w


def _frob(P):
    return np.sqrt((P ** 2).sum(axis=(-2, -1)))


def pointwise_suite(samples=100000, p_values=DEFAULT_P_VALUES,
                    delta_values=DEFAULT_DELTA_VALUES,
                    prime_delta_values=DEFAULT_PRIME_DELTA_VALUES, seed=0):
    """Kernel inequality sweep; returns a list of CheckResults.

    The norm bound, monotonicity and Lipschitz checks accept delta = 0;
    derivative coercivity requires delta > 0 and a zero in
    ``prime_delta_values`` is refused outright.
    """
    for d in prime_delta_values:
        if d <= 0.0:
            raise ValueError("derivative-kernel checks need delta > 0; "
                             "remove %r from the delta sweep" % (d,))
    rng = np.random.default_rng(seed)
    P, Q, W, u, v, w = _sample_pairs(rng, samples)
    results = []

    # (a) |S(P)| <= |P|^(p-1), matrix and vector kernels.
    worst = 0.0
    ok = True
    for pv in p_values:
        for dv in delta_values:
            params = PhysicsParams(p=pv, delta=dv)
            lhs = _frob(s_omega(P, params))
            rhs = _frob(P) ** (pv - 1.0)
            ok &= bool(np.all(lhs <= rhs * (1.0 + _EPS)))
            worst = max(worst, float((lhs / rhs).max()))
            lhs_v = np.linalg.norm(s_gamma(u, params), axis=-1)
            rhs_v = np.linalg.norm(u, axis=-1) ** (pv - 1.0)
            ok &= bool(np.all(lhs_v <= rhs_v * (1.0 + _EPS)))
            worst = max(worst, float((lhs_v / rhs_v).max()))
    results.append(CheckResult("kernel norm bound |S(P)| <= |P|^(p-1)", ok,
                               "max ratio %.15g" % worst))

    # (b) strict monotonicity and (c) the two-sided ratio constants.
    mono_ok = True
    ratio_min = np.inf
    lip_max = 0.0
    for pv in p_values:
        for dv in delta_values:
            params = PhysicsParams(p=pv, delta=dv)
            wit = monotonicity_witness(P, Q, params)
            mono_ok &= bool(np.all(wit["lhs"] > 0.0))
            ratio_min = min(ratio_min, float(np.nanmin(wit["ratio"])))
            base = dv + _frob(P) + _frob(Q)
            lip = _frob(s_omega(P, params) - s_omega(Q, params)) \
                / (base ** (pv - 2.0) * _frob(P - Q))
            lip_max = max(lip_max, float(lip.max()))
            dvec = np.linalg.norm(u - v, axis=-1)
            base_v = dv + np.linalg.norm(u, axis=-1) + np.linalg.norm(v, axis=-1)
            lhs_v = ((s_gamma(u, params) - s_gamma(v, params)) * (u - v)).sum(axis=-1)
            mono_ok &= bool(np.all(lhs_v > 0.0))
            lip_v = np.linalg.norm(s_gamma(u, params) - s_gamma(v, params),
                                   axis=-1) / (base_v ** (pv - 2.0) * dvec)
            lip_max = max(lip_max, float(lip_v.max()))
    results.append(CheckResult("strict monotonicity (S(P)-S(Q)):(P-Q) > 0",
                               mono_ok, "min scaled ratio %.15g" % ratio_min))
    results.append(CheckResult("Lipschitz ratio (fitted constant < 10)",
                               bool(lip_max < 10.0),
                               "fitted C = %.15g" % lip_max))

    # (d) derivative coercivity, delta > 0 only.
    coer_ok = True
    margin_min = np.inf
    for pv in p_values:
        for dv in prime_delta_values:
            params = PhysicsParams(p=pv, delta=dv)
            form = (s_omega_prime_apply(P, W, params) * W).sum(axis=(-2, -1))
            scale = ((P ** 2).sum(axis=(-2, -1)) + dv ** 2) ** ((pv - 2.0) / 2.0) \
                * (W ** 2).sum(axis=(-2, -1))
            bound = (pv - 1.0) * scale
            coer_ok &= bool(np.all(form >= bound - _EPS * scale))
            margin_min = min(margin_min, float((form / scale).min() - (pv - 1.0)))
            form_v = (s_gamma_prime_apply(u, w, params) * w).sum(axis=-1)
            scale_v = ((u ** 2).sum(axis=-1) + dv ** 2) ** ((pv - 2.0) / 2.0) \
                * (w ** 2).sum(axis=-1)
            coer_ok &= bool(np.all(form_v >= (pv - 1.0) * scale_v - _EPS * scale_v))
            margin_min = min(margin_min,
                             float((form_v / scale_v).min() - (pv - 1.0)))
    results.append(CheckResult("derivative coercivity >= (p-1) scale",
                               coer_ok, "min margin %.3g" % margin_min))
    return results


def _random_admissible(spaces, rng):
    """Random velocity dof vector satisfying the strong constraints."""
    x = np.zeros(spaces.n_sys)
    x[:spaces.n_u] = rng.standard_normal(spaces.n_u)
    x = spaces.expand_vector(spaces.reduce_vector(x))
    return Field(spaces.velocity, x[:spaces.n_u])


def _volume_term(velocity, rheology, phi, params):
    """Quadrature of (B S(Dv), grad phi) over the domain."""
    spaces = velocity.space.parent
    grad_v = velocity_gradients_at_quadrature(velocity)
    grad_phi = velocity_gradients_at_quadrature(phi)
    Dv = 0.5 * (grad_v + np.swapaxes(grad_v, -1, -2))
    S = s_omega(Dv, params)
    Bq = scalar_values_at_quadrature(rheology)
    detw = spaces.det[:, None] * spaces.quadrature.tri_weights[None, :]
    return float(np.einsum("tq,tq,tqij->", detw, Bq,
                           S * grad_phi))


def trace_constant(spaces, iterations=200):
    """Largest ratio of bed-trace L2 norm to H1 norm over the velocity
    space, measured by power iteration on the generalized eigenproblem."""
    import scipy.sparse.linalg as spla

    M_tr = basal_trace_mass(spaces)
    H1 = (velocity_mass(spaces) + velocity_v2_stiffness(spaces)).tocsc()
    lu = spla.splu(H1)
    x = np.ones(spaces.n_u)
    lam = 0.0
    for _ in range(iterations):
        y = lu.solve(M_tr @ x)
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            return 0.0
        x = y / nrm
        lam = float(x @ (M_tr @ x)) / float(x @ (H1 @ x))
    return float(np.sqrt(lam))


def discrete_suite(rheology, friction, params, solver_config=None, seed=0,
                   n_obs=10):
    """Assembled-operator bounds on one forward solve.

    Checks the energy bound of the solution, the Hoelder bound of the
    viscous volume term against random test fields, coercivity of the
    dual operator on solved dual states for random observations, the
    zero-data dual state and the measured bed-trace constant.
    """
    spaces = rheology.space.parent
    rng = np.random.default_rng(seed)
    results = []

    solution = solve_forward(rheology, friction, params, solver_config)
    rep = solution.report
    results.append(CheckResult(
        "forward Newton convergence", rep.converged,
        "%d iterations, residual %.3g" % (rep.iterations,
                                          rep.residual_history[-1])))
    results.append(CheckResult(
        "energy bound |v|_V2 <= |f| sqrt(area) / mu0",
        bool(rep.final_energy <= rep.energy_bound * (1.0 + _EPS)),
        "|v|_V2 = %.15g, bound = %.15g" % (rep.final_energy, rep.energy_bound)))

    # Hoelder bound of the volume term with exponent r = 2/(2-p).
    v = solution.velocity
    r = 2.0 / (2.0 - params.p)
    coeff_norm = norm(rheology, "Lr_omega", r=r)
    grad_v = velocity_gradients_at_quadrature(v)
    Dv = 0.5 * (grad_v + np.swapaxes(grad_v, -1, -2))
    detw = spaces.det[:, None] * spaces.quadrature.tri_weights[None, :]
    Dv_l2 = float(np.sqrt(np.einsum("tq,tqij->", detw, Dv ** 2)))
    hoelder_ok = True
    worst = 0.0
    for _ in range(5):
        phi = _random_admissible(spaces, rng)
        lhs = abs(_volume_term(v, rheology, phi, params))
        rhs = coeff_norm * Dv_l2 ** (params.p - 1.0) * norm(phi, "V2_seminorm")
        hoelder_ok &= bool(lhs <= rhs * (1.0 + 1e-10))
        worst = max(worst, lhs / rhs)
    results.append(CheckResult(
        "volume-term Hoelder bound", hoelder_ok, "max ratio %.15g" % worst))

    # Dual-operator coercivity on computed dual states.
    observed = spaces.mesh.observed_edges
    nq = spaces.quadrature.edge_points.size
    system = assemble_adjoint_operator(v, rheology, friction, params)
    K = system.matrix.tocsr()[:spaces.n_u, :spaces.n_u]
    coer_ok = True
    margin = np.inf
    for _ in range(n_obs):
        obs = Observation(rng.standard_normal((observed.size, nq, 2)))
        lam = solve_adjoint(v, rheology, friction, obs, params)
        energy = float(lam.values @ (K @ lam.values))
        v2 = norm(lam, "V2_seminorm")
        floor = params.mu0 * v2 ** 2
        coer_ok &= bool(energy >= floor * (1.0 - 1e-10))
        if floor > 0.0:
            margin = min(margin, energy / floor)
    results.append(CheckResult(
        "dual coercivity B(l;l) >= mu0 |l|_V2^2", coer_ok,
        "min energy/floor = %.15g" % margin))

    exact = Observation(velocity_trace(v, observed))
    lam0 = solve_adjoint(v, rheology, friction, exact, params)
    scale = norm(v, "L2") + 1.0
    lam0_norm = norm(lam0, "L2")
    results.append(CheckResult(
        "zero-misfit dual state vanishes",
        bool(lam0_norm <= 1e-10 * scale),
        "|lambda| = %.3g (scale %.3g)" % (lam0_norm, scale)))

    results.append(CheckResult(
        "bed-trace constant (measured)", True,
        "C_trace = %.15g" % trace_constant(spaces)))
    return results
