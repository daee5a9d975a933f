"""Numerical verification of the provable kernel and operator bounds.

Two suites: a pointwise sweep over seeded random matrix/vector pairs
checking the power-law kernel inequalities (norm bound, strict
monotonicity, Lipschitz ratio with fitted constant, derivative
coercivity), and a discrete suite on an assembled problem checking the
energy bound, the Hoelder bound of the viscous volume term, dual-
operator coercivity and the measured bed-trace constant: the square
root of the top eigenvalue of the pencil (M_tr, M + K) of the bed-trace
mass and the H1 Gram matrix, found by Lanczos on one LU of M + K on one
velocity component and cached per mesh.

The pointwise sweep splits its samples into fixed blocks, each drawn
from its own seeded stream, and checks the blocks on one thread per
CPU, the calling thread and a thread pool: numpy drops the GIL in the
whole-array passes, and a worker holds only the block it checks.  A
block holds its samples component-major: a 2x2 or 2-vector kernel has
only 2-4 components, so in the C layout every sum over them is an
inner loop of that length, while with the sample axis innermost it is
a few whole-vector passes.
It calls the two steps the kernels are made of (``tensor_ops``): the
exponent-free pass once per sample set and delta, the exponent step
once per exponent, so it checks the very values that ``s_omega``,
``s_gamma``, their derivatives and the Newton Jacobian
(``_prime_factors``) are built from.

Every check returns a CheckResult; fitted constants are reported in
the detail string so the CLI can print a table.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse.linalg as spla

from .adjoint import Observation, solve_adjoint
from .assembly import _cached, _omega_quad_integral, _strain, \
    assemble_adjoint_operator, basal_trace_mass, gram_matrices, norm
from .forward import ENERGY_RTOL, SolverError, factorize, solve_forward
from .spaces import Field, point_scalar_values, point_velocity_gradients, \
    velocity_trace
from .tensor_ops import PhysicsParams, _power_step, _prime_step, _shifted_pass, \
    s_omega

DEFAULT_P_VALUES = (1.2, 4.0 / 3.0, 1.6, 1.9)
DEFAULT_DELTA_VALUES = (0.0, 1e-3, 0.1, 1.0)
DEFAULT_PRIME_DELTA_VALUES = (1e-3, 0.1, 1.0)

DUAL_OBSERVATIONS = 10       # random data of the dual-coercivity check

# Samples per block of the pointwise sweep: block k draws its samples
# from the stream default_rng([seed, k]), so they do not depend on the
# sample count or the worker count.  Block 0's stream is that of
# default_rng(seed), as SeedSequence pads its entropy with zeros, so a
# sweep of one block draws what a single stream would.  One
# (block, 2, 2) array is 400 KB, and a worker peaks at about 7 MB with
# the block's draws and one delta's kernel passes on them.
_SAMPLE_BLOCK = 12500

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


def _worker_count(blocks):
    """Threads of the pointwise sweep, the calling one included: one per
    block, at most one per CPU this process may run on."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(blocks, cpus)


def pointwise_suite(samples=100000, p_values=DEFAULT_P_VALUES,
                    delta_values=DEFAULT_DELTA_VALUES,
                    prime_delta_values=DEFAULT_PRIME_DELTA_VALUES, seed=0):
    """Kernel inequality sweep; returns a list of CheckResults.

    Each check runs on both kernel laws: the matrix kernel on 2x2
    sample pairs and the vector kernel on 2-vector pairs.  The norm
    bound, monotonicity and Lipschitz checks accept delta = 0;
    derivative coercivity requires delta > 0 and a zero in
    ``prime_delta_values`` is refused outright, as are an empty sweep
    (``samples < 1`` or an empty value list) that would pass vacuously.

    The samples come in blocks of ``_SAMPLE_BLOCK`` (the last one
    shorter), block k drawn from ``default_rng([seed, k])``, so adding
    samples adds blocks and leaves the earlier ones as they were.  The
    blocks run on one thread per CPU the process may use
    (:func:`_worker_count`): worker j checks blocks j, j + workers, ...,
    worker 0 on the calling thread and the others on a thread pool.
    Each worker holds only the block it checks, about 7 MB at a time.
    A block is copied component-major (the sample axis innermost in
    memory), so every sum over the 2 or 4 kernel components is a few
    passes over whole vectors rather than an inner loop of length 2-4.
    Within a block the deltas run outermost: the kernels' exponent-free
    pass runs once per delta on x and on y and is dropped before the
    next delta, and every p reuses it through one exponent step.  The
    deltas fold into one max, min or all per check, and the blocks fold
    in block order, so the results depend on neither the worker count
    nor the scheduling.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1, got %r" % (samples,))
    for name, values in (("p_values", p_values), ("delta_values", delta_values),
                         ("prime_delta_values", prime_delta_values)):
        if len(values) == 0:
            raise ValueError("%s is empty: the sweep needs at least one value"
                             % name)
    for d in prime_delta_values:
        if d <= 0.0:
            raise ValueError("derivative-kernel checks need delta > 0; "
                             "remove %r from the delta sweep" % (d,))
    # The sweep calls the kernels' two steps itself, so the parameters
    # are checked here as the kernels' callers check them.
    deltas = tuple(dict.fromkeys(tuple(delta_values) + tuple(prime_delta_values)))
    for pv in p_values:
        for dv in deltas:
            PhysicsParams(p=pv, delta=dv)
    blocks = -(-samples // _SAMPLE_BLOCK)
    check = partial(_check_block, seed, samples, p_values, delta_values,
                    prime_delta_values, deltas)
    workers = _worker_count(blocks)

    def share(j):
        """Worker j's blocks: j, j + workers, j + 2 workers, ..."""
        return [check(k) for k in range(j, blocks, workers)]

    # The calling thread checks share 0 itself rather than wait on the
    # pool: a pool thread allocates from a malloc arena of its own, which
    # keeps what it freed out of reach of the caller's later work, so each
    # pool thread holds about a block's working set resident.  A pool
    # that ran every share raised the peak RSS of a process that runs
    # one-block sweeps between inversions by 5 MB.  With one worker no
    # thread is started.
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        others = pool.map(share, range(1, workers))
        shares = [share(0), *others]
    # folded in block order, whichever thread checked a block
    norm, mono, coer, worsts, ratios, lips, margins = zip(
        *(shares[k % workers][k // workers] for k in range(blocks)))
    norm_ok, mono_ok, coer_ok = all(norm), all(mono), all(coer)
    worst, lip_max = max(worsts), max(lips)
    ratio_min, margin_min = min(ratios), min(margins)
    return [
        CheckResult("kernel norm bound |S(P)| <= |P|^(p-1)", norm_ok,
                    "max ratio %.15g" % worst),
        CheckResult("strict monotonicity (S(P)-S(Q)):(P-Q) > 0", mono_ok,
                    "min scaled ratio %.15g" % ratio_min),
        CheckResult("Lipschitz ratio (fitted constant < 10)",
                    bool(lip_max < 10.0), "fitted C = %.15g" % lip_max),
        CheckResult("derivative coercivity >= (p-1) scale",
                    coer_ok, "min margin %.3g" % margin_min)]


def _check_block(seed, samples, p_values, delta_values, prime_delta_values,
                 deltas, k):
    """The pointwise checks on block k of the sweep: its pass flags
    (norm, monotonicity, coercivity), then its extrema (max norm ratio,
    min scaled ratio, max Lipschitz ratio, min coercivity margin)."""
    size = min(_SAMPLE_BLOCK, samples - k * _SAMPLE_BLOCK)
    # Each draw, its kernel axes flattened as the kernels flatten them, is
    # replaced in turn by a copy with the sample axis innermost in memory,
    # viewed back in its shape (n, k), so at most one extra array is held.
    draws = list(_sample_pairs(np.random.default_rng([seed, k]), size))
    for i in range(len(draws)):
        draws[i] = np.ascontiguousarray(draws[i].reshape(size, -1).T).T
    norm_ok = mono_ok = coer_ok = True
    worst = lip_max = 0.0
    ratio_min = margin_min = np.inf
    P, Q, W, u, v, w = draws
    # One row per kernel law: the sample pair (x, y), the coercivity
    # direction z and whether the law's scaled monotonicity ratio is
    # reported (the matrix law's only).
    for x, y, z, scaled in ((P, Q, W, True), (u, v, w, False)):
        x2 = (x ** 2).sum(axis=-1)
        nx = np.sqrt(x2)
        ny = np.sqrt((y ** 2).sum(axis=-1))
        rhs = [nx ** (pv - 1.0) for pv in p_values]
        diff = x - y
        d2 = (diff ** 2).sum(axis=-1)
        nd = np.sqrt(d2)
        z2 = (z ** 2).sum(axis=-1)
        sx, sy = np.empty_like(x), np.empty_like(x)
        # The exponent-free pass of the kernel on x (and on y) once
        # per delta, and its exponent step per p: the same two steps
        # that s_omega, s_gamma and their derivatives compose.  Each
        # delta's passes are dropped before the next delta's run.
        for dv in deltas:
            mx = _shifted_pass(x, dv)
            if dv in delta_values:
                # (a) |S(x)| <= |x|^(p-1), (b) strict monotonicity
                # with the scaled ratio of :func:`monotonicity_witness`
                # and (c) the two-sided ratio constants.
                my = _shifted_pass(y, dv)
                shifted = dv + nx + ny
                for pv, rhs_p in zip(p_values, rhs):
                    _power_step(mx, pv, out=sx)
                    lhs = np.sqrt((sx ** 2).sum(axis=-1))
                    norm_ok &= bool(np.all(lhs <= rhs_p * (1.0 + _EPS)))
                    worst = max(worst, float((lhs / rhs_p).max()))
                    sx -= _power_step(my, pv, out=sy)  # S(x) - S(y)
                    pairing = (sx * diff).sum(axis=-1)
                    mono_ok &= bool(np.all(pairing > 0.0))
                    base = shifted ** (pv - 2.0)
                    if scaled:
                        bound = base * d2
                        ratio_min = min(ratio_min, float(np.nanmin(np.where(
                            bound > 0.0,
                            pairing / np.where(bound > 0.0, bound, 1.0),
                            np.nan))))
                    lip = np.sqrt((sx ** 2).sum(axis=-1)) / (base * nd)
                    lip_max = max(lip_max, float(lip.max()))
                del my
            if dv in prime_delta_values:
                # (d) derivative coercivity, delta > 0 only.
                r2 = x2 + dv ** 2
                for pv in p_values:
                    form = (_prime_step(mx, z, pv) * z).sum(axis=-1)
                    scale = r2 ** ((pv - 2.0) / 2.0) * z2
                    coer_ok &= bool(np.all(form >= (pv - 1.0) * scale
                                           - _EPS * scale))
                    margin_min = min(margin_min,
                                     float((form / scale).min() - (pv - 1.0)))
            del mx
    return norm_ok, mono_ok, coer_ok, worst, ratio_min, lip_max, margin_min


def _random_admissible(spaces, rng):
    """Random velocity dof vector satisfying the strong constraints."""
    x = np.zeros(spaces.n_sys)
    x[:spaces.n_u] = rng.standard_normal(spaces.n_u)
    x = spaces.expand_vector(spaces.reduce_vector(x))
    return Field(spaces.velocity, x[:spaces.n_u])


def trace_constant(spaces):
    """Largest ratio of bed-trace L2 norm to H1 norm over the velocity
    space: the square root of the top eigenvalue of the pencil
    (M_tr, M + K), found by Lanczos (ARPACK) on its x-component block
    (the Gram matrices are node matrices times I_2) with that block's H1
    LU as the inverse, about 30 solves on it, and cached per mesh.  The
    fixed start vector keeps reruns byte-identical.  A mesh without bed
    edges gives 0.0."""
    def build():
        M_tr = basal_trace_mass(spaces)[0::2, 0::2]
        if M_tr.count_nonzero() == 0:
            return 0.0      # ARPACK refuses the zero start vector it would make
        mass, stiffness = gram_matrices(spaces.velocity)
        H1 = (mass[0::2, 0::2] + stiffness[0::2, 0::2]).tocsc()
        lu = factorize(H1)
        n = spaces.n_vnodes
        lam = spla.eigsh(M_tr, k=1, M=H1,
                         Minv=spla.LinearOperator((n, n), matvec=lu.solve,
                                                  dtype=float),
                         which="LA", tol=0, v0=np.ones(n),
                         return_eigenvectors=False)[0]
        return float(np.sqrt(max(lam, 0.0)))
    return _cached(spaces, "trace_constant", build)


def discrete_suite(rheology, friction, params, solver_config=None, seed=0):
    """Assembled-operator bounds on one forward solve.

    Checks the energy bound mu0 |v|_V2^2 <= |f . int v| of the solution
    (:func:`~pglacier.forward.energy_bound`), the Hoelder bound of the
    viscous volume term on triangle-innermost point arrays against
    random test fields, coercivity of the dual operator on solved dual
    states for random observations, the zero-data dual state and the
    measured bed-trace constant.  All dual solves share one LU of the
    dual operator.  Raises SolverError when the forward solve does not
    converge: no bound is checked on an unconverged state.
    """
    spaces = rheology.space.parent
    rng = np.random.default_rng(seed)
    results = []

    solution = solve_forward(rheology, friction, params, solver_config)
    rep = solution.report
    if not rep.converged:
        raise SolverError("forward solve did not converge: residual %g after "
                          "%d iterations" % (rep.residual_history[-1],
                                             rep.iterations))
    results.append(CheckResult(
        "forward Newton convergence", rep.converged,
        "%d iterations, residual %.3g" % (rep.iterations,
                                          rep.residual_history[-1])))
    results.append(CheckResult(
        "energy bound mu0 |v|_V2^2 <= |f . int v|",
        bool(rep.final_energy <= rep.energy_bound * (1.0 + ENERGY_RTOL)),
        "|v|_V2 = %.15g, bound = %.15g" % (rep.final_energy, rep.energy_bound)))

    # Hoelder bound of the volume term with exponent r = 2/(2-p) on B;
    # at p = 2, r is infinite and the norm is the largest |B| at the
    # quadrature points, where the integrals are summed.  B and S(Dv) at
    # those points, triangle-innermost with axes (q, i, j, t), are shared
    # by the five probes of (B S(Dv), grad phi).
    v = solution.velocity
    Bq = point_scalar_values(rheology)
    if params.p < 2.0:
        coeff_norm = norm(rheology, "Lr_omega", r=2.0 / (2.0 - params.p))
    else:
        coeff_norm = float(np.abs(Bq).max())
    Dv = _strain(point_velocity_gradients(v))
    Dv_l2 = float(np.sqrt(_omega_quad_integral(spaces, (Dv ** 2).sum(axis=(1, 2)))))
    # this module's s_omega, not assembly's wrapper: bench/run.py's speed
    # clock probes from a hook at verify.s_omega
    S = np.moveaxis(s_omega(np.moveaxis(Dv, 3, 1), params), 1, 3)
    hoelder_ok = True
    worst = 0.0
    for _ in range(5):
        phi = _random_admissible(spaces, rng)
        lhs = abs(_omega_quad_integral(spaces, Bq * (
            S * point_velocity_gradients(phi)).sum(axis=(1, 2))))
        rhs = coeff_norm * Dv_l2 ** (params.p - 1.0) * norm(phi, "V2_seminorm")
        hoelder_ok &= bool(lhs <= rhs * (1.0 + 1e-10))
        worst = max(worst, lhs / rhs)
    results.append(CheckResult(
        "volume-term Hoelder bound", hoelder_ok, "max ratio %.15g" % worst))

    # Dual-operator coercivity on computed dual states.
    observed = spaces.mesh.observed_edges
    nq = spaces.quadrature.edge_points.size
    A_hat = assemble_adjoint_operator(v, rheology, friction, params).reduced()
    # one LU for every dual solve
    lu = factorize(A_hat, "NATURAL")
    coer_ok = True
    margin = np.inf
    for _ in range(DUAL_OBSERVATIONS):
        obs = Observation(rng.standard_normal((observed.size, nq, 2)))
        lam = solve_adjoint(v, obs, lu)
        # lambda satisfies the constraints and R is orthogonal, so its
        # reduced vector gives lambda . K lambda
        x_hat = spaces.reduce_vector(
            np.concatenate([lam.values, np.zeros(spaces.n_sys - spaces.n_u)]))
        energy = float(x_hat @ (A_hat @ x_hat))
        v2 = norm(lam, "V2_seminorm")
        floor = params.mu0 * v2 ** 2
        coer_ok &= bool(energy >= floor * (1.0 - 1e-10))
        if floor > 0.0:
            margin = min(margin, energy / floor)
    results.append(CheckResult(
        "dual coercivity B(l;l) >= mu0 |l|_V2^2", coer_ok,
        "min energy/floor = %.15g" % margin))

    exact = Observation(velocity_trace(v, observed))
    lam0 = solve_adjoint(v, exact, lu)
    del lu                                # before the trace constant's LU
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
