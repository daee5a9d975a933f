"""Surface-velocity observations, misfit and the dual (adjoint) solve.

Observations sample the velocity trace at the edge quadrature points of
the observed free-surface edges.  The misfit is half the squared L2
distance of the projected trace to the data; projection is either the
identity (``full_vector``) or the tangential component per edge
(``tangential``), and in tangential mode only the tangential scalar is
stored.

The dual operator is the forward Jacobian at the converged state (the
discrete dual operator is the Jacobian's transpose, and the Jacobian is
symmetric), and the dual problem solves it against the negated misfit
derivative.
Factoring and solving are separate steps: ``factor_adjoint`` makes the
sparse LU of the reduced operator, and ``solve_adjoint`` always takes
that LU, so one factorization serves every dual solve at a state and,
in the inversion, the Gauss-Newton Hessian products there and the
forward solves of the next line-search trials.  Those products apply
the misfit's second derivative as one sparse matrix, the observation
Gram matrix of ``observation_gram``, cached per mesh and mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import (_basal_quad_integral, _cached, _element_matrix, _pair_trace,
                       assemble_adjoint_operator, trace_dual)
from .forward import factorize
from .spaces import Field, velocity_trace

PROJECTION_MODES = ("full_vector", "tangential")


@dataclass
class Observation:
    """Surface-velocity data on the observed edges.

    ``samples`` has shape (observed edges, edge points, 2) in
    full_vector mode and (observed edges, edge points) in
    tangential mode, aligned with the mesh's observed-edge order, and
    every sample is finite.
    ``noise_sigma`` records the standard deviation used when the data
    was synthesized (0 for exact data), a finite float >= 0.
    """

    samples: np.ndarray
    mode: str = "full_vector"
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.mode not in PROJECTION_MODES:
            raise ValueError("unknown projection mode %r" % self.mode)
        self.noise_sigma = _checked_noise_sigma(self.noise_sigma)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        want = 3 if self.mode == "full_vector" else 2
        if self.samples.ndim != want:
            raise ValueError("%s observations need %d-dimensional samples, got %d"
                             % (self.mode, want, self.samples.ndim))
        if self.mode == "full_vector" and self.samples.shape[2] != 2:
            raise ValueError("full_vector samples need shape (edges, points, 2), "
                             "got %s" % (self.samples.shape,))
        bad = np.argwhere(~np.isfinite(self.samples))
        if bad.size:
            first = tuple(bad[0].tolist())
            raise ValueError("observation sample %s is %r, not finite"
                             % (first, float(self.samples[first])))


def _checked_noise_sigma(sigma):
    """``sigma`` as a float, or ValueError unless it is finite and >= 0:
    a nan sigma would turn the inversion's noise-level stop off, and a
    negative one would act as its absolute value."""
    sigma = float(sigma)
    if not (np.isfinite(sigma) and sigma >= 0.0):
        raise ValueError("noise_sigma must be a finite float >= 0, got %r" % sigma)
    return sigma


def _check_alignment(spaces, obs):
    observed = spaces.mesh.observed_edges
    nq = spaces.quadrature.edge_points.size
    if obs.samples.shape[0] != observed.size or obs.samples.shape[1] != nq:
        raise ValueError(
            "observation/mesh mismatch: data has %d edges x %d points, mesh "
            "expects %d observed edges x %d quadrature points"
            % (obs.samples.shape[0], obs.samples.shape[1], observed.size, nq))
    return observed


def _projected_trace(spaces, velocity, mode, observed):
    trace = velocity_trace(velocity, observed)              # (k, m, 2)
    if mode == "tangential":
        t = spaces.bedge_tangents[observed]                 # (k, 2)
        return np.einsum("kmc,kc->km", trace, t)
    return trace


def misfit(velocity, obs):
    """Half the squared L2(observed surface) distance between the
    projected velocity trace and the data."""
    spaces = velocity.space.parent
    observed = _check_alignment(spaces, obs)
    diff2 = (_projected_trace(spaces, velocity, obs.mode, observed)
             - obs.samples) ** 2
    if obs.mode == "full_vector":
        diff2 = diff2.sum(axis=2)
    return 0.5 * _basal_quad_integral(spaces, observed, diff2)


def misfit_derivative_rhs(velocity, obs):
    """Dual vector of the misfit derivative with respect to velocity.

    Velocity-test entries integrate (P trace v - data) . P trace phi
    over the observed edges; pressure-test entries are zero.
    Constrained components are projected out.
    """
    spaces = velocity.space.parent
    observed = _check_alignment(spaces, obs)
    diff = _projected_trace(spaces, velocity, obs.mode, observed) - obs.samples
    if obs.mode == "tangential":
        diff = diff[:, :, None] * spaces.bedge_tangents[observed][:, None, :]
    out = np.zeros(spaces.n_sys)
    out[:spaces.n_u] = trace_dual(spaces, observed, diff)
    return spaces.project_dual(out)


def observation_gram(spaces, mode):
    """Gram matrix Q^ of the projected velocity trace on the observed
    edges, in the reduced frame (n_sys x n_sys), cached per mesh and
    projection mode: for a reduced system vector w with zero constrained
    entries, ``Q^ @ w`` is the reduced misfit derivative of the velocity
    part of ``expand_vector(w)`` against zero data."""
    def build():
        observed = spaces.mesh.observed_edges
        tv = spaces.edge_trace_vals
        mass = _pair_trace(spaces, observed, tv[None], tv)        # (k, a, b)
        if mode == "tangential":
            t = spaces.bedge_tangents[observed]
            frame = t[:, :, None] * t[:, None, :]                 # (k, c, d)
        else:
            frame = np.broadcast_to(np.eye(2), (observed.size, 2, 2))
        blocks = np.einsum("kab,kcd->kacbd", mass, frame).reshape(-1, 6, 6)
        dofs = spaces.trace_dofs(observed)
        gram = _element_matrix(blocks, dofs, dofs, (spaces.n_u, spaces.n_u))
        reduction = spaces.velocity_reduction()
        return (reduction @ gram @ reduction.T).tocsr()
    return _cached(spaces, "observation_gram_" + mode, build)


def factor_adjoint(velocity, rheology, friction, params):
    """Sparse LU of the reduced dual operator at the converged state,
    which is the forward Jacobian there (``assemble_adjoint_operator``
    is ``assemble_jacobian``), in the reduced frame's own order."""
    system = assemble_adjoint_operator(velocity, rheology, friction, params)
    return factorize(system.reduced(), "NATURAL")


def solve_adjoint(velocity, obs, lu):
    """Solve the dual problem at the converged state.

    The dual operator is solved against the negated misfit derivative
    with ``lu`` from :func:`factor_adjoint` at the same state.  The
    returned Field is the velocity part of the dual state and satisfies
    the homogeneous constraints.
    """
    spaces = velocity.space.parent
    x = spaces.expand_vector(lu.solve(spaces.reduce_vector(
        -misfit_derivative_rhs(velocity, obs))))
    return Field(spaces.velocity, x[:spaces.n_u])
