"""Surface-velocity observations, misfit and the dual (adjoint) solve.

Observations sample the velocity trace at the edge quadrature points of
the observed free-surface edges.  The misfit is half the squared L2
distance of the projected trace to the data; projection is either the
identity (``full_vector``) or the tangential component per edge
(``tangential``), and in tangential mode only the tangential scalar is
stored.

The dual problem reuses the forward Jacobian: the same symmetric
operator is solved against the negated misfit derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import assemble_adjoint_operator, trace_dual
from .forward import solve_system
from .spaces import Field, SpaceKind, velocity_trace

PROJECTION_MODES = ("full_vector", "tangential")


@dataclass
class Observation:
    """Surface-velocity data on the observed edges.

    ``samples`` has shape (n_observed_edges, n_edge_qpoints, 2) in
    full_vector mode and (n_observed_edges, n_edge_qpoints) in
    tangential mode, aligned with the mesh's observed-edge order.
    ``noise_sigma`` records the standard deviation used when the data
    was synthesized (0 for exact data).
    """

    samples: np.ndarray
    mode: str = "full_vector"
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.mode not in PROJECTION_MODES:
            raise ValueError("unknown projection mode %r" % self.mode)
        self.samples = np.asarray(self.samples, dtype=np.float64)
        want = 3 if self.mode == "full_vector" else 2
        if self.samples.ndim != want:
            raise ValueError("%s observations need %d-dimensional samples, got %d"
                             % (self.mode, want, self.samples.ndim))


def _check_alignment(spaces, obs):
    observed = spaces.mesh.observed_edges
    nq = spaces.quadrature.edge_points.size
    if obs.samples.shape[0] != observed.size or obs.samples.shape[1] != nq:
        raise ValueError(
            "observation/mesh mismatch: data has %d edges x %d points, mesh "
            "expects %d observed edges x %d quadrature points"
            % (obs.samples.shape[0], obs.samples.shape[1], observed.size, nq))
    return observed


def _projected_trace(spaces, velocity, obs, observed):
    trace = velocity_trace(velocity, observed)              # (k, m, 2)
    if obs.mode == "tangential":
        t = spaces.bedge_tangents[observed]                 # (k, 2)
        return np.einsum("kmc,kc->km", trace, t)
    return trace


def misfit(velocity, obs):
    """Half the squared L2(observed surface) distance between the
    projected velocity trace and the data."""
    spaces = velocity.space.parent
    observed = _check_alignment(spaces, obs)
    diff = _projected_trace(spaces, velocity, obs, observed) - obs.samples
    w = spaces.quadrature.edge_weights
    lengths = spaces.bedge_lengths[observed]
    if obs.mode == "tangential":
        return 0.5 * float(np.einsum("m,k,km->", w, lengths, diff ** 2))
    return 0.5 * float(np.einsum("m,k,km->", w, lengths, (diff ** 2).sum(axis=2)))


def misfit_derivative_rhs(velocity, obs):
    """Dual vector of the misfit derivative with respect to velocity.

    Velocity-test entries integrate (P trace v - data) . P trace phi
    over the observed edges; pressure-test entries are zero.
    Constrained components are projected out.
    """
    spaces = velocity.space.parent
    observed = _check_alignment(spaces, obs)
    diff = _projected_trace(spaces, velocity, obs, observed) - obs.samples
    if obs.mode == "tangential":
        diff = diff[:, :, None] * spaces.bedge_tangents[observed][:, None, :]
    out = np.zeros(spaces.n_sys)
    out[:spaces.n_u] = trace_dual(spaces, observed, diff)
    return spaces.project_dual(out)


def solve_adjoint(velocity, rheology, friction, obs, params):
    """Solve the dual problem at the converged state.

    The dual operator (assembled from the derivative-kernel form, equal
    to the forward Jacobian) is solved against the negated misfit
    derivative; the returned Field is the velocity part of the dual
    state and satisfies the homogeneous constraints.
    """
    system = assemble_adjoint_operator(velocity, rheology, friction, params)
    rhs = -misfit_derivative_rhs(velocity, obs)
    x = solve_system(system, rhs)
    spaces = velocity.space.parent
    return Field(spaces.velocity, x[:spaces.n_u])
