"""Pointwise power-law viscosity kernels and their derivatives.

The matrix kernel maps a 2x2 strain matrix P to
(|P|^2 + delta^2)^((p - 2) / 2) P with the Frobenius norm; the vector
kernel is the analogue on sliding velocities with exponent s.  Both are
smooth for delta > 0; at delta = 0 the value is still defined (zero at
the origin for p < 2) but the derivative kernels are not and reject it.

The public kernels broadcast over leading axes and flatten their input
to rows of 4 or 2 components.  Each kernel is two steps.  An
exponent-free pass divides the input by its scale c, the larger of its
largest entry and delta, so no square overflows, and takes the logs of
c and of the scaled squared magnitude.  An exponent step then forms the
power with one exp of a combination of those logs, and the derivative
factors of the derivative kernels and the Newton Jacobian with one more
(``_prime_factors``).  The kernels stay finite for every finite input,
and the derivative kernels wherever their value, bounded by
2 delta^(p-2) |W|, is.  The pass depends on the input and delta only,
so an exponent sweep (``verify.pointwise_suite``) runs it once, and an
assembly runs it once on the strain and once on the bed trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysicsParams:
    """Physical and inversion parameters.

    p, s : power-law exponents, 1 < p <= 2 and 1 < s <= p.  The p = 2
        endpoint is the linear limit.
    delta : regularization shift, >= 0 at type level; derivative kernels
        and solvers demand > 0.
    mu0 : linear viscosity floor, > 0.
    body_force : gravity load vector (density times gravity).
    reg_rheology, reg_friction : Tikhonov weights on the gradient
        seminorms of the two coefficients, >= 0.
    rheology_min, rheology_max, friction_max : bounds of the admissible
        box, 0 < rheology_min < rheology_max and friction_max > 0.
    Every number must be finite.
    """

    p: float = 4.0 / 3.0
    s: float = None
    delta: float = 0.1
    mu0: float = 0.01
    body_force: tuple = (0.0, -1.0)
    reg_rheology: float = 1e-6
    reg_friction: float = 1e-6
    rheology_min: float = 0.1
    rheology_max: float = 5.0
    friction_max: float = 10.0

    def __post_init__(self):
        if self.s is None:
            object.__setattr__(self, "s", self.p)
        if not (1.0 < self.p <= 2.0):
            raise ValueError("exponent p must lie in (1, 2], got %r" % (self.p,))
        if not (1.0 < self.s <= self.p):
            raise ValueError("exponent s must lie in (1, p], got %r" % (self.s,))
        if len(self.body_force) != 2:
            raise ValueError("body_force must be a 2-vector")
        object.__setattr__(self, "body_force",
                           tuple(float(c) for c in self.body_force))
        for name in ("delta", "mu0", "body_force", "reg_rheology", "reg_friction",
                     "rheology_min", "rheology_max", "friction_max"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0, got %r" % (self.delta,))
        if self.mu0 <= 0.0:
            raise ValueError("mu0 must be > 0, got %r" % (self.mu0,))
        if self.reg_rheology < 0.0 or self.reg_friction < 0.0:
            raise ValueError("regularization weights must be >= 0")
        if not (0.0 < self.rheology_min < self.rheology_max):
            raise ValueError("need 0 < rheology_min < rheology_max")
        if self.friction_max <= 0.0:
            raise ValueError("friction_max must be > 0")

    @property
    def box(self):
        """The admissible box as ``{coefficient name: (lo, hi)}``."""
        return {"rheology": (self.rheology_min, self.rheology_max),
                "friction": (0.0, self.friction_max)}


def _frob2(P):
    return (np.asarray(P) ** 2).sum(axis=(-2, -1))


# Largest argument of the kernels' exp: c <= max float, so
# (e-1) log c + (e-2)/2 log rho2 <= log c never exceeds it in exact
# arithmetic, and the cap keeps a rounded sum near the top of the range
# from turning into inf.
_LOG_MAX = np.log(np.finfo(np.float64).max)


def _at(axis, i):
    """Index of entry ``i`` (None: a new length-1 axis) along the
    component axis ``axis``, counted from the end (negative), of an
    array of any rank.  Plain indexing: ``np.moveaxis`` and
    ``np.expand_dims`` take microseconds a call, which the verify sweep
    makes thousands of."""
    return (Ellipsis, i) + (slice(None),) * (-1 - axis)


def _dot(a, b, axis=-1):
    """sum_i a_i b_i over the component axis ``axis`` (negative), added
    in index order, so the bits do not depend on the memory layout
    (einsum adds a contiguous axis pairwise and a strided one in
    order)."""
    terms = a * b
    out = terms[_at(axis, 0)] + terms[_at(axis, 1)]
    for i in range(2, terms.shape[axis]):
        out += terms[_at(axis, i)]
    return out


def _shifted_pass(x, delta, axis=-1):
    """The exponent-free pass of the kernels over the component axis
    ``axis`` (negative) of x (at least 2-D), as
    ``(unit, rho2, log_c, log_rho2)``, the last three without that
    axis: the scale
    c = max(max_i |x_i|, delta), the scaled input unit = x / c and the
    scaled squared magnitude rho2 = |unit|^2 + (delta / c)^2, so that
    |x|^2 + delta^2 = c^2 rho2.  Computed on x / c, so no square
    overflows; rho2 lies in [1, n + 1].  At x = 0 with delta = 0, c and
    rho2 are set to 1 (unit stays 0), so both logs are finite.  The pass
    depends on x and delta only: one pass serves every exponent.
    """
    c = np.abs(x).max(axis=axis)
    if delta == 0.0:
        c[c == 0.0] = 1.0
    else:
        np.maximum(c, delta, out=c)
    unit = x / c[_at(axis, None)]
    rho2 = _dot(unit, unit, axis)
    if delta == 0.0:
        # rho2 >= 1 in floats too (the largest |unit_i| is exactly 1),
        # so this moves only x = 0
        np.maximum(rho2, 1.0, out=rho2)
    else:
        rho2 += (delta / c) ** 2
    return unit, rho2, np.log(c), np.log(rho2)


def _power_step(magnitude, exponent, out=None, axis=-1):
    """The kernel from the :func:`_shifted_pass` ``magnitude`` of x over
    its component axis ``axis`` (negative): unit c^(e-1) rho^(e-2), as
    one exp in place of two powers, written to ``out`` when given."""
    unit, _, log_c, log_rho2 = magnitude
    arg = (exponent - 1.0) * log_c
    arg += (exponent - 2.0) / 2.0 * log_rho2
    factor = np.exp(np.minimum(arg, _LOG_MAX, out=arg), out=arg)
    return np.multiply(unit, factor[_at(axis, None)], out=out)


def _prime_factors(magnitude, exponent):
    """Factors (a, b) of the derivative kernel at x from its
    :func:`_shifted_pass` ``magnitude``, S'(x) w = a (unit . w) unit + b w:
    b = (c rho)^(e-2) and a = (e-2) b / rho2, so |a| <= b <= delta^(e-2)."""
    _, rho2, log_c, log_rho2 = magnitude
    arg = (exponent - 2.0) * log_c
    arg += (exponent - 2.0) / 2.0 * log_rho2
    b = np.exp(arg, out=arg)
    return (exponent - 2.0) * b / rho2, b


def _prime_step(magnitude, w, exponent):
    """S'(x) w from the :func:`_shifted_pass` ``magnitude`` of x, summed
    in place: a third sample-sized temporary tripled an isolated call's time."""
    (a, b), unit = _prime_factors(magnitude, exponent), magnitude[0]
    out = w * b[..., None]
    out += unit * (a * _dot(unit, w))[..., None]
    return out


def _kernel(x, delta, exponent, size):
    """(|x|^2 + delta^2)^((e-2)/2) x over x flattened to rows of ``size``
    components: finite for every finite input, and 0 at x = 0 when
    delta = 0."""
    x = np.asarray(x, dtype=np.float64)
    magnitude = _shifted_pass(x.reshape(-1, size), delta)
    return _power_step(magnitude, exponent, out=magnitude[0]).reshape(x.shape)


def _kernel_prime(x, w, delta, exponent, size):
    """Derivative of :func:`_kernel` at x applied to w, the two broadcast
    against each other before the flattening; needs delta > 0."""
    if delta <= 0.0:
        raise ValueError("derivative kernel needs delta > 0, got %r" % (delta,))
    x, w = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                               np.asarray(w, dtype=np.float64))
    out = _prime_step(_shifted_pass(x.reshape(-1, size), delta),
                      w.reshape(-1, size), exponent)
    return out.reshape(x.shape)


def s_omega(P, params):
    """Matrix kernel (|P|^2 + delta^2)^((p-2)/2) P, shape (..., 2, 2).

    delta = 0 is allowed; the p < 2 singularity at P = 0 is closed with
    the exact limit value 0.  Finite for every finite P.
    """
    return _kernel(P, params.delta, params.p, 4)


def s_gamma(v, params):
    """Vector kernel (|v|^2 + delta^2)^((s-2)/2) v, shape (..., 2)."""
    return _kernel(v, params.delta, params.s, 2)


def s_omega_prime_apply(P, W, params):
    """Derivative of the matrix kernel at P applied to W.

    Equals (p-2)(|P|^2 + delta^2)^((p-4)/2) (P : W) P
    + (|P|^2 + delta^2)^((p-2)/2) W.  Requires delta > 0: the kernel is
    not differentiable at the origin otherwise.
    """
    return _kernel_prime(P, W, params.delta, params.p, 4)


def s_gamma_prime_apply(v, w, params):
    """Derivative of the vector kernel at v applied to w; delta > 0."""
    return _kernel_prime(v, w, params.delta, params.s, 2)


def monotonicity_witness(P, Q, params):
    """Monotonicity data for a pair of strain matrices.

    Returns a dict with the pairing
    ``lhs = (S(P) - S(Q)) : (P - Q)``, the reference quantity
    ``bound = (delta + |P| + |Q|)^(p-2) |P - Q|^2`` and their ratio
    (nan where the bound vanishes).  All entries broadcast.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    diff = P - Q
    lhs = ((s_omega(P, params) - s_omega(Q, params)) * diff).sum(axis=(-2, -1))
    base = params.delta + np.sqrt(_frob2(P)) + np.sqrt(_frob2(Q))
    diff2 = _frob2(diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = base ** (params.p - 2.0) * diff2
        ratio = np.where(bound > 0.0, lhs / np.where(bound > 0.0, bound, 1.0), np.nan)
    return {"lhs": lhs, "bound": bound, "ratio": ratio}
