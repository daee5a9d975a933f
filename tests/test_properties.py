"""Property tests: the pointwise kernels stay finite, and the mesh,
observation and config parsers fail only with their documented error
types."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pglacier.config import ConfigError, SCHEMA, parse_config_text
from pglacier.fieldio import FieldIOError, load_observation
from pglacier.mesh import MeshError, load_mesh
from pglacier.tensor_ops import (PhysicsParams, s_gamma, s_gamma_prime_apply,
                                 s_omega, s_omega_prime_apply)

finite = st.floats(allow_nan=False, allow_infinity=False)
exponent = st.floats(min_value=1.0, max_value=2.0, exclude_min=True)


@st.composite
def physics(draw, delta):
    p = draw(exponent)
    s = draw(st.floats(min_value=1.0, max_value=p, exclude_min=True))
    return PhysicsParams(p=p, s=s, delta=draw(delta))


def arrays(elements, shape):
    size = int(np.prod(shape))
    return st.lists(elements, min_size=size, max_size=size).map(
        lambda xs: np.array(xs, dtype=np.float64).reshape(shape))


@settings(max_examples=300, deadline=None)
@given(physics(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
       arrays(finite, (2, 2)), arrays(finite, (2,)))
def test_kernels_are_finite_for_finite_input(params, P, v):
    assert np.all(np.isfinite(s_omega(P, params)))
    assert np.all(np.isfinite(s_gamma(v, params)))


# The derivative kernels are bounded by 2 delta^(p-2) |W| at every P, so
# their exact value is representable whenever that bound is; W and delta
# are drawn so that it is, P from all finite floats.
bounded = st.floats(min_value=-1e200, max_value=1e200)
prime_delta = st.floats(min_value=1e-50, max_value=1e50)


@settings(max_examples=300, deadline=None)
@given(physics(prime_delta), arrays(finite, (2, 2)), arrays(bounded, (2, 2)),
       arrays(finite, (2,)), arrays(bounded, (2,)))
def test_derivative_kernels_are_finite_for_finite_input(params, P, W, v, w):
    assert np.all(np.isfinite(s_omega_prime_apply(P, W, params)))
    assert np.all(np.isfinite(s_gamma_prime_apply(v, w, params)))


def test_derivative_kernel_matches_closed_form_at_large_strain():
    # |P| = 1e200 overflows |P|^2; the derivative is still
    # (p - 1) |P|^(p-2) W for W parallel to P (up to delta)
    params = PhysicsParams(p=1.5, delta=0.1)
    P = np.diag([1e200, 0.0])
    W = np.diag([1.0, 0.0])
    expected = 0.5 * 1e200 ** -0.5
    out = s_omega_prime_apply(P, W, params)
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)
    v = np.array([0.0, -1e200])
    out_v = s_gamma_prime_apply(v, np.array([0.0, 1.0]), params)
    assert out_v[1] == pytest.approx(expected, rel=1e-12)


# -- parsers ------------------------------------------------------------

numbers = st.one_of(st.integers(-3, 12).map(str),
                    st.sampled_from(["-1", "0.5", "1e9", "99999999999", "nan",
                                     "inf", "-0", "x", "1.5e-3", "10"]))
mesh_line = st.one_of(
    st.sampled_from(["pgmesh 1", "vertices", "triangles", "boundary",
                     "dirichlet", "basal", "atmosphere", "observed", "#", ""]),
    st.tuples(st.sampled_from(["vertices", "triangles", "boundary"]),
              numbers).map(" ".join),
    st.lists(numbers, min_size=1, max_size=4).map(" ".join),
    st.tuples(numbers, numbers, st.sampled_from(
        ["dirichlet", "basal", "atmosphere", "atmosphere observed",
         "basal observed", "wall"])).map(" ".join),
    st.text(max_size=12))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.booleans(), st.lists(mesh_line, max_size=14))
def test_load_mesh_raises_only_mesh_errors(tmp_path, header, lines):
    path = tmp_path / "mesh.pgmesh"
    path.write_text("\n".join((["pgmesh 1"] if header else []) + lines) + "\n",
                    encoding="utf-8")
    try:
        load_mesh(path)
    except MeshError:
        pass


def test_load_mesh_rejects_bytes_that_are_not_text(tmp_path):
    path = tmp_path / "mesh.pgmesh"
    path.write_bytes(b"pgmesh 1\nvertices \xff\xfe\n")
    with pytest.raises(MeshError):
        load_mesh(path)


def header_line(key, value):
    return st.one_of(st.none(), value.map(lambda v: "# %s = %s" % (key, v)))


observation_header = st.tuples(
    header_line("mode", st.sampled_from(["full_vector", "tangential", "bogus"])),
    header_line("edges", numbers), header_line("points", numbers),
    header_line("noise_sigma", numbers)).map(
        lambda lines: [line for line in lines if line is not None])
observation_line = st.one_of(
    st.sampled_from(["edge,point,vx,vy", "edge,point,vt", "#", ""]),
    st.lists(st.one_of(st.integers(0, 2).map(str), numbers),
             min_size=1, max_size=5).map(",".join),
    st.text(max_size=12))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(observation_header, st.lists(observation_line, max_size=10))
def test_load_observation_raises_only_field_io_errors(tmp_path, header, lines):
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(header + lines) + "\n", encoding="utf-8")
    try:
        load_observation(path)
    except FieldIOError:
        pass


values = st.one_of(numbers, st.sampled_from(["none", "None", "slab", "file",
                                             "direct", "H1_smoothed", "twin"]),
                   st.text(max_size=8))
config_line = st.one_of(
    st.tuples(st.sampled_from(sorted(SCHEMA)), values).map(
        lambda kv: "%s = %s" % kv),
    st.text(max_size=20))


@settings(max_examples=400, deadline=None)
@given(st.lists(config_line, max_size=8), st.booleans())
def test_parse_config_text_raises_only_config_errors(lines, strict):
    try:
        parse_config_text("\n".join(lines), strict=strict)
    except ConfigError:
        pass
