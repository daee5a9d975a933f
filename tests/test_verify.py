"""Inequality verification suites and the measured trace constant."""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import pglacier as pg
from conftest import jittered_file_mesh, reference_pointwise_suite
from pglacier import verify
from pglacier.assembly import basal_trace_mass, gram_matrices
from pglacier.tensor_ops import s_omega
from pglacier.verify import (CheckResult, discrete_suite, pointwise_suite,
                             trace_constant)


def detail_float(result, prefix):
    assert result.detail.startswith(prefix), result.detail
    return float(result.detail[len(prefix):].split()[0])


def test_pointwise_suite_passes():
    results = pointwise_suite(samples=20000, seed=0)
    assert [r.name for r in results] == [
        "kernel norm bound |S(P)| <= |P|^(p-1)",
        "strict monotonicity (S(P)-S(Q)):(P-Q) > 0",
        "Lipschitz ratio (fitted constant < 10)",
        "derivative coercivity >= (p-1) scale",
    ]
    assert all(r.passed for r in results)


def test_pointwise_norm_ratio_sharp_at_linear_exponent():
    # p = 2 turns the norm bound into equality: max ratio exactly 1
    results = pointwise_suite(samples=5000, p_values=[2.0], seed=1)
    ratio = detail_float(results[0], "max ratio ")
    assert abs(ratio - 1.0) <= 1e-12


def test_pointwise_monotonicity_ratio_is_one_for_linear_kernel():
    results = pointwise_suite(samples=5000, p_values=[2.0],
                              delta_values=[0.0], seed=2)
    ratio = detail_float(results[1], "min scaled ratio ")
    assert abs(ratio - 1.0) <= 1e-10


def test_pointwise_suite_is_seed_deterministic():
    a = pointwise_suite(samples=3000, seed=5)
    b = pointwise_suite(samples=3000, seed=5)
    assert [r.detail for r in a] == [r.detail for r in b]


@pytest.mark.parametrize("kwargs", [
    dict(samples=20000, seed=0),
    dict(samples=5000, p_values=[2.0], delta_values=[0.0], seed=2),
    dict(samples=1, seed=4),
    dict(samples=5000, p_values=[1.05, 1.5], delta_values=[0.0, 1e-8, 10.0],
         prime_delta_values=[1e-8, 5.0], seed=6),
    dict(samples=2 * verify._SAMPLE_BLOCK + 7, seed=11),
], ids=["defaults", "linear-undamped", "single-sample", "off-default",
        "short-last-block"])
def test_pointwise_suite_matches_reference(kwargs):
    # one sweep over both kernel laws gives the check-by-check results
    assert [r.line() for r in pointwise_suite(**kwargs)] \
        == [r.line() for r in reference_pointwise_suite(**kwargs)]


@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_pointwise_rejects_nonpositive_prime_delta(bad):
    with pytest.raises(ValueError, match="remove %r from the delta sweep" % bad):
        pointwise_suite(samples=100, prime_delta_values=[0.1, bad])


@pytest.mark.parametrize("samples", [0, -3])
def test_pointwise_rejects_empty_sample_count(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        pointwise_suite(samples=samples)


@pytest.mark.parametrize("name", ["p_values", "delta_values",
                                  "prime_delta_values"])
def test_pointwise_rejects_empty_value_list(name):
    # an empty sweep would report PASS with an infinite ratio or margin
    with pytest.raises(ValueError, match="%s is empty" % name):
        pointwise_suite(samples=100, **{name: []})


# two full blocks of the pointwise sweep and a short third one
SEVERAL_BLOCKS = 2 * verify._SAMPLE_BLOCK + 7


def test_pointwise_suite_does_not_depend_on_worker_count(monkeypatch):
    # the blocks fold in block order whichever thread checked them;
    # worker j checks blocks j, j + workers, ..., worker 0 on the
    # calling thread, so one worker starts no thread
    check_block = verify._check_block
    lines, asked = [], []
    for workers in (1, 2, 3):
        threads = {}

        def recording(*args):
            threads[args[-1]] = threading.get_ident()
            return check_block(*args)

        def count(blocks, workers=workers):
            asked.append(blocks)
            return workers

        monkeypatch.setattr(verify, "_check_block", recording)
        monkeypatch.setattr(verify, "_worker_count", count)
        lines.append([r.line() for r in pointwise_suite(samples=SEVERAL_BLOCKS,
                                                        seed=7)])
        assert sorted(threads) == [0, 1, 2]
        assert [threads[k] == threading.get_ident() for k in range(3)] \
            == [k % workers == 0 for k in range(3)]
    assert asked == [3, 3, 3]
    assert lines[0] == lines[1] == lines[2]


def test_pointwise_block_draws_do_not_depend_on_sample_count(monkeypatch):
    # block k draws from default_rng([seed, k]), so adding samples adds
    # blocks and leaves the earlier ones as they were; block 0 draws what
    # default_rng(seed) gives
    block = verify._SAMPLE_BLOCK
    sample_pairs = verify._sample_pairs

    def draws(samples):
        """{(seed, k): block k's draws} of one sweep."""
        seen = {}

        def recording(rng, n):
            pairs = sample_pairs(rng, n)
            seen[tuple(rng.bit_generator.seed_seq.entropy)] = pairs
            return pairs

        monkeypatch.setattr(verify, "_sample_pairs", recording)
        pointwise_suite(samples=samples, p_values=[2.0], delta_values=[0.0],
                        prime_delta_values=[1.0], seed=9)
        return seen

    one, four = draws(block), draws(3 * block + 7)
    assert sorted(one) == [(9, 0)]
    assert sorted(four) == [(9, 0), (9, 1), (9, 2), (9, 3)]
    assert [len(four[9, k][0]) for k in range(4)] == [block] * 3 + [7]
    single = sample_pairs(np.random.default_rng(9), block)
    for a, b, c in zip(one[9, 0], four[9, 0], single):
        assert np.array_equal(a, b) and np.array_equal(a, c)


def test_pointwise_suite_memory_with_two_workers(monkeypatch):
    # each worker holds one block's samples and temporaries; drawing all
    # 1e5 samples up front peaked at 17.6 MB
    monkeypatch.setattr(verify, "_worker_count", lambda blocks: 2)
    tracemalloc.start()
    try:
        pointwise_suite(samples=100000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17.6e6


def test_discrete_suite_looks_up_the_matrix_kernel_at_call_time(
        monkeypatch, slab_spaces, tilted_params, base_coeffs):
    # the benchmark's speed clock probes from a hook at verify.s_omega;
    # the discrete suite's Hoelder check is its one caller
    calls = []

    def counting(P, params):
        calls.append(P.shape)
        return s_omega(P, params)

    monkeypatch.setattr(verify, "s_omega", counting)
    discrete_suite(*base_coeffs, tilted_params, seed=0)
    assert len(calls) == 1


def test_discrete_suite_passes(slab_spaces, tilted_params, base_coeffs):
    results = discrete_suite(*base_coeffs, tilted_params, seed=0)
    assert [r.name for r in results] == [
        "forward Newton convergence",
        "energy bound mu0 |v|_V2^2 <= |f . int v|",
        "volume-term Hoelder bound",
        "dual coercivity B(l;l) >= mu0 |l|_V2^2",
        "zero-misfit dual state vanishes",
        "bed-trace constant (measured)",
    ]
    for r in results:
        assert r.passed, r.line()


def test_discrete_suite_passes_at_p_2(slab_spaces, base_coeffs):
    # the Hoelder exponent 2/(2-p) on B used to divide by zero here
    params = pg.PhysicsParams(p=2.0, body_force=(0.5, -1.0))
    results = discrete_suite(*base_coeffs, params, seed=0)
    hoelder = next(r for r in results if r.name == "volume-term Hoelder bound")
    assert 0.0 < detail_float(hoelder, "max ratio ") <= 1.0
    for r in results:
        assert r.passed, r.line()


def test_discrete_suite_dual_coercivity_has_margin(slab_spaces, tilted_params,
                                                   base_coeffs):
    results = discrete_suite(*base_coeffs, tilted_params, seed=3)
    coer = next(r for r in results if r.name.startswith("dual coercivity"))
    # solved dual states sit far above the viscosity floor on this mesh
    assert detail_float(coer, "min energy/floor = ") > 10.0


def test_check_result_line_format():
    ok = CheckResult("short name", True, "detail text")
    bad = CheckResult("short name", False, "why")
    assert ok.line().startswith("short name")
    assert "PASS" in ok.line() and "detail text" in ok.line()
    assert "FAIL" in bad.line()
    # fixed-width name column keeps the table aligned
    assert ok.line().index("PASS") == 45


def test_trace_constant_is_deterministic_and_sane(slab_spaces):
    c1 = trace_constant(slab_spaces)
    # measured again on a fresh bundle, past the per-mesh cache
    c2 = trace_constant(pg.build_spaces(slab_spaces.mesh))
    assert c1 == c2
    assert 1.0 < c1 < 2.0


def test_discrete_suite_factors_h1_once_per_mesh(monkeypatch, slab_spaces,
                                                 tilted_params):
    spaces = pg.build_spaces(slab_spaces.mesh)
    coeffs = (pg.constant_field(spaces.coeff_omega, 1.0),
              pg.constant_field(spaces.coeff_basal, 0.5))
    h1 = []
    factorize = verify.factorize

    def counted(matrix, *args):
        if matrix.shape == (spaces.n_vnodes, spaces.n_vnodes):
            h1.append(matrix)
        return factorize(matrix, *args)

    monkeypatch.setattr(verify, "factorize", counted)
    lines = [[r.line() for r in discrete_suite(*coeffs, tilted_params, seed=s)
              if r.name.startswith("bed-trace")] for s in (0, 1)]
    assert len(h1) == 1
    assert lines[0] == lines[1]
    assert "C_trace = " in lines[0][0]


def test_trace_constant_stable_under_refinement(slab_spaces, fine_spaces):
    coarse = trace_constant(slab_spaces)
    fine = trace_constant(fine_spaces)
    # discrete approximations of one continuum constant
    assert abs(coarse - fine) <= 0.05 * fine


def dense_trace_constant(spaces):
    """Square root of the top eigenvalue of the pencil (M_tr, M + K) by a
    dense generalized eigensolve."""
    mass, stiffness = gram_matrices(spaces.velocity)
    H1 = (mass + stiffness).toarray()
    n = spaces.n_u
    lam = sla.eigh(basal_trace_mass(spaces).toarray(), H1, eigvals_only=True,
                   subset_by_index=[n - 1, n - 1])[0]
    return float(np.sqrt(lam))


@pytest.mark.parametrize("nx", [2, 4, None],
                         ids=["flat-2x2", "flat-4x2", "jittered-8x4"])
def test_trace_constant_matches_dense_eigensolve(nx, tmp_path):
    spaces = pg.build_spaces(jittered_file_mesh(tmp_path) if nx is None
                             else pg.generate_slab_mesh(2.0, 1.0, nx, 2))
    want = dense_trace_constant(spaces)
    assert abs(trace_constant(spaces) - want) <= 1e-12 * want


def test_trace_constant_matches_dense_eigensolve_on_a_bedded_slab():
    # the Lanczos runs on one component; the dense solve on the pencil
    # of both
    spaces = pg.build_spaces(pg.generate_slab_mesh(
        2.0, 1.0, 16, 8, bed_profile=lambda x: 0.05 * np.sin(np.pi * x)))
    want = dense_trace_constant(spaces)
    assert abs(trace_constant(spaces) - want) <= 1e-12 * want


def test_trace_constant_solve_budget(monkeypatch, fine_spaces):
    # Lanczos takes 21 solves on the H1 LU here; a power iteration
    # converges to the same digits only after hundreds
    solves = []
    factorize = verify.factorize

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(1)
            return self.lu.solve(rhs)

    monkeypatch.setattr(verify, "factorize",
                        lambda *args: CountingLU(factorize(*args)))
    # a fresh bundle: the constant is cached per mesh
    c = trace_constant(pg.build_spaces(fine_spaces.mesh))
    assert 1.0 < c < 2.0
    assert 0 < len(solves) <= 60


def test_trace_constant_is_zero_without_bed_edges():
    # a valid mesh needs no BASAL edge; its trace constant is exactly 0
    mesh = pg.generate_slab_mesh(2.0, 1.0, 4, 2)
    tags = mesh.boundary_tags.copy()
    tags[tags == int(pg.BoundaryTag.BASAL)] = int(pg.BoundaryTag.DIRICHLET)
    spaces = pg.build_spaces(pg.Mesh(mesh.vertices, mesh.triangles,
                                     mesh.boundary_edges, tags, mesh.observed))
    assert trace_constant(spaces) == 0.0
