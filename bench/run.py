#!/usr/bin/env python3
"""pglacier benchmark: forward, inversion and verification workloads.

Usage (from the repository root):

    python3 bench/run.py --workload forward-64x32 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --crosscheck

Each workload is a closed loop with one client: the next operation
starts when the previous one has finished.  The seed draws every input
(bed shape, coefficient fields, twin-experiment truth); the library only
receives the generated meshes and fields.  The workload's own job runs
at its full size.  The inversion and verify jobs also run as small
companions on workloads of another job, so every workload reports every
end-to-end metric.  Companion operations and repeated set-ups are
spread over the run, and all of them together fit the time budget
``--seconds``.  Every operation is checked for correctness.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
Their times are scaled to one host speed, which ``speed.SpeedClock``
measures with a reference probe as the run goes.
With ``--trace 1`` it carries the per-layer metrics of the workload's
own job: its first set-up and every other native operation are traced,
and the difference between traced and untraced operations is reported
as the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# One process, one BLAS thread: the solver's dense work is small, and a
# thread pool competing with SuperLU on two cores only adds noise.
# Settings already in the environment win; the run records them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH_DIR)
from speed import SpeedClock  # noqa: E402
from tracer import Tracer, timed  # noqa: E402

if os.path.isfile(os.path.join(SRC, "pglacier", "__init__.py")):
    sys.path.insert(0, SRC)
    import scipy  # noqa: E402
    import scipy.sparse.linalg as spla  # noqa: E402

    import pglacier as pg  # noqa: E402
    from pglacier import (adjoint, fieldio, forward, inversion,  # noqa: E402
                          spaces as spaces_mod, verify)
    from pglacier.assembly import (basal_trace_mass, velocity_mass,  # noqa: E402
                                   velocity_v2_stiffness)
else:
    pg = None

LENGTH, HEIGHT = 2.0, 1.0
COMPANION_SIZE = (4, 2)
TARGET_FRACTION = 0.1          # criterion 7: misfit at or below 10% of its start

# workload -> (job, nx, ny)
WORKLOADS = {
    "forward-64x32": ("forward", 64, 32),
    "invert-16x8": ("invert", 16, 8),
    "verify-32x16": ("verify", 32, 16),
}
JOBS = ("forward", "invert", "verify")
JOB_TAG = {"forward": 1, "invert": 2, "verify": 3, "bed": 4}

# Job settings at full size and as a companion.  The companion
# inversion stops after 25 steps: on the 4x2 slab the target falls near
# step 17, and the full 100 steps would cost more than the native ops.
FULL = {"max_iterations": 100, "samples": 100000}
COMPANION = {"max_iterations": 25, "samples": 10000}
# Jobs that run as companions on each workload: every job times its
# forward solves, so forward_s needs no companion.
COMPANIONS = {"forward": ("invert", "verify"), "invert": ("verify",),
              "verify": ("invert",)}
# Shares of the time budget: each companion job, and the repeated
# set-ups of the workload's mesh, which run at least SETUP_REPS times.
# The native job gets the rest.  The companion inversion gets more: its
# target time is the shortest interval timed, so it needs the most
# samples to average out the host's flicker.
COMPANION_SHARE = {"invert": 0.3, "verify": 0.2}
SETUP_SHARE = 0.1
SETUP_REPS = 5

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "forward_s": "s", "invert_s": "s",
    "invert_target_s": "s", "invert_iters_to_target": "count",
    "invert_misfit_ratio": "ratio", "verify_s": "s",
}
# per-layer metric -> (span name, "s" for total seconds or "n" for count)
SPAN_METRICS = {
    "mesh.generate_s": ("mesh.generate", "s"),
    "spaces.build_s": ("spaces.build", "s"),
    "forward.factor_s": ("forward.factor", "s"),
    "forward.factor_n": ("forward.factor", "n"),
    "assembly.jacobian_s": ("assembly.jacobian", "s"),
    "assembly.jacobian_n": ("assembly.jacobian", "n"),
    "assembly.residual_s": ("assembly.residual", "s"),
    "assembly.residual_n": ("assembly.residual", "n"),
    "spaces.eliminate_s": ("spaces.eliminate", "s"),
    "spaces.eliminate_n": ("spaces.eliminate", "n"),
    "forward.solve_s": ("forward.solve", "s"),
    "forward.solve_n": ("forward.solve", "n"),
    "adjoint.operator_s": ("adjoint.operator", "s"),
    "adjoint.solve_s": ("adjoint.solve", "s"),
    "adjoint.solve_n": ("adjoint.solve", "n"),
    "inversion.gradient_s": ("inversion.gradient", "s"),
    "inversion.represent_s": ("inversion.represent", "s"),
    "verify.pointwise_s": ("verify.pointwise", "s"),
    "verify.discrete_s": ("verify.discrete", "s"),
    "verify.trace_constant_s": ("verify.trace_constant", "s"),
    "fieldio.write_s": ("fieldio.write", "s"),
}
COUNTER_METRICS = ("forward.newton_iters", "forward.ls_backtracks",
                   "forward.continuation_n")
DERIVED_METRICS = {"inversion.trials_n": "count",
                   "inversion.trials_rejected_n": "count",
                   "inversion.accept_ratio": "ratio",
                   "trace.overhead_s": "s", "trace.overhead_pct": "%"}
PER_LAYER = dict(
    [(k, "s" if kind == "s" else "count") for k, (_, kind) in SPAN_METRICS.items()]
    + [(k, "count") for k in COUNTER_METRICS] + list(DERIVED_METRICS.items()))

# Counts of a traced criterion-7 inversion on the 16x8 slab (ROADMAP
# baseline): 1 initial + 100 accepted + 85 rejected trials, one adjoint
# per trial, 521 Newton steps + 1 warm start, and 522 Jacobian + 186
# adjoint + 2 Riesz-map factorizations.
CROSSCHECK_COUNTS = {"forward.solve_n": 186, "adjoint.solve_n": 186,
                     "forward.factor_n": 710, "assembly.jacobian_n": 522}

if pg is not None:
    PARAMS = pg.PhysicsParams(body_force=(0.5, -1.0))    # tilted load
    TWIN_SOLVER = forward.SolverConfig(newton_rtol=1e-12, newton_atol=1e-13)


# -- seeded inputs ------------------------------------------------------

def op_rng(seed, tag, k):
    return np.random.default_rng([seed, JOB_TAG[tag], k])


def draw_bed(seed):
    """Sinusoidal bed: amplitude and phase drawn from the seed."""
    rng = op_rng(seed, "bed", 0)
    return {"amplitude": rng.uniform(0.03, 0.08),
            "phase": rng.uniform(0.0, 2.0 * np.pi)}


def draw_coefficients(rng):
    """Smooth coefficients: base, amplitude and phase per field."""
    return {"rheology": (rng.uniform(1.0, 1.5), rng.uniform(0.3, 0.6),
                         rng.uniform(0.0, 2.0 * np.pi)),
            "friction": (rng.uniform(0.4, 0.6), rng.uniform(0.2, 0.35),
                         rng.uniform(0.0, 2.0 * np.pi))}


def draw_truth(rng):
    """Twin-experiment truth near the criterion-7 pair
    (1.25 + 0.75 sin(pi x), 0.5 + 0.4 cos(pi x)).

    The ranges are narrow on purpose: wider ones keep the target
    reachable but move the step at which it is reached by a factor of
    three between seeds, which no run-to-run bound could absorb.
    """
    return {"rheology": (1.25 + rng.uniform(-0.01, 0.01),
                         0.75 + rng.uniform(-0.01, 0.01),
                         rng.uniform(-0.015, 0.015)),
            "friction": (0.5 + rng.uniform(-0.005, 0.005),
                         0.4 + rng.uniform(-0.005, 0.005),
                         np.pi / 2 + rng.uniform(-0.015, 0.015))}


def coefficient_fields(spaces, draw):
    """Fields base + amplitude * sin(pi x + phase) on both spaces."""
    (b0, b1, pb), (f0, f1, pf) = draw["rheology"], draw["friction"]
    k = 2.0 * np.pi / LENGTH
    return (pg.field_from_callable(spaces.coeff_omega,
                                   lambda x, y: b0 + b1 * np.sin(k * x + pb)),
            pg.field_from_callable(spaces.coeff_basal,
                                   lambda x, y: f0 + f1 * np.sin(k * x + pf)))


# -- tracing ------------------------------------------------------------

def _record_solve(tracer):
    def on_return(solution):
        report = solution.report
        tracer.count("forward.newton_iters", report.iterations)
        # steps are powers of the default ls_shrink of 0.5
        tracer.count("forward.ls_backtracks",
                     sum(round(-math.log2(a)) for a in report.step_lengths))
        tracer.count("forward.continuation_n", int(report.continuation_used))
    return on_return


def install_layer_wrappers(tracer):
    """Wrap each layer at the name its caller looks up."""
    tracer.wrap(spla, "splu", "forward.factor")
    tracer.wrap(forward, "assemble_jacobian", "assembly.jacobian")
    tracer.wrap(forward, "_residual_raw", "assembly.residual")
    tracer.wrap(spaces_mod.Spaces, "eliminate", "spaces.eliminate")
    for module in (forward, inversion, verify):
        tracer.wrap(module, "solve_forward", "forward.solve",
                    on_return=_record_solve(tracer))
    for module in (adjoint, verify):
        tracer.wrap(module, "assemble_adjoint_operator", "adjoint.operator")
    for module in (inversion, verify):
        tracer.wrap(module, "solve_adjoint", "adjoint.solve")
    tracer.wrap(inversion, "run_inversion", "inversion.run")
    tracer.wrap(inversion, "make_state", "inversion.make_state")
    tracer.wrap(inversion, "evaluate_gradient", "inversion.gradient")
    tracer.wrap(inversion, "represent", "inversion.represent")
    tracer.wrap(verify, "trace_constant", "verify.trace_constant")


class Traced:
    """Context manager: trace the block when ``on`` is true."""

    def __init__(self, tracer, on):
        self.tracer, self.on = tracer, on

    def __enter__(self):
        if self.on:
            install_layer_wrappers(self.tracer)
            self.tracer.enabled = True

    def __exit__(self, *exc):
        if self.on:
            self.tracer.enabled = False
            self.tracer.unwrap_all()


# -- jobs ---------------------------------------------------------------

class Context:
    """What the operations of one job share within a run."""

    def __init__(self, job, seed, nx, ny, settings, tracer, work):
        self.job, self.seed, self.nx, self.ny = job, seed, nx, ny
        self.settings, self.tracer = settings, tracer
        self.work = os.path.join(work, "%s-%dx%d" % (job, nx, ny))
        os.makedirs(self.work, exist_ok=True)
        self.bed = None if job == "invert" else draw_bed(seed)
        self.spaces = None

    def bed_profile(self):
        if self.bed is None:
            return None
        amp, phase = self.bed["amplitude"], self.bed["phase"]
        return lambda x: amp * np.sin(2.0 * np.pi * x / LENGTH + phase)

    def setup(self):
        """Mesh, spaces and the per-mesh caches the job fills on first
        use; returns its (start, end).  The operations use the spaces of
        the first set-up; later ones are built and dropped."""
        span = self.tracer.span
        start = time.perf_counter()
        with span("setup"):
            with span("mesh.generate"):
                mesh = pg.generate_slab_mesh(LENGTH, HEIGHT, self.nx, self.ny,
                                             bed_profile=self.bed_profile())
            with span("spaces.build"):
                spaces = pg.build_spaces(mesh)
            zero = pg.zero_field(spaces.velocity)
            pg.assemble_jacobian(zero, pg.constant_field(spaces.coeff_omega, 1.0),
                                 pg.constant_field(spaces.coeff_basal, 0.5), PARAMS)
            if self.job == "invert":
                for which, space in (("omega", spaces.coeff_omega),
                                     ("basal", spaces.coeff_basal)):
                    inversion.represent(np.zeros(space.dof_count), spaces,
                                        which, "H1_smoothed")
                inversion.regularization_parts(
                    pg.zero_field(spaces.coeff_omega),
                    pg.zero_field(spaces.coeff_basal), PARAMS)
            elif self.job == "verify":
                velocity_mass(spaces)
                velocity_v2_stiffness(spaces)
                basal_trace_mass(spaces)
        end = time.perf_counter()
        if self.spaces is None:
            self.spaces = spaces
        return start, end

    def sizes(self):
        mesh = self.spaces.mesh
        return {"nx": self.nx, "ny": self.ny, "unknowns": int(self.spaces.n_sys),
                "triangles": int(mesh.num_triangles),
                "observed_edges": int(mesh.observed_edges.size)}


def check_forward(spaces, solution, rheology, friction, config):
    """Convergence, recomputed residual, constraints and energy bound."""
    report = solution.report
    fails = []
    if not report.converged:
        fails.append("forward solve did not converge")
    tol = max(config.newton_atol, config.newton_rtol * report.residual_history[0])
    raw = pg.assemble_residual(solution.velocity, solution.pressure, rheology,
                               friction, PARAMS)
    res = float(np.linalg.norm(spaces.reduce_vector(pg.solver_sign(spaces) * raw)))
    if not res <= tol:
        fails.append("recomputed residual %.3g above tolerance %.3g" % (res, tol))
    v = solution.velocity.values
    if not spaces.constraints.satisfies(v, tol=1e-12 * max(1.0, np.abs(v).max())):
        fails.append("velocity violates the strong constraints")
    energy = pg.norm(solution.velocity, "V2_seminorm")
    if not energy <= report.energy_bound * (1.0 + 1e-9):
        fails.append("energy %.6g above bound %.6g" % (energy, report.energy_bound))
    return fails


DETERMINISM_FILES = ("velocity.csv", "pressure.csv", "newton_trace.csv")


def forward_op(ctx, k):
    """One forward solve from the p2 warm start plus the ``forward``
    subcommand's writes.  Operation 1 repeats operation 0's inputs and
    must write byte-identical CSVs."""
    draw = draw_coefficients(op_rng(ctx.seed, "forward", 0 if k == 1 else k))
    rheology, friction = coefficient_fields(ctx.spaces, draw)
    out = os.path.join(ctx.work, "b" if k == 1 else "a")
    os.makedirs(out, exist_ok=True)
    config = forward.SolverConfig(trace_path=os.path.join(out, "newton_trace.csv"))
    span = ctx.tracer.span
    start = time.perf_counter()
    with span("op.forward"):
        solution = forward.solve_forward(rheology, friction, PARAMS, config)
        with span("fieldio.write"):
            fieldio.save_field_csv(solution.velocity, os.path.join(out, "velocity.csv"))
            fieldio.save_field_csv(solution.pressure, os.path.join(out, "pressure.csv"))
            fieldio.save_vtk(ctx.spaces.mesh, os.path.join(out, "solution.vtk"),
                             scalars={"pressure": solution.pressure},
                             vectors={"velocity": solution.velocity})
    end = time.perf_counter()
    fails = check_forward(ctx.spaces, solution, rheology, friction, config)
    if k == 1:
        for name in DETERMINISM_FILES:
            with open(os.path.join(ctx.work, "a", name), "rb") as fa, \
                    open(os.path.join(out, name), "rb") as fb:
                if fa.read() != fb.read():
                    fails.append("%s differs between two runs on the same "
                                 "inputs" % name)
    return (start, end), {"forward_s": (start, end)}, fails


def invert_op(ctx, k):
    """Twin inversion from constants (1.0, 0.5) on noiseless data, then
    the ``invert`` subcommand's writes."""
    spaces = ctx.spaces
    truth = coefficient_fields(spaces, draw_truth(op_rng(ctx.seed, "invert", k)))
    span = ctx.tracer.span
    with span("op.invert"):
        obs = pg.make_twin_data(*truth, PARAMS, solver_config=TWIN_SOLVER)
        start_b = pg.constant_field(spaces.coeff_omega, 1.0)
        start_f = pg.constant_field(spaces.coeff_basal, 0.5)
        # run_inversion evaluates the gradient once at the start and once
        # after each acceptance: those calls timestamp accepted iterates
        gradients, solves = [], []
        restores = [timed(inversion, "evaluate_gradient", gradients),
                    timed(inversion, "solve_forward", solves)]
        try:
            start = time.perf_counter()
            result = inversion.run_inversion(
                start_b, start_f, obs, PARAMS,
                inversion.OptimizationConfig(
                    max_iterations=ctx.settings["max_iterations"]))
            end = time.perf_counter()
        finally:
            for restore in reversed(restores):
                restore()
        state = result.state
        out = os.path.join(ctx.work, "out")
        os.makedirs(out, exist_ok=True)
        with span("fieldio.write"):
            fieldio.save_inversion_history(result.history,
                                           os.path.join(out, "history.csv"))
            for name, field in (("rheology", state.rheology),
                                ("friction", state.friction),
                                ("velocity", state.velocity),
                                ("adjoint", state.adjoint_state)):
                fieldio.save_field_csv(field, os.path.join(out, name + ".csv"))
            fieldio.save_vtk(spaces.mesh, os.path.join(out, "inversion.vtk"),
                             scalars={"rheology": state.rheology,
                                      "friction": state.friction},
                             vectors={"velocity": state.velocity})
    marks = [t0 for t0, _ in gradients]
    history = result.history
    misfits = [row[2] for row in history]
    costs = [row[1] for row in history]
    fails = []
    hit = next((i for i, m in enumerate(misfits)
                if m <= TARGET_FRACTION * misfits[0]), None)
    if len(marks) != len(history):
        fails.append("%d gradient evaluations for %d history rows"
                     % (len(marks), len(history)))
        hit = None
    if hit is None:
        fails.append("misfit target not reached in %d steps (ratio %.3g)"
                     % (history[-1][0], misfits[-1] / misfits[0]))
    if not all(b <= a for a, b in zip(costs, costs[1:])):
        fails.append("cost history is not monotone")
    if not inversion.in_box(result.state.rheology, result.state.friction, PARAMS):
        fails.append("final iterate leaves the admissible box")
    if result.reason not in ("max_iterations", "converged"):
        fails.append("descent stopped early: %s" % result.reason)
    metrics = {"invert_s": (start, end), "forward_s": solves,
               "invert_target_s": (start, crossing_time(marks, misfits, hit)
                                   if hit is not None else end),
               "invert_iters_to_target": history[hit][0] if hit is not None
               else history[-1][0] + 1,
               "invert_misfit_ratio": misfits[-1] / misfits[0]}
    return (start, end), metrics, fails


def crossing_time(marks, misfits, hit):
    """When the misfit reached the target: log-linear between accepted
    iterates ``hit - 1`` and ``hit``, timestamped by ``marks``.  The
    misfit falls about 3% per step near the target, so the first iterate
    below it moves by a step or two between nearby inputs; the crossing
    itself moves smoothly."""
    target = math.log(TARGET_FRACTION * misfits[0])
    above, below = math.log(misfits[hit - 1]), math.log(misfits[hit])
    w = (above - target) / (above - below) if above > below else 1.0
    return marks[hit - 1] + w * (marks[hit] - marks[hit - 1])


def verify_op(ctx, k):
    """``pglacier verify``: the pointwise suite, then the discrete suite."""
    rng = op_rng(ctx.seed, "verify", k)
    rheology, friction = coefficient_fields(ctx.spaces, draw_coefficients(rng))
    suite_seed = int(rng.integers(2 ** 31))
    span = ctx.tracer.span
    solves = []
    # discrete_suite solves once itself and once for its twin data
    restores = [timed(verify, "solve_forward", solves),
                timed(inversion, "solve_forward", solves)]
    try:
        start = time.perf_counter()
        with span("op.verify"):
            with span("verify.pointwise"):
                results = verify.pointwise_suite(
                    samples=ctx.settings["samples"], seed=suite_seed)
            with span("verify.discrete"):
                results += verify.discrete_suite(rheology, friction, PARAMS,
                                                 seed=suite_seed)
        end = time.perf_counter()
    finally:
        for restore in reversed(restores):
            restore()
    fails = [r.line() for r in results if not r.passed]
    return (start, end), {"verify_s": (start, end), "forward_s": solves}, fails


OPS = {"forward": forward_op, "invert": invert_op, "verify": verify_op}


# -- one run ------------------------------------------------------------

class Tally:
    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failures = []

    def run(self, op, ctx, k):
        """Run one checked operation; returns its (start, end) and
        metrics.  A time metric is a (start, end) pair or a list of them
        until the run's end, when the clock scales it.  A probe runs
        before every operation, so that a short one sits between two."""
        self.clock.probe()
        self.attempted += 1
        start = time.perf_counter()
        try:
            interval, metrics, fails = op(ctx, k)
        except Exception as exc:  # an op that raises counts as failed
            interval, metrics = (start, time.perf_counter()), {}
            fails = ["%s: %s" % (type(exc).__name__, exc)]
        if fails:
            self.failures.append("%s %dx%d op %d: %s" % (ctx.job, ctx.nx, ctx.ny, k,
                                                         "; ".join(fails)))
        return interval, metrics


def probe_inside(clock):
    """Let the clock probe before calls that the jobs make many times per
    operation: every sparse LU, and the pointwise suite's matrix kernel.
    Returns a function that restores the originals."""
    originals = [(spla, "splu", spla.splu), (verify, "s_omega", verify.s_omega)]

    def hooked(original):
        def call(*args, **kwargs):
            clock.maybe_probe()
            return original(*args, **kwargs)
        return call

    for owner, attr, original in originals:
        setattr(owner, attr, hooked(original))

    def restore():
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    return restore


def scale(clock, value):
    """A time metric in scaled seconds: a (start, end) pair, or the mean
    of a list of them; other values pass through."""
    if isinstance(value, tuple):
        return clock.scaled(*value)
    if isinstance(value, list):
        return statistics.fmean(clock.scaled(*iv) for iv in value)
    return value


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "thread_env": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "process_threads": threads}


def run(workload, seed, seconds, trace, size=None):
    """Run one workload; returns the result record."""
    job, nx, ny = WORKLOADS[workload]
    if size is not None:
        nx, ny = size
    work = os.path.join(WORK, "%s-seed%d-trace%d" % (workload, seed, int(trace)))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer()
    # Untraced runs also probe from inside the operations; traced runs
    # only between them, so that no probe falls inside a span.
    clock = SpeedClock()
    restore_hooks = (lambda: None) if trace else probe_inside(clock)
    try:
        record = _run(workload, job, nx, ny, seed, seconds, trace, work,
                      tracer, clock)
    finally:
        restore_hooks()
    with open(os.path.join(work, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    return record


def _run(workload, job, nx, ny, seed, seconds, trace, work, tracer, clock):
    tally = Tally(clock)
    per_job = {name: [] for name in JOBS}

    clock.probe()
    ctx = Context(job, seed, nx, ny, FULL, tracer, work)
    with Traced(tracer, trace):
        setups = [ctx.setup()]
    companions = {}
    for other in COMPANIONS[job]:
        companions[other] = Context(other, seed, *COMPANION_SIZE, COMPANION,
                                    tracer, work)
        companions[other].setup()

    def side_op(other):
        """One untraced companion operation or set-up; returns its
        seconds, probes included."""
        begin = time.perf_counter()
        if other == "setup":
            clock.probe()
            setups.append(ctx.setup())
            # The repeat is dropped; collect it now, so that the peak
            # memory does not depend on when the collector last ran.
            gc.collect()
        else:
            _, metrics = tally.run(OPS[other], companions[other], done[other])
            per_job[other].append(metrics)
        return time.perf_counter() - begin

    budget = {other: COMPANION_SHARE[other] * seconds for other in companions}
    budget["setup"] = SETUP_SHARE * seconds
    native_budget = seconds - sum(budget.values())
    spent = dict.fromkeys(budget, 0.0)
    done = dict.fromkeys(budget, 0)
    done["setup"] = len(setups)
    minimum = dict.fromkeys(companions, 1)
    minimum["setup"] = SETUP_REPS

    def catch_up(fraction, final=False):
        """Run side operations, one at a time to whichever is furthest
        behind its budget, until each has had ``fraction`` of it; every
        companion runs at least once, and at the end every side job has
        run its minimum."""
        need = minimum if final else dict.fromkeys(budget, 1)
        while True:
            behind = [o for o in budget if spent[o] < fraction * budget[o]
                      or done[o] < need[o]]
            if not behind:
                return
            other = min(behind, key=lambda o: spent[o] / max(budget[o], 1e-9))
            spent[other] += side_op(other)
            done[other] += 1

    # Native ops until the next one would overrun the native budget.  The
    # side jobs get half their time before the first native op and
    # catch up with the native progress after each: a shared host's speed
    # drifts over seconds to minutes, and samples from one stretch of
    # the run would inherit its speed.  The forward job's op 1 repeats
    # op 0 for the determinism check, so it runs at least twice.
    op_spans = {False: [], True: []}
    native = 0.0
    k = 0
    min_ops = 2 if trace or job == "forward" else 1
    catch_up(0.5)
    while k < min_ops or (native + statistics.median(
            end - start for start, end in op_spans[False] + op_spans[True])
            <= native_budget):
        traced = bool(trace) and k % 2 == 1
        with Traced(tracer, traced):
            (start, end), metrics = tally.run(OPS[job], ctx, k)
        native += end - start
        op_spans[traced].append((start, end))
        if k == 0:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_job[job].append(metrics)
        k += 1
        catch_up(0.5 + 0.5 * min(1.0, native / native_budget)
                 if native_budget > 0 else 1.0)
    # The side jobs take whatever native time is left, for more samples.
    side = sum(budget.values())
    catch_up(1.0 + (max(0.0, native_budget - native) / side if side > 0 else 0.0),
             final=True)
    clock.probe()

    # Every time metric is scaled to the probe's nominal speed, now that
    # the last probe has run.
    raw = {"probes": clock.probes, "setups": setups, "ops": per_job}
    per_job = {other: [{name: scale(clock, v) for name, v in m.items()}
                       for m in ops] for other, ops in per_job.items()}
    setup_s = [clock.scaled(*iv) for iv in setups]
    probe_s = clock.durations()
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "job": job, "sizes": ctx.sizes(),
              "bed": ctx.bed, "ops": k, "side_ops": done,
              "companions": {o: c.sizes() for o, c in companions.items()},
              "op_metrics": per_job, "setup_seconds": setup_s,
              "probes": {"count": len(probe_s),
                         "median_s": statistics.median(probe_s),
                         "total_s": sum(probe_s)},
              "environment": environment(),
              "failures": tally.failures, "raw_intervals": raw}
    metrics = {}
    if trace:
        layers = tracer.layers()
        record["layers"] = layers
        op_times = {t: [clock.raw(*iv) for iv in spans]
                    for t, spans in op_spans.items()}
        metrics = per_layer_metrics(tracer, layers, op_times)
        tracer.write(os.path.join(work, "spans.jsonl"))
    else:
        values = {"setup_s": statistics.fmean(setup_s),
                  "peak_rss_mb": peak_rss_mb}
        # A metric comes from the native job's ops when they report it:
        # the mean over the run's operations.  Once scaled, the mean of
        # a run's few samples was steadier from run to run than their
        # median (bench/README.md, "Scaled seconds").
        for other in (job,) + COMPANIONS[job]:
            for name in {key for m in per_job[other] for key in m}:
                values.setdefault(name, statistics.fmean(
                    m[name] for m in per_job[other] if name in m))
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values.get(name, float("nan")), "unit": unit}
    record["metrics"] = metrics
    record["attempted"] = tally.attempted
    record["failed"] = len(tally.failures)
    return record


def per_layer_metrics(tracer, layers, op_times):
    def total(name, kind):
        entry = layers.get(name, {"count": 0, "total_s": 0.0})
        return entry["total_s"] if kind == "s" else entry["count"]

    values = {m: total(name, kind) for m, (name, kind) in SPAN_METRICS.items()}
    for name in COUNTER_METRICS:
        values[name] = tracer.counters.get(name, 0)
    runs = total("inversion.run", "n")
    trials = total("inversion.make_state", "n") - runs
    accepted = total("inversion.gradient", "n") - runs
    values["inversion.trials_n"] = trials
    values["inversion.trials_rejected_n"] = trials - accepted
    values["inversion.accept_ratio"] = accepted / trials if trials else 0.0
    plain = statistics.fmean(op_times[False])
    overhead = statistics.fmean(op_times[True]) - plain
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / plain
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def crosscheck():
    """Trace the criterion-7 inversion and compare its counts with the
    ROADMAP baseline; returns the counts and the mismatches."""
    spaces = pg.build_spaces(pg.generate_slab_mesh(LENGTH, HEIGHT, 16, 8))
    truth_b = pg.field_from_callable(
        spaces.coeff_omega, lambda x, y: 1.25 + 0.75 * np.sin(np.pi * x))
    truth_f = pg.field_from_callable(
        spaces.coeff_basal, lambda x, y: 0.5 + 0.4 * np.cos(np.pi * x))
    obs = pg.make_twin_data(truth_b, truth_f, PARAMS, solver_config=TWIN_SOLVER)
    tracer = Tracer()
    with Traced(tracer, True):
        inversion.run_inversion(pg.constant_field(spaces.coeff_omega, 1.0),
                                pg.constant_field(spaces.coeff_basal, 0.5), obs,
                                PARAMS, inversion.OptimizationConfig(max_iterations=100))
    layers = tracer.layers()
    counts = {m: layers.get(SPAN_METRICS[m][0], {"count": 0})["count"]
              for m in CROSSCHECK_COUNTS}
    mismatches = {m: (counts[m], want) for m, want in CROSSCHECK_COUNTS.items()
                  if counts[m] != want}
    return counts, mismatches


# -- command line -------------------------------------------------------

def _print_record(record):
    print("workload %s  seed %d  trace %d  ops %d  sizes %s"
          % (record["workload"], record["seed"], record["trace"], record["ops"],
             json.dumps(record["sizes"])))
    print("bed %s  companions %s" % (json.dumps(record["bed"]),
                                     json.dumps(record["companions"])))
    print("environment %s" % json.dumps(record["environment"]))
    if "layers" in record:
        print("%-24s %7s %12s %12s" % ("span", "count", "total_s", "self_s"))
        for name, e in sorted(record["layers"].items(),
                              key=lambda kv: -kv[1]["self_s"]):
            print("%-24s %7d %12.4f %12.4f" % (name, e["count"], e["total_s"],
                                               e["self_s"]))
    for name, m in record["metrics"].items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("error_rate %.4g (%d failed of %d attempted)"
          % (record["failed"] / record["attempted"], record["failed"],
             record["attempted"]))
    for line in record["failures"]:
        print("FAILED " + line, file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--crosscheck", action="store_true",
                        help="trace the criterion-7 inversion and check its "
                             "counts against the recorded baseline")
    args = parser.parse_args(argv)
    if pg is None:
        print("pglacier sources not found under %s" % SRC, file=sys.stderr)
        return 2
    if args.crosscheck:
        counts, mismatches = crosscheck()
        print("crosscheck counts %s" % json.dumps(counts))
        for name, (got, want) in mismatches.items():
            print("MISMATCH %s: %d, baseline %d" % (name, got, want),
                  file=sys.stderr)
        return 1 if mismatches else 0
    if args.workload is None:
        parser.error("--workload is required")
    record = run(args.workload, args.seed, args.seconds, args.trace)
    _print_record(record)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
