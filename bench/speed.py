"""Machine-speed reference for the pglacier benchmark.

The benchmark runs on shared hosts whose speed drifts by a third over
seconds to minutes, so two runs of the same code can differ by more
than any useful bound.  ``SpeedClock`` measures that drift with a
fixed reference kernel (``probe``) that does not touch pglacier, runs
it between and inside the timed operations, and rescales every timed
interval to the speed at which the probe takes ``NOMINAL_PROBE_S``.
A change to the library moves the scaled times; a change of the
host's speed moves the probe and the operation together and cancels.

Probe time is excluded from every interval: ``raw`` and ``scaled``
count only the time between probes.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
# Bound at import: the benchmark hooks ``scipy.sparse.linalg.splu`` to
# probe from inside the library, and the probe must not call the hook.
from scipy.sparse.linalg import splu

# The probe's duration on the reference machine (2 vCPUs, Python 3.11,
# numpy 2.4, scipy 1.17, one BLAS thread) at its usual speed.  Scaled
# times are seconds on that machine; the constant only sets their unit.
NOMINAL_PROBE_S = 0.025

_GRID = 48

# A probe runs at most every PROBE_INTERVAL_S of work; a gap between two
# probes is scaled by the mean of the PROBE_WINDOW probes around it.
PROBE_INTERVAL_S = 0.5
PROBE_WINDOW = 10


def _laplacian(n):
    """Five-point Laplacian on an n x n grid, assembled from triplets
    the way the library assembles its matrices."""
    idx = np.arange(n * n).reshape(n, n)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [np.full(n * n, 4.0)]
    for a, b in ((idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])):
        for r, c in ((a, b), (b, a)):
            rows.append(r.ravel())
            cols.append(c.ravel())
            vals.append(np.full(r.size, -1.0))
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n * n, n * n))


def probe():
    """Fixed work in the library's mix: sparse assembly, a sparse LU
    and its solves, small-array numpy calls and plain Python."""
    for _ in range(8):
        matrix = _laplacian(_GRID).tocsc()
    lu = splu(matrix)
    x = lu.solve(np.ones(matrix.shape[0]))
    acc = 0.0
    for k in range(2000):
        block = x[k:k + 6].reshape(2, 3)
        acc += float(np.einsum("ij,ij->", block, block))
    total = 0
    for k in range(60000):
        total += k * k % 7
    return acc + total


class SpeedClock:
    """Reference probes spread over a run, and intervals scaled by them.

    ``maybe_probe`` runs a probe when ``PROBE_INTERVAL_S`` have passed
    since the last one; the benchmark calls it between operations and
    from a hook inside long ones.  ``scaled(a, b)`` integrates the
    factor ``NOMINAL_PROBE_S / local probe time`` over ``[a, b]``, where
    the local probe time between two probes is the mean of the
    ``PROBE_WINDOW`` probes around them: the host's speed flickers within half a second,
    which no probe can follow, and drifts over seconds to minutes, which
    a mean over a few seconds of probes does.  Call ``scaled`` only
    after the run's last probe.
    """

    def __init__(self):
        self.probes = []            # (start, end) in perf_counter seconds

    def probe(self):
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter()))

    def maybe_probe(self):
        if (not self.probes
                or time.perf_counter() - self.probes[-1][1] >= PROBE_INTERVAL_S):
            self.probe()

    def durations(self):
        return [end - start for start, end in self.probes]

    def _gap_factors(self):
        """Factor of each gap: before the first probe, between each two
        probes, and after the last."""
        d = self.durations()
        half = PROBE_WINDOW // 2
        # gap g lies between probes g - 1 and g
        return [NOMINAL_PROBE_S * len(near) / sum(near)
                for near in (d[max(0, g - half):max(g + half, half)]
                             for g in range(len(d) + 1))]

    def _gaps(self):
        """The stretches of time between probes, with their factors."""
        edges = [-float("inf")]
        for start, end in self.probes:
            edges += [start, end]
        edges.append(float("inf"))
        return zip(edges[0::2], edges[1::2], self._gap_factors())

    def raw(self, a, b):
        """Seconds in [a, b] outside the probes."""
        return sum(max(0.0, min(b, hi) - max(a, lo)) for lo, hi, _ in self._gaps())

    def scaled(self, a, b):
        """Seconds in [a, b] outside the probes, at the nominal speed."""
        return sum(f * max(0.0, min(b, hi) - max(a, lo))
                   for lo, hi, f in self._gaps())
