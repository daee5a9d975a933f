"""Tests of the benchmark itself.  Run with ``python -m pytest bench``.

Each workload's code path runs once on a 4x2 slab, untraced and
traced, and must emit exactly the metrics BENCHMARK.json names, each
with its unit.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_emits_every_metric(workload, trace):
    record = bench.run(workload, seed=0, seconds=0, trace=trace, size=(4, 2))
    assert record["failed"] == 0, record["failures"]
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in record["metrics"].items()}
    assert got == want
    for name, m in record["metrics"].items():
        assert math.isfinite(m["value"]), name


def test_failed_check_is_counted(monkeypatch):
    monkeypatch.setattr(bench, "TARGET_FRACTION", 1e-12)
    record = bench.run("invert-16x8", seed=0, seconds=0, trace=0, size=(4, 2))
    assert record["failed"] >= 1
    assert any("target not reached" in line for line in record["failures"])


def test_crosscheck_reproduces_baseline_counts():
    counts, mismatches = bench.crosscheck()
    assert not mismatches, counts


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "invert-16x8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_speed_clock_scales_and_skips_probes():
    from speed import NOMINAL_PROBE_S, SpeedClock
    clock = SpeedClock()
    # probes at 0, 10 and 20 s, each twice the nominal duration
    clock.probes = [(t, t + 2 * NOMINAL_PROBE_S) for t in (0.0, 10.0, 20.0)]
    a, b = 5.0, 15.0
    skipped = 2 * NOMINAL_PROBE_S          # the probe at 10 s
    assert clock.raw(a, b) == pytest.approx(10.0 - skipped)
    assert clock.scaled(a, b) == pytest.approx((10.0 - skipped) / 2)
    # a host twice as fast: the same interval is worth twice as much
    clock.probes = [(t, t + NOMINAL_PROBE_S) for t in (0.0, 10.0, 20.0)]
    assert clock.scaled(a, b) == pytest.approx(10.0 - NOMINAL_PROBE_S)
