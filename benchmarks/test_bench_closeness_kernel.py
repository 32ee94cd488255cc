"""Fused closeness-kernel speedup on the reduced-scale CRAM scenario.

Times full CRAM allocations with the bit-plane kernel and with the
kernel-less reference (``tests/naive_cram.py``) on one homogeneous
pool, per metric, and asserts the kernel's contract from both sides:

* **exactness** — identical broker counts and closeness-evaluation
  counters either way;
* **speed** — at this scenario the fused path is ≥3x faster for XOR
  (the exhaustive metric whose partner rows dominate) and ≥2x faster
  for IOU.

Rows land in ``BENCH_closeness_kernel.json`` (see ``conftest.record_bench``)
so the trajectory of the speedup is machine-readable run over run.
"""

from __future__ import annotations

import os
import pathlib
import sys
import time

import pytest

from conftest import BENCH_SCALE, BENCH_SEED, record_bench
from repro.core.cram import CramAllocator
from repro.core.units import units_from_records
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from naive_cram import NaiveCramAllocator  # noqa: E402

#: Pool density for this suite.  Deliberately *not* the shared
#: ``REPRO_BENCH_SUBS`` sweep: the kernel's advantage grows with pool
#: size, and this scenario (960 units at the default scale) is where
#: the headline ratios are stable enough to gate on.
KERNEL_SUBS = int(os.environ.get("REPRO_BENCH_KERNEL_SUBS", "160"))
ROUNDS = int(os.environ.get("REPRO_BENCH_KERNEL_ROUNDS", "2"))

#: Wall-clock floors asserted below (and recorded in the JSON).
MIN_SPEEDUP = {"xor": 3.0, "iou": 2.0}


_pool_cache = {}


def pool():
    if not _pool_cache:
        scenario = cluster_homogeneous(
            subscriptions_per_publisher=KERNEL_SUBS, scale=BENCH_SCALE
        )
        gathered = offline_gather(scenario, seed=BENCH_SEED)
        _pool_cache["gathered"] = gathered
        _pool_cache["units"] = units_from_records(
            gathered.records, gathered.directory
        )
    return _pool_cache["units"], _pool_cache["gathered"]


def _timed_run(metric: str, allocator_class):
    """Best-of-ROUNDS wall clock for one CRAM configuration."""
    units, gathered = pool()
    best_seconds = None
    result = allocator = None
    for _ in range(ROUNDS):
        allocator = allocator_class(metric=metric, failure_budget=150)
        started = time.perf_counter()
        result = allocator.allocate(
            units, gathered.broker_pool, gathered.directory
        )
        elapsed = time.perf_counter() - started
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, result, allocator.last_stats


@pytest.mark.parametrize("metric", ["xor", "iou", "ios", "intersect"])
def test_kernel_speedup(benchmark, metric):
    naive_seconds, naive_result, naive_stats = _timed_run(
        metric, NaiveCramAllocator
    )
    fused_seconds, fused_result, fused_stats = _timed_run(metric, CramAllocator)

    # Exactness: the kernel must not change the outcome, only the clock.
    assert fused_result.success == naive_result.success
    assert fused_result.broker_count == naive_result.broker_count
    assert (
        fused_stats.closeness_evaluations == naive_stats.closeness_evaluations
    )
    assert fused_stats.kernel_fused_evaluations > 0
    assert naive_stats.kernel_fused_evaluations == 0

    speedup = naive_seconds / fused_seconds
    floor = MIN_SPEEDUP.get(metric, 1.0)
    record_bench(
        "closeness_kernel",
        [
            {
                "metric": metric,
                "subscriptions_per_publisher": KERNEL_SUBS,
                "rounds": ROUNDS,
                "naive_seconds": round(naive_seconds, 4),
                "kernel_seconds": round(fused_seconds, 4),
                "speedup": round(speedup, 2),
                "required_speedup": floor,
                "brokers": fused_result.broker_count,
                "closeness_evaluations": fused_stats.closeness_evaluations,
                "kernel_fused_evaluations": fused_stats.kernel_fused_evaluations,
                "kernel_memo_hits": fused_stats.kernel_memo_hits,
            }
        ],
        title="closeness: fused bit-plane kernel vs naive CRAM wall clock",
    )
    print(
        f"closeness-kernel {metric}: naive {naive_seconds:.4f}s, "
        f"fused {fused_seconds:.4f}s, speedup {speedup:.2f}x (floor {floor}x)"
    )
    assert speedup >= floor, (
        f"{metric}: fused kernel speedup {speedup:.2f}x below the "
        f"{floor}x floor at subs={KERNEL_SUBS}, scale={BENCH_SCALE}"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
