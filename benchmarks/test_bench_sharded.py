"""Sharded Phase-2 wall time (paper-external).

One CRAM allocation of a ~2,400 subscription pool, monolithic vs 4-way
sharded.  Sharding wins *algorithmically* — each shard's quadratic
partner search runs over ~1/4 of the pool, one shard after another in
the calling process — so the ``>= 1.5x`` floor is asserted on every
machine.

Lands in ``BENCH_sharded.json``.
"""

from __future__ import annotations

import time

from conftest import record_bench, print_figure
from repro.core.cram import CramAllocator, ShardedCramAllocator
from repro.core.units import units_from_records
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous

SHARD_SUBS = 120
SHARD_SCALE = 0.5
SHARD_BUCKETS = 16
SHARD_COUNT = 4

#: Minimum end-to-end speedup of sharded Phase 2 vs monolithic: pure
#: algorithmics (smaller quadratic searches), so asserted everywhere.
SHARD_FLOOR = 1.5


def test_sharded_phase2_wall_time(benchmark):
    scenario = cluster_homogeneous(
        subscriptions_per_publisher=SHARD_SUBS, scale=SHARD_SCALE,
        profile_capacity=128, threshold_buckets=SHARD_BUCKETS,
    )
    gathered = offline_gather(scenario, seed=2011)

    def timed(allocator):
        units = units_from_records(gathered.records, gathered.directory)
        start = time.perf_counter()
        result = allocator.allocate(
            units, gathered.broker_pool, gathered.directory
        )
        assert result.success
        return time.perf_counter() - start

    def measure():
        mono_s = timed(CramAllocator(metric="ios"))
        sharded = ShardedCramAllocator(metric="ios", shards=SHARD_COUNT)
        sharded_s = timed(sharded)
        assert sharded.last_stats.shard_count == SHARD_COUNT
        assert sharded.last_stats.shard_fallbacks == 0
        return [
            {"variant": "monolithic", "wall_s": round(mono_s, 3),
             "speedup": 1.0},
            {"variant": "sharded-serial", "wall_s": round(sharded_s, 3),
             "speedup": round(mono_s / sharded_s, 2)},
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_figure(
        f"sharded: Phase 2, {len(gathered.records)} subscriptions",
        rows,
    )
    record_bench(
        "sharded", [],
        sharded_phase2={
            "subscriptions": len(gathered.records),
            "shards": SHARD_COUNT,
            "floor": SHARD_FLOOR,
            "serial_floor_asserted": True,
        },
    )
    sharded_row = rows[1]
    assert sharded_row["speedup"] >= SHARD_FLOOR, (
        f"sharded-serial: only {sharded_row['speedup']}x of monolithic "
        f"Phase 2 (floor {SHARD_FLOOR}x)"
    )
