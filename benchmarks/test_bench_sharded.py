"""Sharded Phase-2 wall time (paper-external).

One CRAM allocation of a ~2,400 subscription pool, monolithic vs 4-way
sharded (serial runner and the ``--jobs 4`` spawn-pool runner).
Sharding wins *algorithmically* — each shard's quadratic partner search
runs over ~1/4 of the pool — so the serial-sharded ``>= 1.5x`` floor is
asserted on every machine.  The pooled variant additionally pays worker
spawn and task pickling; with fewer than 4 usable CPUs its wall time
says nothing about the pool, so the row records ``"skipped":
"usable_cpus < 4"`` instead of a ratio (the same convention as
``BENCH_parallel.json``).  Sharded results are always asserted
bit-identical between the serial and pooled runners.

Lands in ``BENCH_sharded.json`` with the core count and gate status.
"""

from __future__ import annotations

import time

from conftest import pool_speedup, record_bench, print_figure
from repro.core.cram import CramAllocator, ShardedCramAllocator
from repro.core.units import units_from_records
from repro.experiments import parallel
from repro.experiments.parallel import usable_cpus
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous

SHARD_SUBS = 120
SHARD_SCALE = 0.5
SHARD_BUCKETS = 16
SHARD_COUNT = 4
SHARD_JOBS = 4

#: Minimum end-to-end speedup of sharded Phase 2 vs monolithic.  The
#: serial-sharded variant is pure algorithmics (smaller quadratic
#: searches), so its floor is asserted everywhere; the jobs=4 variant
#: adds pool costs and is gated on having >= SHARD_JOBS usable CPUs.
SHARD_FLOOR = 1.5


def _placement(result):
    return [
        tuple(r.sub_id for unit in bin_.units for r in unit.members)
        for bin_ in result.bins
    ]


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
        return result, time.perf_counter() - start

    cores = usable_cpus()
    pool_gate_active = cores >= SHARD_JOBS

    def measure():
        mono, mono_s = timed(CramAllocator(metric="ios"))
        serial, serial_s = timed(
            ShardedCramAllocator(metric="ios", shards=SHARD_COUNT)
        )
        pool_allocator = ShardedCramAllocator(
            metric="ios", shards=SHARD_COUNT,
            runner=lambda tasks: parallel.run_shards(tasks, jobs=SHARD_JOBS),
        )
        pooled, pooled_s = timed(pool_allocator)
        assert pool_allocator.last_stats.shard_count == SHARD_COUNT
        assert pool_allocator.last_stats.shard_fallbacks == 0
        # The determinism contract: runner choice cannot change results.
        assert _placement(serial) == _placement(pooled)
        return [
            {"variant": "monolithic", "wall_s": round(mono_s, 3),
             "speedup": 1.0},
            {"variant": "sharded-serial", "wall_s": round(serial_s, 3),
             "speedup": round(mono_s / serial_s, 2)},
            {"variant": f"sharded-jobs{SHARD_JOBS}",
             "wall_s": round(pooled_s, 3),
             **pool_speedup(round(mono_s / pooled_s, 2), SHARD_JOBS, cores)},
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
            "jobs": SHARD_JOBS,
            "usable_cpus": cores,
            "floor": SHARD_FLOOR,
            "serial_floor_asserted": True,
            "pool_floor_asserted": pool_gate_active,
        },
    )
    serial_row, pooled_row = rows[1], rows[2]
    assert serial_row["speedup"] >= SHARD_FLOOR, (
        f"sharded-serial: only {serial_row['speedup']}x of monolithic "
        f"Phase 2 (floor {SHARD_FLOOR}x)"
    )
    if pool_gate_active:
        assert pooled_row["speedup"] >= SHARD_FLOOR, (
            f"{pooled_row['variant']}: only {pooled_row['speedup']}x of "
            f"monolithic Phase 2 (floor {SHARD_FLOOR}x on a "
            f"{cores}-CPU machine)"
        )
