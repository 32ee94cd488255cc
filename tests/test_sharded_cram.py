"""Sharded Phase 2: planner and merge contracts, fallbacks, bit-identity.

* the shard planner keeps GIFs whole and refuses pools it cannot
  split; the merge rejects out-of-order runners with a hard error;
* ``ShardedCramAllocator`` falls back to one monolithic run whenever a
  shard fails or the pool is unshardable;
* it returns the same result whether its shard tasks run serially
  in-process or on a 4-worker spawn pool, including under an active
  fault plan.
"""

from __future__ import annotations

import pytest

from repro.core import cram as cram_mod
from repro.core.closeness import make_metric
from repro.core.cram import (
    CramAllocator,
    ShardedCramAllocator,
    ShardOutcome,
    install_shard_runner,
    merge_shard_outcomes,
    plan_shards,
    run_shards_serial,
)
from repro.core.units import AllocationUnit, units_from_records
from repro.experiments import parallel
from repro.experiments.runner import ExperimentRunner
from repro.sim.faults import FaultPlan
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous


@pytest.fixture(scope="module")
def gathered():
    scenario = cluster_homogeneous(
        subscriptions_per_publisher=8, scale=0.1, profile_capacity=64
    )
    return offline_gather(scenario, seed=4)


@pytest.fixture(scope="module")
def gathered_wide():
    scenario = cluster_homogeneous(
        subscriptions_per_publisher=10, scale=0.1, profile_capacity=96
    )
    return offline_gather(scenario, seed=7)


class TestShardPlanning:
    def test_plan_requires_enough_units_and_groups(self, gathered):
        units = units_from_records(gathered.records, gathered.directory)
        assert plan_shards(units, 1) is None
        assert plan_shards(units[:5], 4) is None
        # More shards than GIF groups: unplannable.
        signatures = {unit.profile.signature() for unit in units}
        assert plan_shards(units, len(signatures) + 1) is None

    def test_plan_keeps_gifs_whole_and_balances(self, gathered):
        units = units_from_records(gathered.records, gathered.directory)
        buckets = plan_shards(units, 3)
        assert buckets is not None
        assert sorted(
            unit.unit_id for bucket in buckets for unit in bucket
        ) == sorted(unit.unit_id for unit in units)
        for signature in {unit.profile.signature() for unit in units}:
            owners = {
                index
                for index, bucket in enumerate(buckets)
                if any(u.profile.signature() == signature for u in bucket)
            }
            assert len(owners) == 1

    def test_non_singleton_units_fall_back(self, gathered):
        units = units_from_records(gathered.records, gathered.directory)
        merged = AllocationUnit.merged(units[:2], gathered.directory)
        assert plan_shards([merged] + units[2:], 2) is None

    def test_merge_rejects_out_of_order_outcomes(self, gathered):
        units = units_from_records(gathered.records, gathered.directory)
        buckets = plan_shards(units, 2)
        outcomes = [
            ShardOutcome(index=1, success=True),
            ShardOutcome(index=0, success=True),
        ]
        with pytest.raises(ValueError, match="submission order"):
            merge_shard_outcomes(outcomes, buckets, gathered.directory)

    def test_merge_returns_none_on_shard_failure(self, gathered):
        units = units_from_records(gathered.records, gathered.directory)
        buckets = plan_shards(units, 2)
        outcomes = [
            ShardOutcome(index=0, success=True, groups=((0,),)),
            ShardOutcome(index=1, success=False),
        ]
        assert merge_shard_outcomes(outcomes, buckets, gathered.directory) is None


def failing_runner(tasks):
    return [ShardOutcome(index=task.index, success=False) for task in tasks]


class TestShardedAllocatorFallbacks:
    def test_failed_shards_fall_back_to_monolithic(self, gathered):
        units = units_from_records(gathered.records, gathered.directory)
        sharded = ShardedCramAllocator(
            metric="ios", shards=2, runner=failing_runner
        )
        result = sharded.allocate(units, gathered.broker_pool, gathered.directory)
        reference = CramAllocator(metric="ios")
        expected = reference.allocate(
            units_from_records(gathered.records, gathered.directory),
            gathered.broker_pool,
            gathered.directory,
        )
        assert result.success == expected.success
        assert [
            tuple(r.sub_id for unit in bin_.units for r in unit.members)
            for bin_ in result.bins
        ] == [
            tuple(r.sub_id for unit in bin_.units for r in unit.members)
            for bin_ in expected.bins
        ]
        assert sharded.last_stats.shard_fallbacks == 1
        assert sharded.last_stats.shard_count == 0

    def test_unshardable_pool_runs_monolithic(self, gathered):
        units = units_from_records(gathered.records[:3], gathered.directory)
        sharded = ShardedCramAllocator(metric="ios", shards=4)
        result = sharded.allocate(units, gathered.broker_pool, gathered.directory)
        assert result.success
        assert sharded.last_stats.shard_count == 0
        assert sharded.last_stats.shard_fallbacks == 0

    def test_metric_object_normalized(self):
        sharded = ShardedCramAllocator(metric=make_metric("iou"))
        assert sharded.metric == "iou"
        assert sharded.name == "cram-iou-sharded"

    def test_install_shard_runner_restores_serial(self):
        sentinel_calls = []

        def sentinel(tasks):
            sentinel_calls.append(len(tasks))
            return run_shards_serial(tasks)

        previous = cram_mod._shard_runner
        try:
            install_shard_runner(sentinel)
            assert cram_mod._shard_runner is sentinel
            install_shard_runner(None)
            assert cram_mod._shard_runner is run_shards_serial
        finally:
            install_shard_runner(previous)


def placement(result) -> list:
    """Broker → member subscription IDs, in bin order."""
    return [
        (bin_.spec.broker_id,
         tuple(r.sub_id for unit in bin_.units for r in unit.members))
        for bin_ in result.bins
    ]


def comparable(result, stats) -> dict:
    return {
        "placement": placement(result),
        "success": result.success,
        "broker_count": result.broker_count,
        "stats": repr(stats),
    }


def sharded_comparable(gathered, runner) -> dict:
    allocator = ShardedCramAllocator(metric="ios", shards=4, runner=runner)
    result = allocator.allocate(
        units_from_records(gathered.records, gathered.directory),
        gathered.broker_pool,
        gathered.directory,
    )
    return comparable(result, allocator.last_stats)


class TestShardedBitIdentity:
    def test_pool_jobs4_matches_serial(self, gathered_wide):
        serial = sharded_comparable(gathered_wide, runner=None)
        pooled = sharded_comparable(
            gathered_wide, runner=lambda tasks: parallel.run_shards(tasks, jobs=4)
        )
        assert serial == pooled
        # Vacuity guard: sharding engaged rather than falling back.
        assert "shard_count=4" in serial["stats"]
        assert "shard_fallbacks=0" in serial["stats"]

    def test_full_experiment_identical_under_faults(self):
        plan = FaultPlan(
            crash_fraction=0.25, crash_start=4.0, downtime=5.0,
            loss_rate=0.01, jitter=0.001, seed=5,
        )
        scenario = cluster_homogeneous(
            subscriptions_per_publisher=8, scale=0.08,
            profile_capacity=64, measurement_time=10.0,
        )

        def run() -> dict:
            runner = ExperimentRunner(scenario, seed=11, fault_plan=plan)
            result = runner.run("cram-ios-sharded")
            row = result.as_row()
            row.pop("computation_s")
            return {
                "row": {key: repr(value) for key, value in row.items()},
                "summary": repr(result.summary),
                "cram_stats": repr(result.cram_stats),
            }

        parallel.set_default_shard_jobs(1)
        try:
            serial = run()
            parallel.set_default_shard_jobs(4)
            pooled = run()
        finally:
            parallel.set_default_shard_jobs(None)
        assert serial == pooled
        # The plan actually did something, or this test is vacuous.
        assert "broker_crashes=0" not in serial["summary"]
