"""Sharded Phase 2: planner contract, fallbacks, pinned answers.

* the shard planner keeps GIFs whole and refuses pools it cannot
  split;
* ``ShardedCramAllocator`` falls back to one monolithic run whenever a
  shard fails or the pool is unshardable;
* its answers on the 2,400-subscription pool are the ones recorded
  before the shard process pool was removed, and a cell under an
  active fault plan repeats exactly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import allocators
from repro.core.capacity import AllocationResult
from repro.core.closeness import make_metric
from repro.core.cram import (
    CramAllocator,
    CramStats,
    ShardedCramAllocator,
    plan_shards,
)
from repro.core.units import AllocationUnit, units_from_records
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

    def test_merge_returns_none_on_shard_failure(self, gathered):
        # A pool no shard fits: no pseudo-units, and no later shard runs.
        units = units_from_records(gathered.records, gathered.directory)
        runs = []
        pseudo = ShardedCramAllocator(metric="ios", shards=2)._pseudo_units(
            plan_shards(units, 2), [], gathered.directory, runs
        )
        assert pseudo is None
        assert runs == []


class TestShardedAllocatorFallbacks:
    def test_failed_shards_fall_back_to_monolithic(self, gathered, monkeypatch):
        real_allocate = CramAllocator.allocate
        calls = []

        def first_run_fails(self, units, pool, directory):
            calls.append(len(units))
            if len(calls) == 1:
                return AllocationResult(success=False, bins=[])
            return real_allocate(self, units, pool, directory)

        monkeypatch.setattr(CramAllocator, "allocate", first_run_fails)
        units = units_from_records(gathered.records, gathered.directory)
        sharded = ShardedCramAllocator(metric="ios", shards=2)
        result = sharded.allocate(units, gathered.broker_pool, gathered.directory)
        monkeypatch.undo()
        # The failed first shard, then straight to the whole pool.
        assert calls[0] < len(units) and calls[1:] == [len(units)]
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


def placement(result) -> list:
    """Broker → member subscription IDs, in bin order."""
    return [
        (bin_.spec.broker_id,
         tuple(r.sub_id for unit in bin_.units for r in unit.members))
        for bin_ in result.bins
    ]


#: ``cram-ios-sharded`` on ``cluster_homogeneous(100, scale=0.6)`` (2,400
#: subscriptions), recorded at the last commit that still had the shard
#: process pool: seed -> (placement digest, brokers, counters).  The
#: fused / memo split was re-pinned when the content-keyed pair memo
#: went (25, 42 and 37 of its hits are fused evaluations now; the sums
#: are the recorded ones).  ``returned_iteration`` and
#: ``merges_past_best`` (the final pass's) were added later, with no
#: other value changed.
PINNED = {
    1: ("ce7eb6f43f6d3c4a", 17, CramStats(
        subscriptions=2400, initial_units=2400, initial_gifs=618,
        final_units=19, iterations=923, merges=866, failures=57,
        returned_iteration=25, merges_past_best=0,
        closeness_evaluations=67289, initial_search_evaluations=33093,
        binpack_runs=1199, kernel_fused_evaluations=32938,
        kernel_memo_hits=34351, shard_count=4)),
    2: ("01a5e31a8d2c6e23", 17, CramStats(
        subscriptions=2400, initial_units=2400, initial_gifs=640,
        final_units=19, iterations=967, merges=908, failures=59,
        returned_iteration=10, merges_past_best=0,
        closeness_evaluations=72245, initial_search_evaluations=34932,
        binpack_runs=1258, kernel_fused_evaluations=35128,
        kernel_memo_hits=37117, shard_count=4)),
    3: ("731d24761faad903", 17, CramStats(
        subscriptions=2400, initial_units=2400, initial_gifs=594,
        final_units=19, iterations=889, merges=822, failures=67,
        returned_iteration=0, merges_past_best=0,
        closeness_evaluations=68797, initial_search_evaluations=32842,
        binpack_runs=1158, kernel_fused_evaluations=32783,
        kernel_memo_hits=36014, shard_count=4)),
}


class TestShardedBitIdentity:
    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_answers_pinned_at_2400_subscriptions(self, seed):
        gathered = offline_gather(cluster_homogeneous(100, scale=0.6), seed=seed)
        allocator = allocators.get("cram-ios-sharded", failure_budget=150)()
        result = allocator.allocate(
            units_from_records(gathered.records, gathered.directory),
            gathered.broker_pool,
            gathered.directory,
        )
        assert result.success
        digest = hashlib.sha256(
            json.dumps([[b, list(subs)] for b, subs in placement(result)]).encode()
        ).hexdigest()[:16]
        assert (digest, result.broker_count, allocator.last_stats) == PINNED[seed]

    def test_full_experiment_identical_under_faults(self):
        plan = FaultPlan(
            crash_fraction=0.25, crash_start=4.0, downtime=5.0,
            loss_rate=0.01, jitter=0.001, seed=5,
        )
        scenario = cluster_homogeneous(
            subscriptions_per_publisher=10, scale=0.1,
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

        first = run()
        assert first == run()
        # The plan actually did something and the degraded gather still
        # sharded, or this test is vacuous.
        assert "broker_crashes=0" not in first["summary"]
        assert "shard_count=4" in first["cram_stats"]
