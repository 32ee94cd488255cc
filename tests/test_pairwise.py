"""Tests for the PAIRWISE-K / PAIRWISE-N related-work derivatives."""

import pytest

from repro.core.cram import CramAllocator
from repro.core.pairwise import (
    PairwiseKAllocator,
    PairwiseNAllocator,
    pairwise_cluster,
)
from repro.core.units import units_from_records
from repro.experiments import runner as runner_module
from repro.experiments.runner import ExperimentRunner
from repro.sim.rng import SeededRng
from repro.workloads.scenarios import cluster_homogeneous

from conftest import make_directory, make_pool, make_unit


@pytest.fixture
def directory():
    return make_directory([f"P{i}" for i in range(4)])


def mixed_units(directory, per_symbol=3):
    units = []
    for adv in directory:
        for width in range(per_symbol):
            units.append(make_unit({adv: range(8 * (width + 1))}, directory))
    return units


class TestPairwiseCluster:
    def test_reduces_to_requested_count(self, directory):
        units = mixed_units(directory)
        clusters = pairwise_cluster(units, 4, directory)
        assert len(clusters) == 4

    def test_single_cluster(self, directory):
        units = mixed_units(directory)
        clusters = pairwise_cluster(units, 1, directory)
        assert len(clusters) == 1
        assert clusters[0].subscription_count == len(units)

    def test_count_larger_than_units_is_noop(self, directory):
        units = mixed_units(directory)
        clusters = pairwise_cluster(units, 100, directory)
        assert len(clusters) == len(units)

    def test_preserves_all_subscriptions(self, directory):
        units = mixed_units(directory)
        clusters = pairwise_cluster(units, 3, directory)
        total = sum(cluster.subscription_count for cluster in clusters)
        assert total == len(units)

    def test_merges_closest_first(self, directory):
        """Identical profiles (XOR = cap) must merge before anything else."""
        twin_a = make_unit({"P0": range(16)}, directory)
        twin_b = make_unit({"P0": range(16)}, directory)
        loner = make_unit({"P1": range(4)}, directory)
        clusters = pairwise_cluster([twin_a, loner, twin_b], 2, directory)
        by_count = sorted(c.subscription_count for c in clusters)
        assert by_count == [1, 2]
        merged = next(c for c in clusters if c.subscription_count == 2)
        assert merged.profile.cardinality == 16

    def test_invalid_count_raises(self, directory):
        with pytest.raises(ValueError):
            pairwise_cluster(mixed_units(directory), 0, directory)


class TestPairwiseK:
    def test_allocates_k_clusters_to_random_brokers(self, directory):
        units = mixed_units(directory)
        allocator = PairwiseKAllocator(cluster_count=4, rng=SeededRng(3, "t"))
        result = allocator.allocate(units, make_pool(6), directory)
        assert result.success
        assert result.total_subscriptions() == len(units)
        assert result.broker_count <= 4

    def test_capacity_is_ignored(self, directory):
        """Pairwise is capacity-oblivious: overload simply happens."""
        units = mixed_units(directory)
        tiny_pool = make_pool(3, bandwidth=0.001)
        allocator = PairwiseKAllocator(cluster_count=2, rng=SeededRng(1, "t"))
        result = allocator.allocate(units, tiny_pool, directory)
        assert result.success  # no feasibility test at all
        assert any(
            bin_.used_bandwidth > bin_.spec.total_output_bandwidth
            for bin_ in result.bins
        )

    def test_deterministic_given_seed(self, directory):
        units = mixed_units(directory)
        pool = make_pool(6)
        a = PairwiseKAllocator(4, rng=SeededRng(9, "t")).allocate(units, pool, directory)
        b = PairwiseKAllocator(4, rng=SeededRng(9, "t")).allocate(units, pool, directory)
        assert a.subscription_placement() == b.subscription_placement()

    def test_rejects_bad_cluster_count(self):
        with pytest.raises(ValueError):
            PairwiseKAllocator(cluster_count=0)

    def test_name(self):
        assert PairwiseKAllocator(1).name == "pairwise-k"

    def test_runner_takes_k_from_the_scheme_cram_xor_returns(self, monkeypatch):
        """K counts the units of the allocation CRAM-XOR returns, not the
        units left after its last merge.  On this pool CRAM keeps merging
        past the scheme it returns, so the two counts differ."""

        class Planned(Exception):
            pass

        chosen = []

        def record_k(cluster_count, rng=None):
            chosen.append(cluster_count)
            raise Planned

        monkeypatch.setattr(runner_module, "PairwiseKAllocator", record_k)
        runner = ExperimentRunner(cluster_homogeneous(40, scale=0.25), seed=2011)
        with pytest.raises(Planned):
            runner.run("pairwise-k")
        gathered = runner.last_gather
        cram = CramAllocator(metric="xor", failure_budget=runner.cram_failure_budget)
        result = cram.allocate(
            units_from_records(gathered.records, gathered.directory),
            gathered.broker_pool,
            gathered.directory,
        )
        returned = sum(len(bin_.units) for bin_ in result.bins)
        assert returned != cram.last_stats.final_units
        assert chosen == [returned]


class TestPairwiseN:
    def test_one_cluster_per_broker(self, directory):
        units = mixed_units(directory)
        pool = make_pool(5)
        result = PairwiseNAllocator(rng=SeededRng(2, "t")).allocate(
            units, pool, directory
        )
        assert result.success
        assert result.broker_count == 5
        assert result.total_subscriptions() == len(units)

    def test_fewer_units_than_brokers(self, directory):
        units = mixed_units(directory)[:2]
        result = PairwiseNAllocator(rng=SeededRng(2, "t")).allocate(
            units, make_pool(5), directory
        )
        assert result.broker_count == 2

    def test_name(self):
        assert PairwiseNAllocator().name == "pairwise-n"
