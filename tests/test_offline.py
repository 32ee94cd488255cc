"""Tests for offline profile generation (simulator-free Phase 1)."""

import pytest

from repro.core.units import units_from_records
from repro.workloads.offline import (
    iter_offline_records,
    offline_directory,
    offline_gather,
)
from repro.workloads.scenarios import cluster_homogeneous


@pytest.fixture(scope="module")
def gathered():
    scenario = cluster_homogeneous(subscriptions_per_publisher=20, scale=0.15)
    return offline_gather(scenario, seed=3)


class TestOfflineGather:
    def test_shapes(self, gathered):
        scenario = cluster_homogeneous(subscriptions_per_publisher=20, scale=0.15)
        assert len(gathered.broker_pool) == scenario.broker_count
        assert gathered.subscription_count == scenario.total_subscriptions
        assert len(gathered.directory) == scenario.publishers

    def test_directory_rates_match_scenario(self, gathered):
        scenario = cluster_homogeneous(subscriptions_per_publisher=20, scale=0.15)
        for publisher in gathered.directory.values():
            assert publisher.publication_rate == pytest.approx(
                scenario.publication_rate
            )
            assert publisher.last_message_id == scenario.profile_capacity

    def test_template_subscriptions_have_full_vectors(self, gathered):
        """Templates sink every quote of their symbol: density 1.0."""
        full = []
        for record in gathered.records:
            adv_id = next(iter(record.profile.adv_ids()), None)
            if adv_id is None:
                continue  # inequality threshold matched nothing
            window = gathered.directory[adv_id].last_message_id
            if record.profile.cardinality == window:
                full.append(record)
        # 40% of the workload are templates.
        assert len(full) >= 0.35 * gathered.subscription_count

    def test_profiles_single_publisher_each(self, gathered):
        for record in gathered.records:
            assert len(record.profile) <= 1  # one symbol per subscription

    def test_window_override(self):
        scenario = cluster_homogeneous(subscriptions_per_publisher=5, scale=0.1)
        small = offline_gather(scenario, seed=3, window=16)
        for publisher in small.directory.values():
            assert publisher.last_message_id == 16

    def test_iter_offline_records_matches_gather(self):
        scenario = cluster_homogeneous(
            subscriptions_per_publisher=8, scale=0.1, profile_capacity=64
        )
        eager = offline_gather(scenario, seed=3)
        directory = offline_directory(scenario)
        assert {
            adv_id: repr(profile)
            for adv_id, profile in directory.items()
        } == {
            adv_id: repr(profile)
            for adv_id, profile in eager.directory.items()
        }
        lazy = iter_offline_records(scenario, seed=3, directory=directory)
        for expected, got in zip(eager.records, lazy, strict=True):
            assert got.sub_id == expected.sub_id
            assert got.subscriber_id == expected.subscriber_id
            assert got.profile.signature() == expected.profile.signature()

    def test_deterministic(self):
        scenario = cluster_homogeneous(subscriptions_per_publisher=10, scale=0.1)
        a = offline_gather(scenario, seed=9)
        b = offline_gather(scenario, seed=9)
        for ra, rb in zip(a.records, b.records):
            assert ra.sub_id == rb.sub_id
            assert ra.profile == rb.profile

    def test_units_buildable(self, gathered):
        units = units_from_records(gathered.records, gathered.directory)
        assert len(units) == gathered.subscription_count
        assert all(unit.delivery_bandwidth >= 0 for unit in units)

    def test_matches_simulated_profiles_in_shape(self):
        """Offline and simulated profiling agree on template densities."""
        from repro.core.binpacking import BinPackingAllocator
        from repro.core.croc import Croc
        from repro.experiments.runner import ExperimentRunner

        scenario = cluster_homogeneous(
            subscriptions_per_publisher=10, scale=0.1, profile_capacity=96
        )
        offline = offline_gather(scenario, seed=4)
        runner = ExperimentRunner(scenario, seed=4)
        network = runner._build_network()
        runner._deploy_manual(network)
        network.run(scenario.derived_profiling_time())
        live = Croc(allocator_factory=BinPackingAllocator).gather(network)

        def density_histogram(gathered):
            densities = []
            for record in gathered.records:
                for adv_id, vector in record.profile.items():
                    densities.append(round(vector.cardinality / vector.capacity, 1))
            return sorted(densities)

        offline_template_share = sum(
            1 for d in density_histogram(offline) if d >= 0.9
        )
        live_template_share = sum(1 for d in density_histogram(live) if d >= 0.9)
        # Both see the same 40% template population at full density.
        assert offline_template_share > 0
        assert live_template_share > 0
