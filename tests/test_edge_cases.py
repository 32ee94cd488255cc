"""Edge-case tests across modules (boundary and concurrency paths)."""

import pytest

from repro.core.binpacking import BinPackingAllocator
from repro.core.capacity import BrokerBin, BrokerSpec, MatchingDelayFunction
from repro.core.croc import Croc
from repro.core.deployment import BrokerTree
from repro.core.grape import GrapeRelocator
from repro.core.overlay_builder import OverlayBuilder
from repro.core.profiles import PublisherProfile
from repro.core.units import AllocationUnit

from conftest import make_directory, make_kernel, make_pool, make_spec, make_unit
from test_broker_routing import make_network, make_publisher, make_subscriber


class TestCapacityBoundaries:
    def test_unit_exactly_filling_bandwidth_accepted(self, directory):
        spec = make_spec("b", bandwidth=5.0)
        unit = make_unit({"A": range(32)}, directory)  # exactly 5.0 kB/s
        bin_ = BrokerBin(spec, make_kernel(directory, [unit]))
        assert unit.delivery_bandwidth == pytest.approx(5.0)
        assert bin_.can_accept(unit)

    def test_unit_epsilon_over_bandwidth_rejected(self, directory):
        spec = make_spec("b", bandwidth=4.999)
        unit = make_unit({"A": range(32)}, directory)
        bin_ = BrokerBin(spec, make_kernel(directory, [unit]))
        assert not bin_.can_accept(unit)

    def test_zero_bandwidth_broker_accepts_only_empty_units(self, directory):
        spec = make_spec("b", bandwidth=0.0)
        empty, one = make_unit({}, directory), make_unit({"A": [1]}, directory)
        bin_ = BrokerBin(spec, make_kernel(directory, [empty, one]))
        assert bin_.can_accept(empty)
        assert not bin_.can_accept(one)

    def test_input_rate_with_unknown_publisher(self, directory):
        """Profiles may reference publishers that left the system."""
        spec = make_spec("b")
        unit = make_unit({"GHOST": range(10)}, directory)
        bin_ = BrokerBin(spec, make_kernel(directory, [unit]))
        bin_.add(unit)
        assert bin_.input_rate == 0.0  # no rate without a directory entry


class TestConcurrentGathers:
    def test_two_birs_aggregate_independently(self):
        network = make_network(4)
        network.attach_subscriber(make_subscriber("s1"), "b3")
        network.attach_publisher(make_publisher(rate=10.0), "b0")
        network.run(2.0)
        croc_a = Croc(allocator_factory=BinPackingAllocator)
        croc_b = Croc(allocator_factory=BinPackingAllocator)
        # Interleave: fire both BIRs before draining either.
        first = croc_a.gather(network, via_broker="b0")
        second = croc_b.gather(network, via_broker="b3")
        assert len(first.broker_pool) == 4
        assert len(second.broker_pool) == 4
        assert first.subscription_count == second.subscription_count == 1


class TestOverlayBuilderRename:
    def test_best_fit_rename_rewires_edges(self, directory=None):
        directory = make_directory(["P0", "P1"])
        # Two leaves on big brokers, a small broker available as parent
        # swap target once best-fit runs.
        big = [make_spec(f"BIG{i}", bandwidth=100.0) for i in range(3)]
        small = [make_spec("SML0", bandwidth=11.0)]
        pool = big + small
        from repro.core.capacity import AllocationResult

        units = [make_unit({adv: range(32)}, directory) for adv in ("P0", "P1")]
        kernel = make_kernel(directory, units)
        bins = []
        for spec, unit in zip(big[:2], units):
            bin_ = BrokerBin(spec, kernel)
            bin_.add(unit)
            bins.append(bin_)
        allocation = AllocationResult(bins, success=True)
        builder = OverlayBuilder(
            BinPackingAllocator, takeover_children=False,
        )
        tree = builder.build(allocation, pool, directory)
        tree.validate()
        if builder.last_stats.best_fit_replacements:
            # The renamed parent's edges must still reach both leaves.
            assert set(tree.children(tree.root)) == {"BIG0", "BIG1"}
            assert tree.root == "SML0"


class TestGrapeEdges:
    def test_zero_rate_publisher(self):
        directory = {"A": PublisherProfile("A", publication_rate=0.0,
                                           bandwidth=0.0, last_message_id=10)}
        tree = BrokerTree("root")
        tree.add_broker("leaf", "root")
        decision = GrapeRelocator("load").place_one(tree, "A", directory["A"])
        assert decision.broker_id in ("root", "leaf")

    def test_publisher_unknown_to_tree_goes_to_root(self):
        directory = make_directory(["A"])
        tree = BrokerTree("solo")
        decision = GrapeRelocator("delay").place_one(tree, "A", directory["A"])
        assert decision.broker_id == "solo"


class TestScenarioOverrides:
    def test_profile_capacity_override(self):
        from repro.workloads.scenarios import cluster_homogeneous

        scenario = cluster_homogeneous(
            subscriptions_per_publisher=10, scale=0.1, profile_capacity=32
        )
        assert scenario.profile_capacity == 32
        assert scenario.derived_profiling_time() < 60.0

    def test_explicit_profiling_time_wins(self):
        from repro.workloads.scenarios import cluster_homogeneous

        scenario = cluster_homogeneous(
            subscriptions_per_publisher=10, scale=0.1, profiling_time=7.0
        )
        assert scenario.derived_profiling_time() == 7.0


class TestMetricsAccounting:
    def test_forwarding_bytes_counted_at_sender(self):
        network = make_network(2)
        network.attach_subscriber(make_subscriber("s1"), "b1")
        network.attach_publisher(make_publisher(rate=10.0), "b0")
        network.run(2.0)
        b0 = network.metrics.counters("b0")
        b1 = network.metrics.counters("b1")
        assert b0.publications_out > 0  # forwards toward b1
        assert b0.deliveries == 0       # no local subscriber
        assert b1.deliveries > 0

    def test_publication_counters_balance(self):
        """Everything b0 forwards arrives at b1."""
        network = make_network(2)
        network.attach_subscriber(make_subscriber("s1"), "b1")
        network.attach_publisher(make_publisher(rate=10.0), "b0")
        network.run(2.0)
        sent = network.metrics.counters("b0").publications_out
        received = network.metrics.counters("b1").publications_in
        assert abs(sent - received) <= 1  # at most one message in flight
