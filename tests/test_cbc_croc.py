"""Tests for CBC profiling and CROC's BIR/BIA gathering protocol."""

import pytest

from repro.core.binpacking import BinPackingAllocator
from repro.core.capacity import BrokerSpec, MatchingDelayFunction
from repro.core.croc import Croc, ReconfigurationError
from repro.pubsub.cbc import CrocBackendComponent
from repro.pubsub.message import Publication
from repro.pubsub.network import PubSubNetwork
from repro.sim.faults import FaultPlan

from conftest import make_spec
from per_delivery_oracle import PerDeliveryNetwork
from test_broker_routing import make_network, make_publisher, make_subscriber


def make_publication(adv_id="adv-YHOO", message_id=1, size_kb=0.5):
    return Publication(
        adv_id=adv_id,
        message_id=message_id,
        attributes={"class": "STOCK", "symbol": "YHOO"},
        publish_time=0.0,
        size_kb=size_kb,
    )


class TestCbcProfiling:
    def test_records_deliveries_into_bit_vectors(self):
        cbc = CrocBackendComponent("b0", profile_capacity=32)
        from repro.pubsub.message import Subscription
        from repro.pubsub.predicate import parse_predicates

        subscription = Subscription(
            "s1", "s1", parse_predicates([("symbol", "=", "YHOO")])
        )
        cbc.register_subscription(subscription)
        for message_id in (1, 3, 5):
            cbc.record_deliveries(make_publication(message_id=message_id), ["s1"])
        report = cbc.report(BrokerSpec("b0", 100.0), now=10.0)
        record = report.subscriptions[0]
        assert record.sub_id == "s1"
        assert record.profile.vector("adv-YHOO").to_list() == [1, 3, 5]

    def test_measures_publisher_rate_and_bandwidth(self):
        cbc = CrocBackendComponent("b0")
        for message_id in range(1, 11):
            cbc.on_local_publication(
                make_publication(message_id=message_id), now=float(message_id)
            )
        report = cbc.report(BrokerSpec("b0", 100.0), now=10.0)
        publisher = report.publishers[0]
        # 10 messages between t=1 and t=10 → ~1.1 msg/s measured.
        assert publisher.publication_rate == pytest.approx(10 / 9, rel=0.01)
        assert publisher.bandwidth == pytest.approx(0.5 * 10 / 9, rel=0.01)
        assert publisher.last_message_id == 10

    def test_unknown_subscription_delivery_ignored(self):
        cbc = CrocBackendComponent("b0")
        cbc.record_deliveries(make_publication(), ["ghost"])  # must not raise

    def test_unregister_drops_profile(self):
        cbc = CrocBackendComponent("b0")
        from repro.pubsub.message import Subscription
        from repro.pubsub.predicate import parse_predicates

        subscription = Subscription(
            "s1", "s1", parse_predicates([("symbol", "=", "YHOO")])
        )
        cbc.register_subscription(subscription)
        cbc.unregister_subscription("s1")
        report = cbc.report(BrokerSpec("b0", 100.0), now=1.0)
        assert report.subscriptions == []

    def test_reset_forgets_everything(self):
        cbc = CrocBackendComponent("b0")
        cbc.on_local_publication(make_publication(), now=1.0)
        cbc.reset()
        report = cbc.report(BrokerSpec("b0", 100.0), now=2.0)
        assert report.publishers == []


class TestGatherProtocol:
    def test_gather_collects_every_broker(self):
        network = make_network(4)
        network.attach_subscriber(make_subscriber("s1"), "b3")
        network.attach_publisher(make_publisher(), "b0")
        network.run(3.0)
        croc = Croc(allocator_factory=BinPackingAllocator)
        gathered = croc.gather(network)
        assert len(gathered.broker_pool) == 4
        assert {spec.broker_id for spec in gathered.broker_pool} == {
            "b0", "b1", "b2", "b3",
        }

    def test_gather_returns_profiled_subscriptions(self):
        network = make_network(3)
        network.attach_subscriber(make_subscriber("s1"), "b2")
        network.attach_publisher(make_publisher(rate=20.0), "b0")
        network.run(3.0)
        gathered = Croc(allocator_factory=BinPackingAllocator).gather(network)
        assert gathered.subscription_count == 1
        record = gathered.records[0]
        assert record.home_broker == "b2"
        assert record.profile.cardinality > 10

    def test_gather_builds_global_directory(self):
        network = make_network(3)
        network.attach_subscriber(make_subscriber("s1"), "b2")
        network.attach_publisher(make_publisher(rate=10.0), "b0")
        network.run(3.0)
        gathered = Croc(allocator_factory=BinPackingAllocator).gather(network)
        assert "adv-YHOO" in gathered.directory
        publisher = gathered.directory["adv-YHOO"]
        assert publisher.publication_rate == pytest.approx(10.0, rel=0.2)

    def test_gather_via_specific_broker(self):
        network = make_network(3)
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        gathered = Croc(allocator_factory=BinPackingAllocator).gather(
            network, via_broker="b2"
        )
        assert len(gathered.broker_pool) == 3

    def test_gather_empty_network_raises(self):
        croc = Croc(allocator_factory=BinPackingAllocator)
        with pytest.raises(ReconfigurationError):
            croc.gather(PubSubNetwork())

    @pytest.mark.parametrize("seed", [1, 4])
    def test_lost_bir_is_retried_when_only_deliveries_remain(self, seed):
        """The gather loop stays live while publications are still on
        their way to subscribers, although they are no longer events:
        with the feed exhausted and the BIR lost, it waits out the
        attempt exactly as the one-event-per-delivery schedule does."""
        spec = make_spec("b0", bandwidth=10.0)
        outcomes = []
        for network_class in (PerDeliveryNetwork, PubSubNetwork):
            network = network_class(profile_capacity=64)
            network.add_broker(spec)
            network.install_faults(FaultPlan(loss_rate=0.4), seed=seed)
            for index in range(20):
                network.attach_subscriber(make_subscriber(f"s{index}"), "b0")
            quotes = iter([{"class": "STOCK", "symbol": "YHOO", "low": 1.0 + i,
                            "volume": 10} for i in range(30)])
            network.attach_publisher(make_publisher(rate=100.0, quotes=quotes), "b0")
            network.run(1.0)  # feed exhausted, ~20 s of copies queued
            assert network.deliveries_in_flight > 100
            gathered = Croc(allocator_factory=BinPackingAllocator).gather(
                network, timeout=1.0)
            outcomes.append((gathered.attempts, network.sim.now))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] > 1, "the BIR was never lost: pick another seed"

    def test_gather_single_broker(self):
        network = make_network(1)
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        gathered = Croc(allocator_factory=BinPackingAllocator).gather(network)
        assert len(gathered.broker_pool) == 1


class TestReconfigure:
    def test_full_pipeline_produces_live_deployment(self):
        network = make_network(4, bandwidth=100.0)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b3")
        network.attach_publisher(make_publisher(rate=20.0), "b0")
        network.run(4.0)
        croc = Croc(allocator_factory=BinPackingAllocator)
        report = croc.reconfigure(network)
        assert report.allocated_brokers < 4
        delivered_before = subscriber.delivered
        network.run(2.0)
        assert subscriber.delivered > delivered_before  # still flowing

    def test_publisher_relocated_to_subscriber_broker(self):
        network = make_network(4, bandwidth=100.0)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b3")
        publisher = make_publisher(rate=20.0)
        network.attach_publisher(publisher, "b0")
        network.run(4.0)
        croc = Croc(allocator_factory=BinPackingAllocator)
        report = croc.reconfigure(network)
        # GRAPE (load mode) pulls the publisher onto the broker hosting
        # its only subscriber.
        assert publisher.broker_id == report.deployment.subscription_placement["s1"]

    def test_reconfiguration_failure_when_pool_cannot_fit(self):
        network = make_network(2, bandwidth=0.001)
        network.attach_subscriber(make_subscriber("s1"), "b1")
        network.attach_publisher(make_publisher(rate=50.0), "b0")
        network.run(4.0)
        croc = Croc(allocator_factory=BinPackingAllocator)
        with pytest.raises(ReconfigurationError):
            croc.reconfigure(network)
