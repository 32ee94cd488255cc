"""Tests for PubSubNetwork wiring and deployment execution."""

import pytest

from repro.core.deployment import BrokerTree, Deployment
from repro.obs.collect import network_counters
from repro.pubsub.network import SETTLE_FLOOR

from test_broker_routing import make_network, make_publisher, make_subscriber


class TestWiring:
    def test_duplicate_broker_rejected(self):
        network = make_network(2)
        with pytest.raises(ValueError):
            network.add_broker(network.brokers["b0"].spec)

    def test_self_link_rejected(self):
        network = make_network(2)
        with pytest.raises(ValueError):
            network.connect_brokers("b0", "b0")

    def test_links_listing(self):
        network = make_network(3)
        assert network.links == [("b0", "b1"), ("b1", "b2")]

    def test_disconnect_all(self):
        network = make_network(3)
        network.disconnect_all()
        assert network.links == []
        assert not network.brokers["b1"].neighbors

    def test_broker_pool(self):
        network = make_network(3)
        assert {spec.broker_id for spec in network.broker_pool()} == {"b0", "b1", "b2"}

    def test_active_brokers_default_all(self):
        network = make_network(3)
        assert sorted(network.active_brokers) == ["b0", "b1", "b2"]


class TestClientAttachment:
    def test_double_attach_rejected(self):
        network = make_network(2)
        publisher = make_publisher()
        network.attach_publisher(publisher, "b0")
        with pytest.raises(ValueError):
            network.attach_publisher(publisher, "b1")

    def test_detach_then_reattach(self):
        network = make_network(2)
        publisher = make_publisher()
        network.attach_publisher(publisher, "b0")
        network.detach_all_clients()
        assert publisher.broker_id is None
        network.attach_publisher(publisher, "b1")
        assert publisher.broker_id == "b1"

    def test_publisher_message_ids_survive_reattach(self):
        network = make_network(2)
        publisher = make_publisher(rate=10.0)
        network.attach_publisher(publisher, "b0")
        network.run(1.0)
        published_before = publisher.published
        assert published_before > 0
        network.detach_all_clients()
        network.attach_publisher(publisher, "b1")
        network.run(1.0)
        assert publisher.published > published_before
        assert publisher._next_message_id == publisher.published + 1


class TestApplyDeployment:
    def _deployment(self, subscriber_broker, publisher_broker):
        tree = BrokerTree("b0")
        tree.add_broker("b1", "b0")
        return Deployment(
            tree=tree,
            subscription_placement={"s1": subscriber_broker},
            publisher_placement={"adv-YHOO": publisher_broker},
            approach="test",
        )

    def test_clients_move_to_assigned_brokers(self):
        network = make_network(3)
        subscriber = make_subscriber("s1")
        publisher = make_publisher()
        network.attach_subscriber(subscriber, "b2")
        network.attach_publisher(publisher, "b2")
        network.run(0.5)
        network.apply_deployment(self._deployment("b1", "b0"))
        assert subscriber.broker_id == "b1"
        assert publisher.broker_id == "b0"
        network.run(1.0)
        assert subscriber.delivered > 0

    def test_active_brokers_follow_deployment(self):
        network = make_network(3)
        network.apply_deployment(self._deployment("b0", "b0"))
        assert sorted(network.active_brokers) == ["b0", "b1"]

    def test_links_rewired_to_tree(self):
        network = make_network(3)
        network.apply_deployment(self._deployment("b0", "b0"))
        assert network.links == [("b0", "b1")]

    def test_unplaced_subscriber_falls_back_to_root(self):
        network = make_network(3)
        subscriber = make_subscriber("s-unplanned")
        network.attach_subscriber(subscriber, "b2")
        network.apply_deployment(self._deployment("b1", "b0"))
        assert subscriber.broker_id == "b0"

    def test_unplaced_publisher_falls_back_to_root(self):
        network = make_network(3)
        publisher = make_publisher("MSFT")
        network.attach_publisher(publisher, "b2")
        network.apply_deployment(self._deployment("b1", "b0"))
        assert publisher.broker_id == "b0"

    def test_traffic_flows_after_two_redeployments(self):
        network = make_network(3)
        subscriber = make_subscriber("s1")
        publisher = make_publisher()
        network.attach_subscriber(subscriber, "b0")
        network.attach_publisher(publisher, "b1")
        network.run(1.0)
        network.apply_deployment(self._deployment("b1", "b0"))
        network.run(1.0)
        first = subscriber.delivered
        network.apply_deployment(self._deployment("b0", "b1"))
        network.run(1.0)
        assert subscriber.delivered > first


class TestDeliveryLog:
    """Client deliveries are logged, not scheduled; readers settle first."""

    def _fanout_network(self, subscribers=6, bandwidth=20.0, rate=10.0):
        # 0.5 kB copies at 20 kB/s serialize 25 ms apart, so one fan-out
        # of six spreads over 150 ms and straddles most boundaries.
        network = make_network(1, bandwidth=bandwidth)
        for index in range(subscribers):
            network.attach_subscriber(make_subscriber(f"s{index}"), "b0")
        network.attach_publisher(make_publisher(rate=rate), "b0")
        return network

    def _summary(self, network):
        return network.metrics.summary(1, ["b0"], {"b0": 20.0})

    def test_readers_settle_however_the_clock_was_driven(self):
        reference, direct = self._fanout_network(), self._fanout_network()
        reference.run(1.03)
        for until in (0.31, 0.52, 0.77, 1.03):  # never through network.run
            direct.sim.run(until=until)
        assert direct.delivery_log  # some deliveries were still unsettled
        expected = self._summary(reference)
        assert expected.delivery_count > 20
        assert network_counters(direct)["metrics.deliveries"] == expected.delivery_count
        assert self._summary(direct) == expected
        assert direct.metrics._delay_sum == reference.metrics._delay_sum
        assert (sum(s.delivered for s in direct.subscribers.values())
                == expected.delivery_count)

    def test_arrived_deliveries_do_not_leak_into_the_next_window(self):
        reference, direct = self._fanout_network(), self._fanout_network()
        reference.run(1.03)
        direct.sim.run(until=1.03)
        for network in (reference, direct):
            network.metrics.reset_window()
        assert self._summary(direct).delivery_count == 0
        assert direct.metrics._delay_sum == 0.0
        reference.run(0.5)
        direct.sim.run(until=direct.sim.now + 0.5)
        assert self._summary(direct) == self._summary(reference)

    def test_deliveries_in_flight_counts_what_has_not_arrived(self):
        network = self._fanout_network(rate=1.0)
        network.run(1.05)  # the one fan-out so far started at t ~ 1.0005
        delivered = network.metrics.delivery_count
        assert 0 < delivered < 6
        assert network.deliveries_in_flight == 6 - delivered
        network.run(0.5)
        assert network.deliveries_in_flight == 0
        assert network.metrics.delivery_count == 6

    def test_log_stays_bounded_over_a_long_window(self):
        """At constant load the log never holds more than a small
        multiple of what is in flight: the fan-out loop settles it."""
        network = self._fanout_network(subscribers=10, bandwidth=1000.0,
                                       rate=100.0)
        high_water = 0

        class Log(list):
            def append(self, entry):
                nonlocal high_water
                super().append(entry)
                high_water = max(high_water, len(self))

        network.delivery_log = Log()
        network.run(25.0)
        assert network.metrics.delivery_count > 40 * SETTLE_FLOOR
        assert network.deliveries_in_flight <= 10
        assert high_water < SETTLE_FLOOR + 10
