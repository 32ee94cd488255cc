"""Integration tests for broker routing on small live overlays."""

import pytest

from repro.core.capacity import BrokerSpec, MatchingDelayFunction
from repro.pubsub.client import PublisherClient, SubscriberClient
from repro.pubsub.message import Publication, Subscription
from repro.pubsub.network import PubSubNetwork
from repro.pubsub.predicate import parse_predicates
from repro.workloads.stocks import stock_advertisement


def make_network(broker_count=3, bandwidth=1000.0):
    network = PubSubNetwork(profile_capacity=64)
    for index in range(broker_count):
        network.add_broker(
            BrokerSpec(
                broker_id=f"b{index}",
                total_output_bandwidth=bandwidth,
                delay_function=MatchingDelayFunction(base=1e-5, per_subscription=1e-8),
            )
        )
    for index in range(broker_count - 1):
        network.connect_brokers(f"b{index}", f"b{index + 1}")
    return network


def make_publisher(symbol="YHOO", rate=10.0, quotes=None):
    if quotes is None:
        quotes = iter(
            {"class": "STOCK", "symbol": symbol, "low": 10.0 + i, "volume": 100 + i}
            for i in range(10**6)
        )
    return PublisherClient(
        client_id=f"pub-{symbol}",
        advertisement=stock_advertisement(symbol),
        feed=quotes,
        rate=rate,
        size_kb=0.5,
    )


def make_subscriber(name, symbol="YHOO", extra=(), keep_history=True):
    predicates = parse_predicates(
        [("class", "=", "STOCK"), ("symbol", "=", symbol), *extra]
    )
    subscription = Subscription(sub_id=name, subscriber_id=name, predicates=predicates)
    return SubscriberClient(name, [subscription], keep_history=keep_history)


class TestEndToEndDelivery:
    def test_same_broker_delivery(self):
        network = make_network(1)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b0")
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        assert subscriber.delivered > 0

    def test_delivery_across_chain(self):
        network = make_network(3)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b2")
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        assert subscriber.delivered > 0
        assert all(record.hops == 2 for record in subscriber.history)

    def test_subscription_before_advertisement_still_routes(self):
        """Order independence: sub first, then adv floods to it."""
        network = make_network(3)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b2")
        network.run(0.5)  # subscription settles with no adv anywhere
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        assert subscriber.delivered > 0

    def test_non_matching_subscriber_gets_nothing(self):
        network = make_network(2)
        subscriber = make_subscriber("s1", symbol="MSFT")
        network.attach_subscriber(subscriber, "b1")
        network.attach_publisher(make_publisher("YHOO"), "b0")
        network.run(1.0)
        assert subscriber.delivered == 0

    def test_inequality_filtering(self):
        network = make_network(2)
        all_sub = make_subscriber("all")
        low_sub = make_subscriber("low", extra=[("low", "<", 12.0)])
        network.attach_subscriber(all_sub, "b1")
        network.attach_subscriber(low_sub, "b1")
        network.attach_publisher(make_publisher(), "b0")  # low = 10, 11, 12, ...
        network.run(1.0)
        assert all_sub.delivered > low_sub.delivered > 0

    def test_publication_not_sent_to_empty_branches(self):
        """Brokers with no matching subscribers never see publications."""
        network = make_network(3)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b0")  # same broker as publisher
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        counters_b2 = network.metrics.counters("b2")
        assert counters_b2.publications_in == 0

    def test_delivery_delay_positive_and_bounded(self):
        network = make_network(3)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b2")
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        delays = [record.delay for record in subscriber.history]
        assert all(delay > 0 for delay in delays)
        assert max(delays) < 0.5  # ample headroom at this tiny load

    def test_two_publishers_two_symbols(self):
        network = make_network(3)
        yhoo = make_subscriber("sy", "YHOO")
        msft = make_subscriber("sm", "MSFT")
        network.attach_subscriber(yhoo, "b0")
        network.attach_subscriber(msft, "b2")
        network.attach_publisher(make_publisher("YHOO"), "b1")
        network.attach_publisher(make_publisher("MSFT"), "b1")
        network.run(1.0)
        assert yhoo.delivered > 0
        assert msft.delivered > 0
        assert {r.adv_id for r in yhoo.history} == {"adv-YHOO"}
        assert {r.adv_id for r in msft.history} == {"adv-MSFT"}


class TestForwardingLinks:
    """Per-link forwarding decisions of the route-grouped SRT."""

    def test_never_forwarded_back_over_the_arrival_link(self):
        """b1 holds YHOO routes toward *both* neighbours (a second YHOO
        publisher sits behind b2, so b0's subscription is routed through
        b1 too); a publication arriving from b0 must leave only to b2."""
        network = make_network(3)
        near = make_subscriber("near")   # at the first publisher's broker
        far = make_subscriber("far")
        network.attach_subscriber(near, "b0")
        network.attach_subscriber(far, "b2")
        network.attach_publisher(make_publisher(), "b0")
        network.attach_publisher(
            PublisherClient(
                client_id="pub-2",
                advertisement=stock_advertisement(
                    "YHOO", adv_id="adv-2", publisher_id="pub-2"),
                feed=iter({"class": "STOCK", "symbol": "YHOO", "low": 5.0}
                          for _ in range(10**6)),
                rate=10.0,
                size_kb=0.5,
            ),
            "b2",
        )
        network.run(2.0)
        for subscriber, local, remote in ((near, "adv-YHOO", "adv-2"),
                                          (far, "adv-2", "adv-YHOO")):
            hops = {}
            for record in subscriber.history:
                hops.setdefault(record.adv_id, []).append(record.hops)
            assert hops[local] and set(hops[local]) == {0}
            assert hops[remote] and set(hops[remote]) == {2}
            seen = [(r.adv_id, r.message_id) for r in subscriber.history]
            assert len(seen) == len(set(seen))  # a bounce would duplicate

    def test_link_selected_by_a_later_subscription(self):
        """The neighbour's first subscription never matches; the
        publication must still be forwarded for its second one."""
        network = make_network(2)
        never = make_subscriber("never", extra=[("low", ">", 10.0**9)])
        always = make_subscriber("always", extra=[("low", "<", 10.0**9)])
        network.attach_subscriber(never, "b1")
        network.run(0.5)
        network.attach_subscriber(always, "b1")
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        assert network.brokers["b0"].srt_size == 2
        assert never.delivered == 0
        assert always.delivered > 0


class TestBandwidthLimiter:
    def test_throttled_broker_delays_delivery(self):
        fast = make_network(2, bandwidth=10000.0)
        slow = make_network(2, bandwidth=5.0)  # 0.1 s per 0.5 kB message
        for network in (fast, slow):
            subscriber = make_subscriber(f"s-{id(network)}")
            network.attach_subscriber(subscriber, "b1")
            network.attach_publisher(make_publisher(rate=20.0), "b0")
            network.run(2.0)
            network._last_sub = subscriber  # stash for assertions
        fast_delay = max(r.delay for r in fast._last_sub.history)
        slow_delay = max(r.delay for r in slow._last_sub.history)
        assert slow_delay > fast_delay * 5

    def test_bytes_accounted(self):
        network = make_network(2)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b1")
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        assert network.metrics.counters("b0").bytes_out_kb > 0


class TestMatchingDelay:
    def test_cpu_queue_orders_processing(self):
        """A slow-matching broker serializes its message processing."""
        network = PubSubNetwork(profile_capacity=64)
        network.add_broker(
            BrokerSpec(
                "slow",
                total_output_bandwidth=10000.0,
                delay_function=MatchingDelayFunction(base=0.02, per_subscription=0.0),
            )
        )
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "slow")
        network.attach_publisher(make_publisher(rate=100.0), "slow")
        network.run(1.0)
        # 100 msg/s against a 50 msg/s matcher: deliveries lag behind.
        delays = [record.delay for record in subscriber.history]
        assert delays[-1] > delays[0]


class TestReset:
    def test_reset_clears_routing_state(self):
        network = make_network(2)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b1")
        network.attach_publisher(make_publisher(), "b0")
        network.run(1.0)
        broker = network.brokers["b0"]
        assert broker.srt_size > 0
        broker.reset()
        assert broker.srt_size == 0
        assert not broker.neighbors
