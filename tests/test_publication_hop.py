"""The publication hop: what it computes once and what it must still check.

* :class:`Publication` is a slotted class, immutable by contract; a hop
  copy shares the attribute dict and the attribute-name tuple.
* A broker reuses a message's matching service time while its routing
  table keeps its size; every delay sample it records is still the
  delay function at the table size the message arrived to.
* A message that waits behind a broker's matching CPU when the broker
  crashes is dropped and counted, publications included, and so is one
  on the wire to it: both belong to the crashed process's epoch, even
  when the broker has recovered by the time their turn comes.
* A redeploy is not a crash: a publication queued behind a broker's CPU
  when the new overlay is applied is handled by the reset broker, against
  the routing state it holds by then.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import BrokerSpec, MatchingDelayFunction
from repro.core.deployment import BrokerTree, Deployment
from repro.pubsub.delay_estimation import DelayModelEstimator
from repro.pubsub.message import Publication
from repro.pubsub.network import PubSubNetwork
from repro.sim.faults import FaultPlan

from conftest import ConservationWatch
from test_broker_routing import make_network, make_publisher, make_subscriber

QUOTE = {"class": "STOCK", "symbol": "YHOO", "low": 10.0, "volume": 100}


class TestPublicationContract:
    def test_slotted_without_instance_dict(self):
        publication = Publication("adv-YHOO", 1, dict(QUOTE), 0.0, 0.5)
        assert "__slots__" in Publication.__dict__
        assert not hasattr(publication, "__dict__")
        with pytest.raises(AttributeError):
            publication.extra = 1  # type: ignore[attr-defined]

    def test_attribute_names_built_once_at_publish_time(self):
        publication = Publication("adv-YHOO", 1, dict(QUOTE), 0.0, 0.5)
        assert publication.attribute_names == ("class", "symbol", "low", "volume")

    def test_hopped_adds_one_hop_and_shares_the_payload(self):
        original = Publication("adv-YHOO", 7, dict(QUOTE), 1.25, 0.5)
        first = original.hopped()
        second = first.hopped()
        assert (original.hops, first.hops, second.hops) == (0, 1, 2)
        for copy in (first, second):
            assert copy is not original
            assert copy.attributes is original.attributes
            assert copy.attribute_names is original.attribute_names
            assert (copy.adv_id, copy.message_id, copy.publish_time,
                    copy.size_kb) == ("adv-YHOO", 7, 1.25, 0.5)
        assert original.hops == 0
        assert original.attributes == QUOTE

    def test_equality_is_field_wise(self):
        def make(**changes):
            fields = dict(adv_id="adv-YHOO", message_id=1,
                          attributes=dict(QUOTE), publish_time=0.0,
                          size_kb=0.5, hops=0)
            fields.update(changes)
            return Publication(**fields)

        assert make() == make()
        assert make(hops=1) == make().hopped()
        for changes in ({"adv_id": "adv-MSFT"}, {"message_id": 2},
                        {"attributes": {**QUOTE, "low": 11.0}},
                        {"publish_time": 0.5}, {"size_kb": 1.0}, {"hops": 1}):
            assert make(**changes) != make(), changes
        assert make() != ("adv-YHOO", 1, dict(QUOTE), 0.0, 0.5, 0)
        with pytest.raises(TypeError):
            hash(make())


def _slow_broker_network() -> PubSubNetwork:
    """One broker whose matching CPU takes a whole second per message."""
    network = PubSubNetwork(profile_capacity=64)
    network.add_broker(BrokerSpec(
        broker_id="b0", total_output_bandwidth=1000.0,
        delay_function=MatchingDelayFunction(base=1.0, per_subscription=0.0),
    ))
    return network


class TestCrashInQueue:
    """A subscription, then a publication it matches, queue behind the
    CPU; the broker crashes before either is processed."""

    def _run(self, crash: bool, recover: bool = False):
        network = _slow_broker_network()
        injector = network.install_faults(FaultPlan())
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b0")  # done at ~1.0 s
        publication = Publication("adv-YHOO", 1, dict(QUOTE), 0.0, 0.5)
        network.client_send("pub-YHOO", "b0", publication, 0.5)  # ~2.0 s
        network.run(0.5)
        if crash:
            injector.crash_now("b0")
        if recover:
            network.run(0.1)
            injector.recover_now("b0")  # before either message's turn
        network.run(5.0)
        return network, subscriber

    def test_without_a_crash_the_publication_is_delivered(self):
        network, subscriber = self._run(crash=False)
        assert subscriber.delivered == 1
        summary = network.metrics.summary(1, network.active_brokers)
        assert summary.messages_lost == 0

    def test_crash_drops_both_queued_messages(self):
        network, subscriber = self._run(crash=True)
        assert subscriber.delivered == 0
        assert network.delivery_log == []
        broker = network.brokers["b0"]
        assert broker.srt_size == 0  # the queued subscription never landed
        summary = network.metrics.summary(1, network.active_brokers)
        assert summary.messages_lost == 2
        assert summary.publications_lost == 1
        assert network.metrics.counters("b0").publications_out == 0

    def test_recovery_before_their_turn_still_drops_both(self):
        """The recovered broker is a new process: the messages queued in
        the dead one do not run in it."""
        network, subscriber = self._run(crash=True, recover=True)
        assert subscriber.delivered == 0
        assert network.delivery_log == []
        assert network.brokers["b0"].srt_size == 0
        summary = network.metrics.summary(1, network.active_brokers)
        assert summary.messages_lost == 2
        assert summary.publications_lost == 1
        assert summary.broker_recoveries == 1


class TestAcrossARedeploy:
    """Three publications queue behind the CPU (turns at ~2.6, 3.6 and
    4.6 s) after the subscription landed; the overlay is re-applied at
    1.6 s, which replays the subscription into the reset broker (lands at
    ~2.6 s, behind the first publication)."""

    def _run(self, redeploy: bool):
        network = _slow_broker_network()
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b0")  # lands at ~1.0 s
        network.run(1.5)
        for message_id in (1, 2, 3):
            publication = Publication("adv-YHOO", message_id, dict(QUOTE), 1.5, 0.5)
            network.client_send("pub-YHOO", "b0", publication, 0.5)
        network.run(0.1)
        if redeploy:
            network.apply_deployment(Deployment(BrokerTree("b0"), {"s1": "b0"}))
        network.run(5.0)
        return network, subscriber

    def test_without_a_redeploy_all_three_are_delivered(self):
        network, subscriber = self._run(redeploy=False)
        assert subscriber.delivered == 3

    def test_queued_publications_survive_and_meet_the_new_routing_state(self):
        network, subscriber = self._run(redeploy=True)
        # Nothing is dropped: the reset broker handles all three.  The
        # first finds the reset table empty; the replayed subscription
        # has landed before the other two.
        summary = network.metrics.summary(1, network.active_brokers)
        assert summary.messages_lost == 0
        assert network.brokers["b0"].srt_size == 1
        assert subscriber.delivered == 2
        assert network.metrics.counters("b0").publications_out == 2


class TestCrashInFlight:
    """One publication, forwarded b0 → b1 over a 0.5 s link, is on the
    wire when b1 crashes."""

    def _run(self, crash: bool, recover: bool):
        network = make_network(2)
        network.link_latency = 0.5
        injector = network.install_faults(FaultPlan())
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b1")
        network.attach_publisher(make_publisher(rate=0.1, quotes=iter([QUOTE])), "b0")
        network.run(10.7)  # published at 10 s, at b0 by 10.5 s, at b1 at ~11 s
        if crash:
            injector.crash_now("b1")
        if recover:
            network.run(0.1)
            injector.recover_now("b1")
        network.run(5.0)
        return network, subscriber

    def test_without_a_crash_it_is_delivered(self):
        network, subscriber = self._run(crash=False, recover=False)
        assert subscriber.delivered == 1
        assert network.metrics.summary(1, network.active_brokers).messages_lost == 0

    @pytest.mark.parametrize("recover", [False, True], ids=["down", "recovered"])
    def test_arriving_at_the_next_process_it_is_dropped(self, recover):
        network, subscriber = self._run(crash=True, recover=recover)
        assert subscriber.delivered == 0
        summary = network.metrics.summary(1, network.active_brokers)
        assert summary.messages_lost == summary.publications_lost == 1


def _watch_epochs(network):
    """Wrap every broker's two queue handlers.  A message queued in an
    earlier epoch must be dropped and counted, and change nothing else;
    the stale messages seen are returned."""
    stale = []
    metrics = network.metrics
    for broker in network.brokers.values():
        for name in ("_process", "_handle_publication"):

            def watched(message, source, epoch, broker=broker,
                        handler=getattr(broker, name)):
                if epoch == broker.epoch:
                    return handler(message, source, epoch)
                state = (broker.srt_size, len(network.delivery_log), broker._out_free_at)
                lost = metrics._messages_lost
                handler(message, source, epoch)
                assert metrics._messages_lost == lost + 1
                assert (broker.srt_size, len(network.delivery_log),
                        broker._out_free_at) == state
                stale.append(message)

            setattr(broker, name, watched)
    return stale


@settings(max_examples=30)
@given(target=st.sampled_from(["b0", "b1", "b2"]),
       crash_at=st.floats(0.0, 5.0), down_for=st.floats(0.0, 1.5))
def test_crash_and_recovery_on_a_chain_conserve_deliveries(target, crash_at, down_for):
    """Publisher at b0, subscriber at b2, 0.25 s of matching per message:
    wherever and whenever one broker crashes and recovers, no message
    runs in a later epoch than it was queued in, and every copy sent to
    the subscriber is delivered, lost or in flight at each run boundary."""
    network = PubSubNetwork(profile_capacity=64)
    for index in range(3):
        network.add_broker(BrokerSpec(
            broker_id=f"b{index}", total_output_bandwidth=1000.0,
            delay_function=MatchingDelayFunction(base=0.25, per_subscription=0.0),
        ))
    network.connect_brokers("b0", "b1")
    network.connect_brokers("b1", "b2")
    injector = network.install_faults(FaultPlan())
    watch = ConservationWatch(network)
    _watch_epochs(network)
    network.attach_subscriber(make_subscriber("s1"), "b2")
    quotes = iter([{**QUOTE, "low": 10.0 + index} for index in range(12)])
    network.attach_publisher(make_publisher(rate=2.0, quotes=quotes), "b0")
    network.run(crash_at)
    injector.crash_now(target)
    network.run(down_for)
    injector.recover_now(target)
    network.run(12.0)
    assert watch.checked == 3


class _CheckedEstimator(DelayModelEstimator):
    """Records, beside every sample, what the sample should have been:
    the table size the message arrived to and the delay at that size."""

    def __init__(self, broker):
        super().__init__()
        self._broker = broker
        self.observed = []

    def record(self, table_size, service_time):
        entries = sum(1 for _entry in self._broker._srt.entries())
        expected = (entries, self._broker.spec.delay_function.delay(entries))
        self.observed.append(((table_size, service_time), expected))
        super().record(table_size, service_time)


class TestServiceTimeReuse:
    def test_every_sample_is_the_delay_at_the_arrival_table_size(self):
        network = make_network(3)
        estimators = {}
        for broker_id, broker in network.brokers.items():
            broker.delay_estimator = estimators[broker_id] = _CheckedEstimator(broker)
        first = make_subscriber("s1")
        second = make_subscriber("s2", extra=[("low", ">", 5.0)])
        network.attach_subscriber(first, "b2")
        network.attach_subscriber(second, "b1")
        network.attach_publisher(make_publisher(rate=40.0), "b0")
        network.run(1.0)
        first.unsubscribe("s1")
        network.run(1.0)
        tree = BrokerTree("b1")
        tree.add_broker("b2", "b1")
        network.apply_deployment(Deployment(
            tree=tree,
            subscription_placement={"s2": "b2"},
            publisher_placement={"adv-YHOO": "b1"},
            approach="test",
        ))
        network.run(1.0)
        network.brokers["b2"].reset()
        network.run(1.0)
        assert second.delivered > 0
        sizes = set()
        for estimator in estimators.values():
            assert estimator.observed
            for recorded, expected in estimator.observed:
                assert recorded == expected
                sizes.add(recorded[0])
        # The table sizes moved up and down, so a cache keyed on
        # anything but the size would have recorded a stale delay.
        assert len(sizes) >= 3
