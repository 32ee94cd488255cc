"""Tests for subscriber churn under continuous reconfiguration."""

import pytest

from repro.core.cram import CramAllocator
from repro.core.croc import Croc
from repro.experiments.continuous import ContinuousReconfigurator, SubscriberChurn
from repro.sim.rng import SeededRng

from per_delivery_oracle import small_churn_online
from test_continuous import deployed_network


class TestSubscriberChurn:
    def test_rejects_bad_fractions(self):
        _s, network = deployed_network()
        with pytest.raises(ValueError):
            SubscriberChurn(network, SeededRng(0), leave_fraction=1.5)
        with pytest.raises(ValueError):
            SubscriberChurn(network, SeededRng(0), rejoin_fraction=-0.1)

    def test_leavers_detach_and_are_marked(self):
        _s, network = deployed_network()
        churn = SubscriberChurn(network, SeededRng(1), leave_fraction=0.5,
                                rejoin_fraction=0.0)
        churn(0)
        assert churn.left_total > 0
        departed = [
            subscriber
            for subscriber in network.subscribers.values()
            if subscriber.departed
        ]
        assert len(departed) == churn.left_total
        assert all(subscriber.broker_id is None for subscriber in departed)

    def test_never_empties_the_system(self):
        _s, network = deployed_network()
        churn = SubscriberChurn(network, SeededRng(1), leave_fraction=1.0,
                                rejoin_fraction=0.0)
        churn(0)
        attached = [
            subscriber
            for subscriber in network.subscribers.values()
            if subscriber.broker_id is not None
        ]
        assert attached

    def test_rejoiners_reattach_on_active_brokers(self):
        _s, network = deployed_network()
        churn = SubscriberChurn(network, SeededRng(2), leave_fraction=0.6,
                                rejoin_fraction=1.0)
        churn(0)  # some leave
        left = churn.left_total
        churn.leave_fraction = 0.0  # next cycle: pure rejoin
        churn(1)
        assert churn.rejoined_total == left
        assert not any(s.departed for s in network.subscribers.values())

    def test_departed_stay_out_across_reconfigurations(self):
        scenario, network = deployed_network()
        churn = SubscriberChurn(network, SeededRng(3), leave_fraction=0.4,
                                rejoin_fraction=0.0)
        croc = Croc(allocator_factory=lambda: CramAllocator(metric="ios"))
        loop = ContinuousReconfigurator(
            croc,
            profiling_time=scenario.derived_profiling_time(),
            measurement_time=10.0,
            on_cycle_start=churn,
        )
        loop.run(network, cycles=2)
        departed = [
            subscriber
            for subscriber in network.subscribers.values()
            if subscriber.departed
        ]
        assert departed
        assert all(subscriber.broker_id is None for subscriber in departed)

    def test_churned_pool_shrinks_croc_input(self):
        scenario, network = deployed_network()
        croc = Croc(allocator_factory=lambda: CramAllocator(metric="ios"))
        network.run(scenario.derived_profiling_time())
        full = croc.gather(network).subscription_count
        churn = SubscriberChurn(network, SeededRng(4), leave_fraction=0.5,
                                rejoin_fraction=0.0)
        churn(0)
        network.run(scenario.derived_profiling_time())
        reduced = croc.gather(network).subscription_count
        assert reduced < full

    def test_rejoined_subscribers_receive_again(self):
        scenario, network = deployed_network()
        croc = Croc(allocator_factory=lambda: CramAllocator(metric="ios"))
        rng = SeededRng(5)
        churn = SubscriberChurn(network, rng, leave_fraction=0.5,
                                rejoin_fraction=1.0)
        loop = ContinuousReconfigurator(
            croc,
            profiling_time=scenario.derived_profiling_time(),
            measurement_time=15.0,
            on_cycle_start=churn,
        )
        loop.run(network, cycles=3)  # leave, rejoin, settle
        # Everyone who is attached with a full-template subscription
        # should be receiving by the last cycle.
        before = {
            s.client_id: s.delivered
            for s in network.subscribers.values()
            if s.broker_id is not None
            and all(len(sub.predicates) == 2 for sub in s.subscriptions)
        }
        network.run(30.0)
        for client_id, count in before.items():
            assert network.subscribers[client_id].delivered > count


def test_delivery_backlog_grows_cycle_over_cycle():
    """A recording, not a bound (ROADMAP item 2 owes the verdict): under
    ``churn_online``-shaped load the deliveries still in flight when a
    cycle ends are not zero and keep growing, which is where the 10 s
    delivery delays come from.  Delivery rate stays 1.0 throughout."""
    reports, network, backlog = small_churn_online(cycles=4)
    assert len(backlog) == 4
    assert all(later > earlier for earlier, later in zip(backlog, backlog[1:]))
    assert backlog[-1] > 1000
    assert reports[-1].summary.mean_delivery_delay > 5.0
    assert all(report.summary.delivery_rate == 1.0 for report in reports)
    # Conservation is checked in the windows that opened empty and skipped
    # in those the backlog above carried into.
    assert network.watch.checked and network.watch.skipped
