"""Fault injection, robust gather, and degraded-mode reconfiguration.

Covers the :class:`~repro.sim.faults.FaultPlan` data model, the
:class:`~repro.pubsub.faults.FaultInjector` runtime semantics (crash,
recover, link failure, loss, jitter), CROC's per-broker gather timeout
with retry/backoff and partial-gather planning from cached profiles,
and the rollback paths of :meth:`Croc.reconfigure`.  The empty-plan
bit-identity contract lives in ``test_fault_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.core.binpacking import BinPackingAllocator
from repro.core.croc import Croc, ReconfigurationError
from repro.core.deployment import BrokerTree, Deployment
from repro.experiments.continuous import ContinuousReconfigurator
from repro.sim.faults import CRASH, FaultEvent, FaultPlan, LINK_DOWN, RECOVER
from repro.sim.rng import SeededRng

from test_broker_routing import make_network, make_publisher, make_subscriber


# ----------------------------------------------------------------------
# FaultEvent / FaultPlan: pure data
# ----------------------------------------------------------------------
class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(1.0, "meteor", ("b0",))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultEvent(-1.0, CRASH, ("b0",))

    def test_arity_enforced(self):
        with pytest.raises(ValueError, match="1 endpoint"):
            FaultEvent(0.0, CRASH, ("b0", "b1"))
        with pytest.raises(ValueError, match="2 endpoint"):
            FaultEvent(0.0, LINK_DOWN, ("b0",))

    def test_recoveries_sort_before_crashes_at_same_time(self):
        crash = FaultEvent(5.0, CRASH, ("b0",))
        recover = FaultEvent(5.0, RECOVER, ("b1",))
        assert sorted([crash, recover], key=lambda e: e.sort_key) == [recover, crash]


class TestFaultPlan:
    def test_builders_chain_and_expand_downtime(self):
        plan = FaultPlan().crash(3.0, "b1", downtime=2.0).link_down(4.0, "b2", "b0")
        kinds = [(event.kind, event.target) for event in plan.events]
        assert (CRASH, ("b1",)) in kinds
        assert (RECOVER, ("b1",)) in kinds
        assert (LINK_DOWN, ("b0", "b2")) in kinds  # endpoints sorted

    def test_is_empty(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(loss_rate=0.01).is_empty
        assert not FaultPlan(jitter=0.001).is_empty
        assert not FaultPlan(crash_fraction=0.1).is_empty
        assert not FaultPlan().crash(1.0, "b0").is_empty

    def test_validation(self):
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlan(loss_rate=1.0)
        with pytest.raises(ValueError, match="jitter"):
            FaultPlan(jitter=-0.1)
        with pytest.raises(ValueError, match="crash_fraction"):
            FaultPlan(crash_fraction=1.5)

    def test_schedule_for_samples_deterministically(self):
        brokers = [f"b{i}" for i in range(10)]
        plan = FaultPlan(crash_fraction=0.3, crash_start=5.0, crash_stagger=1.0,
                         seed=42)
        first = plan.schedule_for(brokers)
        second = plan.schedule_for(brokers)
        assert first == second
        crashes = [event for event in first if event.kind == CRASH]
        assert len(crashes) == 3
        assert [event.time for event in crashes] == [5.0, 6.0, 7.0]

    def test_schedule_for_crashes_at_least_one_broker(self):
        plan = FaultPlan(crash_fraction=0.01, seed=1)
        events = plan.schedule_for(["b0", "b1", "b2"])
        assert sum(1 for event in events if event.kind == CRASH) == 1

    def test_schedule_for_downtime_generates_recoveries(self):
        plan = FaultPlan(crash_fraction=0.5, crash_start=2.0, downtime=3.0, seed=7)
        events = plan.schedule_for(["b0", "b1"])
        kinds = sorted(event.kind for event in events)
        assert kinds == [CRASH, RECOVER]
        crash = next(e for e in events if e.kind == CRASH)
        recover = next(e for e in events if e.kind == RECOVER)
        assert recover.time == crash.time + 3.0
        assert recover.target == crash.target

    def test_from_spec_full(self):
        plan = FaultPlan.from_spec(
            "crash=0.2,start=8,stagger=0.5,downtime=30,loss=0.02,jitter=0.003,seed=9"
        )
        assert plan.crash_fraction == pytest.approx(0.2)
        assert plan.crash_start == pytest.approx(8.0)
        assert plan.crash_stagger == pytest.approx(0.5)
        assert plan.downtime == pytest.approx(30.0)
        assert plan.loss_rate == pytest.approx(0.02)
        assert plan.jitter == pytest.approx(0.003)
        assert plan.seed == 9

    def test_from_spec_empty_and_none(self):
        assert FaultPlan.from_spec("").is_empty
        assert FaultPlan.from_spec("none").is_empty
        assert FaultPlan.from_spec(" None ").is_empty

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultPlan.from_spec("crashes=0.1")
        with pytest.raises(ValueError, match="expected key=value"):
            FaultPlan.from_spec("crash")
        with pytest.raises(ValueError, match="not numeric"):
            FaultPlan.from_spec("loss=lots")
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlan.from_spec("loss=1.5")


# ----------------------------------------------------------------------
# FaultInjector runtime semantics
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_install_rejects_unknown_targets(self):
        network = make_network(2)
        with pytest.raises(ValueError, match="unknown broker"):
            network.install_faults(FaultPlan().crash(1.0, "ghost"))

    def test_install_twice_rejected(self):
        network = make_network(2)
        network.install_faults(FaultPlan())
        with pytest.raises(ValueError, match="already installed"):
            network.install_faults(FaultPlan())

    def test_crash_stops_delivery_and_counts_losses(self):
        network = make_network(3)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b2")
        network.attach_publisher(make_publisher(rate=20.0), "b0")
        network.install_faults(FaultPlan().crash(2.0, "b1"))
        network.run(2.0)
        delivered_before = subscriber.delivered
        assert delivered_before > 0
        network.run(3.0)
        assert subscriber.delivered == delivered_before
        summary = network.metrics.summary(3, network.active_brokers)
        assert summary.broker_crashes == 1
        assert summary.publications_lost > 0
        assert summary.delivery_rate < 1.0

    def test_crash_preserves_wiring_and_attachments(self):
        network = make_network(3)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b1")
        injector = network.install_faults(FaultPlan())
        injector.crash_now("b1")
        broker = network.brokers["b1"]
        assert broker.neighbors == {"b0", "b2"}
        assert "s1" in broker.local_clients
        assert broker.srt_size == 0  # routing state died with the process

    def test_crash_idempotent_recover_requires_down(self):
        network = make_network(2)
        injector = network.install_faults(FaultPlan())
        injector.crash_now("b0")
        injector.crash_now("b0")
        assert injector.crashes == 1
        injector.recover_now("b0")
        injector.recover_now("b0")
        assert injector.recoveries == 1
        assert not network.broker_is_down("b0")

    def test_recovered_broker_comes_back_blank_but_reachable(self):
        network = make_network(3)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b2")
        publisher = make_publisher(rate=20.0)
        network.attach_publisher(publisher, "b0")
        network.install_faults(FaultPlan().crash(1.0, "b1", downtime=1.0))
        network.run(3.0)
        summary = network.metrics.summary(3, network.active_brokers)
        assert summary.broker_recoveries == 1
        # Blank process: the subscription state died, so delivery stays
        # broken until a reconfiguration replays control traffic.
        assert network.brokers["b1"].srt_size == 0

    def test_link_down_cuts_broker_leg(self):
        network = make_network(3)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b2")
        network.attach_publisher(make_publisher(rate=20.0), "b0")
        network.install_faults(
            FaultPlan().link_down(2.0, "b1", "b2", downtime=2.0)
        )
        network.run(2.0)
        delivered_before = subscriber.delivered
        assert delivered_before > 0
        network.run(1.9)
        assert subscriber.delivered == delivered_before
        network.run(3.0)  # link restored at t=4.0
        assert subscriber.delivered > delivered_before

    def test_seeded_loss_is_deterministic(self):
        def run_once():
            network = make_network(2)
            subscriber = make_subscriber("s1")
            network.attach_subscriber(subscriber, "b1")
            network.attach_publisher(make_publisher(rate=50.0), "b0")
            # Let the control floods establish routing before loss
            # kicks in, so deliveries depend only on the seeded draws.
            network.run(1.0)
            injector = network.install_faults(FaultPlan(loss_rate=0.2), seed=5)
            network.run(10.0)
            return subscriber.delivered, injector.drops

        assert run_once() == run_once()
        delivered, drops = run_once()
        assert delivered > 0 and drops > 0

    def test_jitter_delays_but_delivers(self):
        network = make_network(2)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b1")
        network.attach_publisher(make_publisher(rate=20.0), "b0")
        network.install_faults(FaultPlan(jitter=0.01), seed=3)
        network.run(5.0)
        assert subscriber.delivered > 0
        summary = network.metrics.summary(2, network.active_brokers)
        assert summary.messages_lost == 0

    def test_empty_plan_schedules_nothing(self):
        network = make_network(2)
        injector = network.install_faults(FaultPlan())
        assert injector.schedule == []
        assert injector.transit() == 0.0
        assert injector.drops == 0


# ----------------------------------------------------------------------
# Robust gather: timeout, retry, partial answers, cached profiles
# ----------------------------------------------------------------------
def _profiled_network(broker_count=4, sub_broker=None):
    """A chain network with one publisher at b0 and one subscriber."""
    network = make_network(broker_count)
    sub_broker = sub_broker or f"b{broker_count - 1}"
    network.attach_subscriber(make_subscriber("s1"), sub_broker)
    network.attach_publisher(make_publisher(rate=20.0), "b0")
    network.run(3.0)
    return network


def _star_network(leaf_count=3):
    """Hub b0 with leaves b1..bn; subscriber on the last leaf.

    On a star only the hub waits for downstream answers, so crashing a
    leaf silences exactly that leaf — the clean shape for partial-gather
    assertions.  (On a chain, every ancestor of the dead broker times
    out before its descendants' late partial answers arrive, hiding the
    whole interior; ``test_crashed_interior_broker_hides_its_subtree``
    pins that behaviour.)
    """
    network = make_network(leaf_count + 1)
    network.disconnect_all()
    for index in range(1, leaf_count + 1):
        network.connect_brokers("b0", f"b{index}")
    network.attach_subscriber(make_subscriber("s1"), f"b{leaf_count}")
    network.attach_publisher(make_publisher(rate=20.0), "b0")
    network.run(3.0)
    return network


class TestRobustGather:
    def test_silent_leaf_yields_degraded_partial_gather(self):
        network = _star_network(3)
        injector = network.install_faults(FaultPlan())
        injector.crash_now("b3")
        croc = Croc(allocator_factory=BinPackingAllocator)
        gathered = croc.gather(network)
        assert gathered.silent_brokers == ["b3"]
        assert gathered.degraded
        assert gathered.attempts == 1
        assert {spec.broker_id for spec in gathered.broker_pool} == {
            "b0", "b1", "b2",
        }
        summary = network.metrics.summary(4, network.active_brokers)
        assert summary.degraded_plans == 1

    def test_crashed_interior_broker_hides_its_subtree(self):
        network = _profiled_network(4, sub_broker="b1")
        injector = network.install_faults(FaultPlan())
        injector.crash_now("b1")
        gathered = Croc(allocator_factory=BinPackingAllocator).gather(network)
        # b2/b3 are only reachable through b1, so they stay silent too.
        assert gathered.silent_brokers == ["b1", "b2", "b3"]
        assert [spec.broker_id for spec in gathered.broker_pool] == ["b0"]

    def test_dead_entry_broker_triggers_retry_rotation(self):
        network = _profiled_network(3)
        injector = network.install_faults(FaultPlan())
        injector.crash_now("b0")
        croc = Croc(allocator_factory=BinPackingAllocator)
        gathered = croc.gather(network, timeout=5.0, backoff=1.0)
        assert gathered.attempts == 2  # b0 silent, retried via b1
        assert gathered.silent_brokers == ["b0"]
        summary = network.metrics.summary(3, network.active_brokers)
        assert summary.gather_retries == 1

    def test_all_brokers_silent_raises(self):
        network = _profiled_network(3)
        injector = network.install_faults(FaultPlan())
        for broker_id in ("b0", "b1", "b2"):
            injector.crash_now(broker_id)
        croc = Croc(allocator_factory=BinPackingAllocator)
        with pytest.raises(ReconfigurationError, match="after 3 attempt"):
            croc.gather(network, timeout=0.5, retries=2)

    def test_cached_profiles_rehome_silent_brokers_subscriptions(self):
        network = _star_network(3)  # subscriber lives on leaf b3
        croc = Croc(allocator_factory=BinPackingAllocator)
        full = croc.gather(network)  # primes the report cache
        assert full.subscription_count == 1
        injector = network.install_faults(FaultPlan())
        injector.crash_now("b3")
        degraded = croc.gather(network)
        assert degraded.silent_brokers == ["b3"]
        assert degraded.cached_brokers == ["b3"]
        # The cached record survives for re-homing...
        assert degraded.subscription_count == 1
        assert degraded.records[0].home_broker == "b3"
        # ...but the dead broker is not plannable.
        assert "b3" not in {spec.broker_id for spec in degraded.broker_pool}

    def test_use_cache_false_drops_silent_records(self):
        network = _star_network(3)
        croc = Croc(allocator_factory=BinPackingAllocator)
        croc.gather(network)
        injector = network.install_faults(FaultPlan())
        injector.crash_now("b3")
        degraded = croc.gather(network, use_cache=False)
        assert degraded.silent_brokers == ["b3"]
        assert degraded.cached_brokers == []
        assert degraded.subscription_count == 0

    def test_gather_without_faults_is_not_degraded(self):
        network = _profiled_network(3)
        gathered = Croc(allocator_factory=BinPackingAllocator).gather(network)
        assert gathered.silent_brokers == []
        assert gathered.cached_brokers == []
        assert not gathered.degraded
        assert gathered.attempts == 1


# ----------------------------------------------------------------------
# Reconfigure: pre-apply abort and mid-apply rollback
# ----------------------------------------------------------------------
def _baseline_deployment():
    tree = BrokerTree("b0")
    tree.add_broker("b1", "b0")
    tree.add_broker("b2", "b1")
    return Deployment(
        tree=tree,
        subscription_placement={"s1": "b2"},
        publisher_placement={"adv-YHOO": "b0"},
        approach="baseline",
    )


def _standby_deployment():
    """A plan that moves everything onto the standby broker b3."""
    return Deployment(
        tree=BrokerTree("b3"),
        subscription_placement={"s1": "b3"},
        publisher_placement={"adv-YHOO": "b3"},
        approach="standby",
    )


def _rollback_fixture():
    """Chain b0-b1-b2 serving traffic, b3 standby, baseline applied."""
    network = make_network(4)
    network.disconnect_all()
    for first, second in (("b0", "b1"), ("b1", "b2")):
        network.connect_brokers(first, second)
    network.attach_subscriber(make_subscriber("s1"), "b2")
    network.attach_publisher(make_publisher(rate=20.0), "b0")
    network.apply_deployment(_baseline_deployment())
    network.run(3.0)
    croc = Croc(allocator_factory=BinPackingAllocator)
    real_plan = croc.plan

    def plan_onto_standby(gathered):
        report = real_plan(gathered)
        report.deployment = _standby_deployment()
        return report

    croc.plan = plan_onto_standby
    return network, croc


def _routing_snapshot(network):
    return {
        "links": sorted(network.links),
        "active": sorted(network.active_brokers),
        "srt": {bid: broker.srt_size for bid, broker in network.brokers.items()},
        "subscriber_at": network.subscribers["s1"].broker_id,
        "last_deployment": network.last_deployment,
    }


class TestReconfigureRollback:
    def test_target_dead_before_apply_abandons_plan(self):
        network, croc = _rollback_fixture()
        injector = network.install_faults(FaultPlan())
        injector.crash_now("b3")  # standby dies before CROC plans onto it
        before = _routing_snapshot(network)
        report = croc.reconfigure(network)
        assert not report.applied
        assert "before apply" in report.rollback_reason
        assert "b3" in report.rollback_reason
        after = _routing_snapshot(network)
        assert after == before  # the running overlay was never touched
        summary = network.metrics.summary(4, network.active_brokers)
        assert summary.rollbacks == 1

    def test_target_dying_mid_apply_rolls_back_to_previous(self):
        network, croc = _rollback_fixture()
        injector = network.install_faults(FaultPlan())
        before = _routing_snapshot(network)
        real_apply = network.apply_deployment

        def apply_then_crash(deployment):
            real_apply(deployment)
            if "b3" in deployment.tree.brokers:
                injector.crash_now("b3")

        network.apply_deployment = apply_then_crash
        report = croc.reconfigure(network)
        assert not report.applied
        assert "died during apply" in report.rollback_reason
        after = _routing_snapshot(network)
        # Routing tables, wiring, and attachments match the pre-plan state.
        assert after == before
        summary = network.metrics.summary(4, network.active_brokers)
        assert summary.rollbacks == 1

    def test_successful_reconfigure_reports_applied(self):
        network, croc = _rollback_fixture()
        network.install_faults(FaultPlan())
        report = croc.reconfigure(network)
        assert report.applied
        assert report.rollback_reason == ""
        assert network.active_brokers == ["b3"]
        assert network.last_deployment.approach == "standby"


# ----------------------------------------------------------------------
# Continuous reconfiguration under failures
# ----------------------------------------------------------------------
class TestContinuousUnderFailure:
    def test_churn_cycles_survive_a_crash(self):
        network = make_network(4)
        subscriber = make_subscriber("s1")
        network.attach_subscriber(subscriber, "b3")
        network.attach_publisher(make_publisher(rate=20.0), "b0")
        # The subscriber's home broker dies during cycle 0's profiling.
        network.install_faults(FaultPlan().crash(2.0, "b3"))
        croc = Croc(allocator_factory=BinPackingAllocator)
        loop = ContinuousReconfigurator(
            croc, profiling_time=5.0, measurement_time=5.0
        )
        reports = loop.run(network, cycles=2)
        assert len(reports) == 2
        assert reports[0].degraded  # planned around the silent broker
        assert reports[0].reconfigured
        # The degraded plan re-homed the subscription; delivery recovered.
        assert reports[1].summary.delivery_rate == pytest.approx(1.0)
        assert reports[1].summary.delivery_count > 0
        row = reports[0].as_row()
        assert {"degraded", "rolled_back", "delivery_rate"} <= set(row)
