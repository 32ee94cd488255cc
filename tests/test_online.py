"""Online migrations: the spec, the fij_trade hysteresis band, convergence,
and the mixed schedule's disruption floors."""

from __future__ import annotations

import pytest

from repro.core import allocators
from repro.core.config import RunConfig
from repro.core.online import (
    MAX_MOVES,
    STRATEGIES,
    UTIL_HIGH,
    UTIL_LOW,
    BrokerLoad,
    Migration,
    MigrationPlan,
    OnlineSpec,
    SubscriptionLoad,
    fij_trade,
)
from repro.experiments.continuous import SubscriberChurn
from repro.experiments.runner import ExperimentRunner
from repro.sim.faults import FaultPlan
from repro.sim.rng import SeededRng
from repro.workloads.scenarios import cluster_homogeneous


# ----------------------------------------------------------------------
# OnlineSpec validation
# ----------------------------------------------------------------------


class TestOnlineSpec:
    def test_defaults(self):
        spec = OnlineSpec()
        assert spec.strategy == "fij_trade"
        assert spec.steps == 2
        assert spec.drift_threshold == 0.0
        assert spec.gap == 0.05
        assert STRATEGIES == ("fij_trade",)
        # The band and the cap the spec's knobs used to default to.
        assert (UTIL_HIGH, UTIL_LOW, MAX_MOVES) == (0.75, 0.45, 4)

    @pytest.mark.parametrize("kwargs", [
        {"strategy": "bogus"},
        {"steps": -1},
        {"strategy": "inc_trade"},
        {"drift_threshold": -0.1},
        {"gap": -0.01},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OnlineSpec(**kwargs)


# ----------------------------------------------------------------------
# Planning: the hysteresis band
# ----------------------------------------------------------------------

#: Every broker in the band tests has this capacity, so a load reads as
#: a utilization in percent.
CAPACITY = 100.0

#: Loads placed against the band: above the ceiling, inside the band,
#: and below the low-water mark.
HOT = (UTIL_HIGH + 0.15) * CAPACITY
MID = (UTIL_LOW + UTIL_HIGH) / 2 * CAPACITY
COLD = (UTIL_LOW - 0.35) * CAPACITY


def _subs(broker_id, loads, prefix):
    return [
        SubscriptionLoad(sub_id=f"{prefix}{i}", broker_id=broker_id, load=load)
        for i, load in enumerate(loads)
    ]


def _apply(plan, brokers):
    """Return broker loads after executing every move of ``plan``."""
    loads = {b.broker_id: b.load for b in brokers}
    for move in plan:
        loads[move.source] -= move.load
        loads[move.target] += move.load
    return loads


class TestHysteresisBand:
    def test_calm_cluster_plans_nothing(self):
        brokers = [
            BrokerLoad("b1", capacity=CAPACITY, load=MID),
            BrokerLoad("b2", capacity=CAPACITY, load=UTIL_LOW * CAPACITY),
        ]
        subs = (_subs("b1", [MID / 2] * 2, "s")
                + _subs("b2", [UTIL_LOW * CAPACITY / 2] * 2, "t"))
        assert len(fij_trade(brokers, subs)) == 0

    def test_overload_sheds_to_underloaded(self):
        brokers = [
            BrokerLoad("hot", capacity=CAPACITY, load=HOT),
            BrokerLoad("cold", capacity=CAPACITY, load=COLD),
        ]
        subs = _subs("hot", [HOT / 3] * 3, "s")
        plan = fij_trade(brokers, subs)
        assert len(plan) > 0
        assert all(m.source == "hot" and m.target == "cold" for m in plan)
        after = _apply(plan, brokers)
        assert after["hot"] <= HOT - HOT / 3 + 1e-9
        assert after["cold"] <= UTIL_HIGH * CAPACITY + 1e-9

    def test_in_band_brokers_never_accept(self):
        # The only other broker sits inside the band: it must not take
        # load, so the plan stays empty.
        brokers = [
            BrokerLoad("hot", capacity=CAPACITY, load=HOT),
            BrokerLoad("mid", capacity=CAPACITY, load=MID),
        ]
        subs = _subs("hot", [HOT / 3] * 3, "s")
        assert len(fij_trade(brokers, subs)) == 0

    def test_move_never_overloads_target(self):
        brokers = [
            BrokerLoad("hot", capacity=CAPACITY, load=95.0),
            BrokerLoad("cold", capacity=CAPACITY, load=UTIL_LOW * CAPACITY - 5.0),
        ]
        subs = _subs("hot", [20.0, 25.0, 25.0, 25.0], "s")
        plan = fij_trade(brokers, subs)
        after = _apply(plan, brokers)
        assert after["cold"] / CAPACITY <= UTIL_HIGH + 1e-9

    def test_max_moves_caps_the_batch(self):
        # Two brokers at full load each need three 10-unit moves to clear
        # the ceiling, and four empty brokers could take them all.
        brokers = [
            BrokerLoad(f"hot{i}", capacity=CAPACITY, load=CAPACITY) for i in (1, 2)
        ] + [BrokerLoad(f"cold{i}", capacity=CAPACITY, load=0.0) for i in range(4)]
        subs = _subs("hot1", [10.0] * 10, "a") + _subs("hot2", [10.0] * 10, "b")
        plan = fij_trade(brokers, subs)
        assert len(plan) == MAX_MOVES
        after = _apply(plan, brokers)
        assert max(after.values()) / CAPACITY > UTIL_HIGH

    def test_plan_is_deterministic(self):
        brokers = [
            BrokerLoad("b1", capacity=100.0, load=95.0),
            BrokerLoad("b2", capacity=80.0, load=20.0),
            BrokerLoad("b3", capacity=120.0, load=30.0),
        ]
        subs = (
            _subs("b1", [10.0, 15.0, 20.0, 25.0, 25.0], "a")
            + _subs("b2", [10.0, 10.0], "b")
            + _subs("b3", [15.0, 15.0], "c")
        )
        first = fij_trade(brokers, subs)
        second = fij_trade(list(reversed(brokers)), list(reversed(subs)))
        assert repr(first) == repr(second)


class TestConvergence:
    """A static workload must settle: no ping-pong between steps."""

    def test_repeated_planning_reaches_fixpoint(self):
        brokers = {"b1": CAPACITY, "b2": CAPACITY, "b3": CAPACITY}
        location = {}
        for i, load in enumerate([10.0, 10.0, 15.0, 20.0, 20.0, 20.0]):
            location[f"s{i}"] = ("b1", load)
        for i, load in enumerate([15.0, 15.0]):
            location[f"u{i}"] = ("b2", load)
        location["v0"] = ("b3", 25.0)

        def current_state():
            loads = {b: 0.0 for b in brokers}
            subs = []
            for sub_id, (broker_id, load) in sorted(location.items()):
                loads[broker_id] += load
                subs.append(SubscriptionLoad(sub_id, broker_id, load))
            rows = [BrokerLoad(b, brokers[b], loads[b]) for b in sorted(brokers)]
            return rows, subs

        rows, _ = current_state()
        assert rows[0].utilization > UTIL_HIGH
        plans = []
        for _ in range(12):
            rows, subs = current_state()
            plan = fij_trade(rows, subs)
            plans.append(plan)
            if len(plan) == 0:
                break
            for move in plan:
                broker_id, load = location[move.sub_id]
                assert broker_id == move.source
                location[move.sub_id] = (move.target, load)

        # Settles within the step budget, and once settled stays settled.
        assert len(plans) > 1 and len(plans[-1]) == 0
        rows, subs = current_state()
        assert len(fij_trade(rows, subs)) == 0
        assert all(row.utilization <= UTIL_HIGH + 1e-9 for row in rows)
        # No subscription ever moved twice across the whole run.
        moved = [m.sub_id for plan in plans for m in plan]
        assert len(moved) == len(set(moved))


# ----------------------------------------------------------------------
# Plan and data containers
# ----------------------------------------------------------------------


class TestContainers:
    def test_broker_load_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            BrokerLoad("b1", capacity=0.0, load=1.0)
        assert BrokerLoad("b1", 50.0, 25.0).utilization == pytest.approx(0.5)

    def test_plan_aggregates(self):
        moves = (
            Migration("s1", "a", "b", 3.0, 0.1),
            Migration("s2", "a", "c", 4.0, 0.2),
        )
        plan = MigrationPlan(moves)
        assert len(plan) == 2
        assert tuple(plan) == moves
        assert len(MigrationPlan()) == 0


# ----------------------------------------------------------------------
# Allocator table integration: the incremental approach
# ----------------------------------------------------------------------


class TestRegistryCapabilities:
    def test_online_strategies_are_registered_incremental(self):
        assert allocators.INCREMENTAL == ("fij-trade",)
        assert "fij-trade" in allocators.NAMES
        assert "inc-trade" not in allocators.NAMES

    def test_croc_allocators_are_not_incremental(self):
        for name in ("fbf", "binpacking", "cram-ios"):
            assert name not in allocators.INCREMENTAL
            assert not hasattr(allocators.get(name)(), "plan_migrations")

    def test_no_allocator_plans_migrations(self):
        for name in allocators.NAMES:
            assert not hasattr(allocators.get(name)(), "plan_migrations"), name


# ----------------------------------------------------------------------
# The mixed schedule against periodic CRAM-IOS: disruption floors
# ----------------------------------------------------------------------

SEED = 2011
CYCLES = 3
MEASUREMENT_TIME = 30.0

#: Disruption ceilings the mixed schedule must respect.
MAX_MOVED_FRACTION = 0.20  # of the subscription pool, per cycle
MAX_GAP_FRACTION = 0.02    # detach seconds per measurement second


def _continuous(online):
    """Churn plus 10% of the brokers crashing mid-profiling, on brokers of
    15 kB/s: tight enough that the pool cannot collapse onto one broker,
    so churn pushes brokers past :data:`UTIL_HIGH` and the online steps
    have imbalances to trade away.  Returns ``(reports, pool size)``."""
    scenario = cluster_homogeneous(
        subscriptions_per_publisher=12, scale=0.15, broker_bandwidth_kbps=15.0,
        profile_capacity=96, measurement_time=MEASUREMENT_TIME,
    )
    runner = ExperimentRunner(
        scenario, seed=SEED, cram_failure_budget=150,
        fault_plan=FaultPlan(crash_fraction=0.1, crash_start=10.0,
                             crash_stagger=2.0, seed=SEED),
        config=RunConfig(online=online),
    )
    reports = runner.run_continuous(
        "fij-trade" if online is not None else "cram-ios", cycles=CYCLES,
        profiling_time=scenario.derived_profiling_time(),
        measurement_time=MEASUREMENT_TIME,
        make_driver=lambda net: SubscriberChurn(net, SeededRng(SEED)),
    )
    pool = sum(len(subscriber.subscriptions)
               for subscriber in runner.network.subscribers.values())
    return reports, pool


@pytest.fixture(scope="module")
def periodic():
    return _continuous(None)


@pytest.fixture(scope="module")
def mixed():
    return _continuous(OnlineSpec("fij_trade", steps=2, drift_threshold=0.5, gap=0.02))


class TestMixedScheduleFloors:
    def test_mixed_schedule_moves_subscriptions(self, mixed):
        reports, _pool = mixed
        assert all(report.online_steps == 2 for report in reports)
        # With no migration every other floor here would hold vacuously.
        assert sum(report.subscriptions_moved for report in reports) >= 1

    def test_no_cycle_moves_more_than_a_fifth_of_the_pool(self, mixed):
        reports, pool = mixed
        assert pool > 0
        for report in reports:
            assert report.subscriptions_moved <= MAX_MOVED_FRACTION * pool, report.cycle

    def test_summed_gap_stays_within_two_percent_of_the_window(self, mixed):
        reports, _pool = mixed
        # ``migration_gap_s`` sums every mover's detach time in a cycle.
        for report in reports:
            assert report.migration_gap_s <= MAX_GAP_FRACTION * MEASUREMENT_TIME, (
                report.cycle)
        assert sum(report.migration_gap_s for report in reports) > 0.0

    def test_min_delivery_rate_at_least_periodic_cram_ios(self, mixed, periodic):
        def floor(run):
            return min(report.summary.delivery_rate for report in run[0])

        assert all(report.summary.delivery_count > 0 for report in mixed[0])
        assert floor(mixed) >= floor(periodic)
