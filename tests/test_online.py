"""Online migration strategies: spec parsing, hysteresis, convergence."""

from __future__ import annotations

import pytest

from repro.core import allocators
from repro.core.online import (
    STRATEGIES,
    BrokerLoad,
    FijTrade,
    IncTrade,
    Migration,
    MigrationPlan,
    OnlineAllocator,
    OnlineSpec,
    SubscriptionLoad,
    make_strategy,
)


# ----------------------------------------------------------------------
# OnlineSpec parsing and validation
# ----------------------------------------------------------------------


class TestOnlineSpec:
    def test_defaults(self):
        spec = OnlineSpec()
        assert spec.strategy == "inc_trade"
        assert spec.steps == 2
        assert 0.0 < spec.util_low < spec.util_high

    def test_from_spec_full(self):
        spec = OnlineSpec.from_spec(
            "strategy=fij_trade,steps=3,high=0.8,low=0.4,drift=0.2,"
            "moves=6,window=12,horizon=5.0,gap=0.1"
        )
        assert spec == OnlineSpec(
            strategy="fij_trade", steps=3, util_high=0.8, util_low=0.4,
            drift_threshold=0.2, max_moves=6, window=12, horizon=5.0, gap=0.1,
        )

    def test_from_spec_bare_word_and_hyphens(self):
        assert OnlineSpec.from_spec("fij-trade").strategy == "fij_trade"
        assert OnlineSpec.from_spec("inc_trade").strategy == "inc_trade"

    def test_from_spec_none_disables(self):
        assert OnlineSpec.from_spec("") is None
        assert OnlineSpec.from_spec("none") is None
        assert OnlineSpec.from_spec("  NONE ") is None

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown online spec key"):
            OnlineSpec.from_spec("stepz=3")

    def test_from_spec_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="not numeric"):
            OnlineSpec.from_spec("steps=three")

    @pytest.mark.parametrize("kwargs", [
        {"strategy": "bogus"},
        {"steps": -1},
        {"util_low": 0.8, "util_high": 0.5},
        {"util_low": 0.0},
        {"drift_threshold": -0.1},
        {"max_moves": 0},
        {"window": 1},
        {"horizon": -1.0},
        {"gap": -0.01},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OnlineSpec(**kwargs)

    def test_make_strategy_dispatch(self):
        assert isinstance(make_strategy(OnlineSpec()), IncTrade)
        assert isinstance(
            make_strategy(OnlineSpec(strategy="fij_trade")), FijTrade
        )
        assert STRATEGIES == ("inc_trade", "fij_trade")


# ----------------------------------------------------------------------
# Strategy planning: the hysteresis band
# ----------------------------------------------------------------------


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


@pytest.fixture(params=STRATEGIES)
def strategy(request):
    return make_strategy(OnlineSpec(strategy=request.param))


class TestHysteresisBand:
    def test_calm_cluster_plans_nothing(self, strategy):
        brokers = [
            BrokerLoad("b1", capacity=100.0, load=60.0),
            BrokerLoad("b2", capacity=100.0, load=50.0),
        ]
        subs = _subs("b1", [30.0, 30.0], "s") + _subs("b2", [25.0, 25.0], "t")
        assert strategy.plan(brokers, subs).is_empty

    def test_overload_sheds_to_underloaded(self, strategy):
        brokers = [
            BrokerLoad("hot", capacity=100.0, load=90.0),
            BrokerLoad("cold", capacity=100.0, load=10.0),
        ]
        subs = _subs("hot", [30.0, 30.0, 30.0], "s")
        plan = strategy.plan(brokers, subs)
        assert not plan.is_empty
        assert all(m.source == "hot" and m.target == "cold" for m in plan)
        after = _apply(plan, brokers)
        assert after["hot"] <= 90.0 - 30.0 + 1e-9
        assert after["cold"] <= 75.0 + 1e-9

    def test_in_band_brokers_never_accept(self, strategy):
        # The only other broker sits inside the band (0.45 ≤ u ≤ 0.75):
        # it must not take load, so the plan stays empty.
        brokers = [
            BrokerLoad("hot", capacity=100.0, load=90.0),
            BrokerLoad("mid", capacity=100.0, load=60.0),
        ]
        subs = _subs("hot", [30.0, 30.0, 30.0], "s")
        assert strategy.plan(brokers, subs).is_empty

    def test_move_never_overloads_target(self, strategy):
        brokers = [
            BrokerLoad("hot", capacity=100.0, load=95.0),
            BrokerLoad("cold", capacity=100.0, load=40.0),
        ]
        subs = _subs("hot", [20.0, 25.0, 25.0, 25.0], "s")
        plan = strategy.plan(brokers, subs)
        after = _apply(plan, brokers)
        assert after["cold"] / 100.0 <= 0.75 + 1e-9

    def test_max_moves_caps_the_batch(self, strategy):
        spec = OnlineSpec(strategy=strategy.name, max_moves=1)
        capped = make_strategy(spec)
        brokers = [
            BrokerLoad("hot", capacity=100.0, load=100.0),
            BrokerLoad("cold1", capacity=100.0, load=0.0),
            BrokerLoad("cold2", capacity=100.0, load=0.0),
        ]
        subs = _subs("hot", [20.0] * 5, "s")
        assert len(capped.plan(brokers, subs)) == 1

    def test_plan_is_deterministic(self, strategy):
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
        first = strategy.plan(brokers, subs)
        second = strategy.plan(list(reversed(brokers)), list(reversed(subs)))
        assert repr(first) == repr(second)


class TestConvergence:
    """A static workload must settle: no ping-pong between steps."""

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_repeated_planning_reaches_fixpoint(self, name):
        planner = make_strategy(OnlineSpec(strategy=name, max_moves=2))
        brokers = {
            "b1": BrokerLoad("b1", capacity=100.0, load=95.0),
            "b2": BrokerLoad("b2", capacity=100.0, load=30.0),
            "b3": BrokerLoad("b3", capacity=100.0, load=25.0),
        }
        location = {}
        subs = []
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
            rows = [
                BrokerLoad(b, brokers[b].capacity, loads[b])
                for b in sorted(brokers)
            ]
            return rows, subs

        plans = []
        for _ in range(12):
            rows, subs = current_state()
            plan = planner.plan(rows, subs)
            plans.append(plan)
            if plan.is_empty:
                break
            for move in plan:
                broker_id, load = location[move.sub_id]
                assert broker_id == move.source
                location[move.sub_id] = (move.target, load)

        # Settles within the step budget, and once settled stays settled.
        assert plans[-1].is_empty
        rows, subs = current_state()
        assert planner.plan(rows, subs).is_empty
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
        plan = MigrationPlan(strategy="inc_trade", moves=(
            Migration("s1", "a", "b", 3.0, 0.1),
            Migration("s2", "a", "c", 4.0, 0.2),
        ))
        assert len(plan) == 2 and not plan.is_empty
        assert plan.total_load == pytest.approx(7.0)
        assert plan.subscription_ids() == ("s1", "s2")
        row = plan.as_row()
        assert row["moves"] == 2
        assert row["predicted_delta"] == pytest.approx(0.3)


# ----------------------------------------------------------------------
# Allocator table integration: the incremental approaches
# ----------------------------------------------------------------------


class TestRegistryCapabilities:
    def test_online_strategies_are_registered_incremental(self):
        for name in ("inc-trade", "fij-trade"):
            assert name in allocators.NAMES
            assert hasattr(allocators.get(name)(), "plan_migrations")
        assert set(allocators.INCREMENTAL) == {"inc-trade", "fij-trade"}

    def test_croc_allocators_are_not_incremental(self):
        for name in ("fbf", "binpacking", "cram-ios"):
            assert name not in allocators.INCREMENTAL
            assert not hasattr(allocators.get(name)(), "plan_migrations")

    def test_factory_builds_online_allocator(self):
        allocator = allocators.get("fij-trade")()
        assert isinstance(allocator, OnlineAllocator)
        assert allocator.name == "fij-trade"
        assert allocator.spec.strategy == "fij_trade"
        assert isinstance(allocator.strategy, FijTrade)

    def test_factory_threads_online_spec_knob(self):
        spec = OnlineSpec(steps=5, max_moves=9)
        allocator = allocators.get("inc-trade", online=spec)()
        assert allocator.spec.max_moves == 9
        # The approach name wins over the spec's strategy.
        crossed = allocators.get("fij-trade", online=spec)()
        assert crossed.spec.strategy == "fij_trade"
        assert crossed.spec.max_moves == 9

    def test_plan_migrations_delegates_to_strategy(self):
        allocator = OnlineAllocator(strategy="inc_trade")
        brokers = [
            BrokerLoad("hot", capacity=100.0, load=90.0),
            BrokerLoad("cold", capacity=100.0, load=10.0),
        ]
        subs = _subs("hot", [30.0, 30.0, 30.0], "s")
        plan = allocator.plan_migrations(brokers, subs)
        assert plan.strategy == "inc_trade"
        assert not plan.is_empty
