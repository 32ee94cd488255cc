"""Online migration strategies: spec parsing, hysteresis, convergence."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import allocators
from repro.core.config import RunConfig
from repro.core.online import (
    STRATEGIES,
    BrokerLoad,
    FijTrade,
    IncTrade,
    Migration,
    MigrationPlan,
    OnlineSpec,
    SubscriptionLoad,
    make_strategy,
)
from repro.experiments.runner import ExperimentRunner
from repro.workloads.scenarios import cluster_homogeneous


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

#: The narrow band moves subscriptions in the first cycle, and the two
#: strategies move different ones; the default band moves none.
NARROW_BAND = {"util_high": 0.3, "util_low": 0.15}

#: ``run_continuous`` row digests for an approach whose spec names the
#: other strategy, recorded at ``3684ae2``, when the approach's allocator
#: carried its own migration planner.  Each equals the digest of the
#: approach run with a spec that names its own strategy.
MISMATCHED_PINS = {
    ("inc-trade", "default"): "3710f9510bd77a3a",
    ("fij-trade", "default"): "3710f9510bd77a3a",
    ("inc-trade", "narrow"): "c56afe3592488781",
    ("fij-trade", "narrow"): "f3c2dedad8271e14",
}

#: Each approach against a spec that names the other strategy.
CROSSED = {"inc-trade": ("fij_trade", IncTrade), "fij-trade": ("inc_trade", FijTrade)}


def _continuous(approach, spec):
    """``tests/test_online_equivalence.py``'s mixed-schedule scenario."""
    scenario = cluster_homogeneous(
        subscriptions_per_publisher=10,
        scale=0.1,
        broker_bandwidth_kbps=25.0,
        profile_capacity=96,
    )
    runner = ExperimentRunner(scenario, seed=17, config=RunConfig(online=spec))
    reports = runner.run_continuous(
        approach, cycles=2,
        profiling_time=scenario.derived_profiling_time(),
        measurement_time=6.0,
    )
    rows = [
        {key: repr(value) for key, value in report.as_row().items()}
        for report in reports
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    return runner.last_continuous.scheduler, digest[:16]


class TestRegistryCapabilities:
    def test_online_strategies_are_registered_incremental(self):
        for name in ("inc-trade", "fij-trade"):
            assert name in allocators.NAMES
        assert set(allocators.INCREMENTAL) == {"inc-trade", "fij-trade"}

    def test_croc_allocators_are_not_incremental(self):
        for name in ("fbf", "binpacking", "cram-ios"):
            assert name not in allocators.INCREMENTAL
            assert not hasattr(allocators.get(name)(), "plan_migrations")

    def test_no_allocator_plans_migrations(self):
        for name in allocators.NAMES:
            assert not hasattr(allocators.get(name)(), "plan_migrations"), name

    @pytest.mark.parametrize("band", ["default", "narrow"])
    @pytest.mark.parametrize("approach", ["inc-trade", "fij-trade"])
    def test_approach_strategy_wins(self, approach, band):
        """The loop runs the approach's strategy whatever the spec names."""
        spec_strategy, strategy_type = CROSSED[approach]
        knobs = NARROW_BAND if band == "narrow" else {}
        spec = OnlineSpec(strategy=spec_strategy, steps=2, **knobs)
        scheduler, digest = _continuous(approach, spec)
        assert isinstance(scheduler.strategy, strategy_type)
        assert scheduler.spec.strategy == approach.replace("-", "_")
        assert scheduler.spec.util_high == spec.util_high
        assert digest == MISMATCHED_PINS[approach, band]
        if band == "narrow":
            assert scheduler.subscriptions_moved > 0


if __name__ == "__main__":
    for (approach, band) in MISMATCHED_PINS:
        knobs = NARROW_BAND if band == "narrow" else {}
        spec = OnlineSpec(strategy=CROSSED[approach][0], steps=2, **knobs)
        print(approach, band, _continuous(approach, spec)[1])
