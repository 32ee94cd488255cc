"""Unit tests for the per-broker energy model and its metric seams.

Covers the pure arithmetic (:mod:`repro.core.energy`), the per-window
crash-downtime accounting in :class:`repro.pubsub.metrics.MetricsCollector`
(including the t=0-crash-before-first-reset regression), the
``MetricsSummary.energy_usage`` projection, and the ``energy()``
readings of a finished ``ExperimentResult`` / ``CycleReport`` (with
the Pareto front they feed).
"""

from __future__ import annotations

import pytest

from repro.core.energy import (
    BrokerEnergy,
    EnergyReport,
    EnergySpec,
    WindowUsage,
    account_window,
)
from repro.core.floats import approx_eq, approx_le
from repro.experiments.parallel import CellSpec, run_spec
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweeps import PARETO_OBJECTIVES, homogeneous_scenarios, pareto_front
from repro.pubsub.metrics import MetricsCollector, MetricsSummary
from repro.workloads.scenarios import cluster_homogeneous


def usage(**overrides) -> WindowUsage:
    """A two-broker window with hand-checkable numbers."""
    values = dict(
        duration_s=10.0,
        pool_size=4,
        active_brokers=("B1", "B2"),
        messages={"B1": 100.0, "B2": 40.0},
        bytes_out_kb={"B1": 50.0, "B2": 20.0},
        utilization={"B1": 0.5, "B2": 0.25},
        downtime_s={},
        deliveries=80,
        mean_delay_s=0.1,
        delivery_rate=1.0,
    )
    values.update(overrides)
    return WindowUsage(**values)


class TestEnergySpec:
    def test_defaults_are_nonnegative(self):
        spec = EnergySpec()
        assert spec.idle_watts == 60.0
        assert spec.active_watts == 90.0
        assert spec.crashed_watts == 0.0

    def test_negative_knob_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EnergySpec(idle_watts=-1.0)


class TestAccountWindow:
    def test_hand_formula(self):
        spec = EnergySpec(
            idle_watts=10.0,
            active_watts=100.0,
            matching_joules=1.0,
            transmission_joules_per_kb=0.5,
            crashed_watts=2.0,
        )
        report = account_window(spec, usage(downtime_s={"B2": 4.0}))
        b1, b2 = report.brokers
        # B1: up=10 — idle 10*10, active 100*0.5*10, match 1*100, tx 0.5*50.
        assert b1 == BrokerEnergy(
            broker_id="B1",
            idle_joules=100.0,
            active_joules=500.0,
            matching_joules=100.0,
            transmission_joules=25.0,
            crashed_joules=0.0,
            downtime_s=0.0,
        )
        # B2: up=6, down=4 — idle 10*6, active 100*0.25*6, match 1*40,
        # tx 0.5*20, crashed 2*4.
        assert b2 == BrokerEnergy(
            broker_id="B2",
            idle_joules=60.0,
            active_joules=150.0,
            matching_joules=40.0,
            transmission_joules=10.0,
            crashed_joules=8.0,
            downtime_s=4.0,
        )
        assert report.joules == b1.joules + b2.joules
        assert report.allocated_brokers == 2
        assert report.joules_per_delivery == report.joules / 80
        assert report.mean_watts == report.joules / 10.0

    def test_deallocated_brokers_draw_nothing(self):
        report = account_window(EnergySpec(), usage())
        assert report.pool_size == 4
        assert report.allocated_brokers == 2  # the other 2 are off

    def test_downtime_clamped_to_window(self):
        report = account_window(
            EnergySpec(idle_watts=10.0, active_watts=0.0,
                       matching_joules=0.0,
                       transmission_joules_per_kb=0.0),
            usage(downtime_s={"B1": 99.0, "B2": -3.0}),
        )
        b1, b2 = report.brokers
        assert b1.downtime_s == 10.0 and b1.idle_joules == 0.0
        assert b2.downtime_s == 0.0 and b2.idle_joules == 100.0

    def test_utilization_clamped_to_unit_interval(self):
        report = account_window(
            EnergySpec(idle_watts=0.0, active_watts=10.0,
                       matching_joules=0.0,
                       transmission_joules_per_kb=0.0),
            usage(utilization={"B1": 1.8, "B2": -0.5}),
        )
        b1, b2 = report.brokers
        assert b1.active_joules == 100.0  # clamped to 1.0 × 10 W × 10 s
        assert b2.active_joules == 0.0

    def test_zero_deliveries_never_divides(self):
        report = account_window(EnergySpec(), usage(deliveries=0))
        assert report.joules_per_delivery == 0.0

    def test_row_and_export_record_shapes(self):
        report = account_window(EnergySpec(), usage())
        row = report.as_row()
        assert set(row) == {
            "allocated_brokers", "joules", "joules_per_delivery",
            "mean_watts", "downtime_s",
        }
        record = report.export_record("homo/manual", "homo", "manual")
        assert record["record"] == "energy"
        assert record["cell"] == "homo/manual"
        assert record["deliveries"] == 80
        assert record["mean_delay_ms"] == 100.0


class _FakeSim:
    def __init__(self):
        self.now = 0.0


class TestDowntimeAccounting:
    def test_crash_at_t0_before_first_reset_is_charged(self):
        """Regression: t=0 is falsy, but a t=0 crash is still a crash."""
        sim = _FakeSim()
        metrics = MetricsCollector(sim)
        metrics.on_broker_crash("B1")  # at t=0.0, before any reset
        sim.now = 4.0
        metrics.reset_window()
        sim.now = 10.0
        summary = metrics.summary(pool_size=2, active_brokers=["B1", "B2"])
        assert summary.per_broker_downtime_s == {"B1": 6.0}
        assert metrics.broker_downtime_s == 6.0
        assert summary.fault_row()["broker_downtime_s"] == 6.0

    def test_crash_and_recovery_within_window(self):
        sim = _FakeSim()
        metrics = MetricsCollector(sim)
        sim.now = 2.0
        metrics.on_broker_crash("B1")
        sim.now = 5.0
        metrics.on_broker_recovery("B1")
        sim.now = 8.0
        summary = metrics.summary(pool_size=1, active_brokers=["B1"])
        assert summary.per_broker_downtime_s == {"B1": 3.0}
        assert summary.broker_crashes == 1
        assert summary.broker_recoveries == 1

    def test_downtime_spanning_a_reset_is_charged_per_window(self):
        sim = _FakeSim()
        metrics = MetricsCollector(sim)
        sim.now = 3.0
        metrics.on_broker_crash("B1")
        sim.now = 6.0
        first = metrics.summary(pool_size=1, active_brokers=["B1"])
        assert first.per_broker_downtime_s == {"B1": 3.0}
        metrics.reset_window()  # still down; interval re-pins to t=6
        sim.now = 8.0
        metrics.on_broker_recovery("B1")
        sim.now = 9.0
        second = metrics.summary(pool_size=1, active_brokers=["B1"])
        assert second.per_broker_downtime_s == {"B1": 2.0}

    def test_double_crash_keeps_the_original_interval(self):
        sim = _FakeSim()
        metrics = MetricsCollector(sim)
        sim.now = 1.0
        metrics.on_broker_crash("B1")
        sim.now = 3.0
        metrics.on_broker_crash("B1")  # duplicate event: no re-pin
        sim.now = 5.0
        summary = metrics.summary(pool_size=1, active_brokers=["B1"])
        assert summary.per_broker_downtime_s == {"B1": 4.0}

    def test_recovery_without_crash_is_ignored(self):
        sim = _FakeSim()
        metrics = MetricsCollector(sim)
        sim.now = 5.0
        metrics.on_broker_recovery("B1")
        summary = metrics.summary(pool_size=1, active_brokers=["B1"])
        assert summary.per_broker_downtime_s == {}

    def test_anonymous_hooks_only_bump_counters(self):
        sim = _FakeSim()
        metrics = MetricsCollector(sim)
        metrics.on_broker_crash()
        metrics.on_broker_recovery()
        sim.now = 5.0
        summary = metrics.summary(pool_size=1, active_brokers=["B1"])
        assert summary.broker_crashes == 1
        assert summary.broker_recoveries == 1
        assert summary.per_broker_downtime_s == {}


class TestEnergyUsageProjection:
    def test_summary_projects_window_usage(self):
        sim = _FakeSim()
        metrics = MetricsCollector(sim)
        metrics.on_publication_sent("B1", size_kb=2.0, copies=1, deliveries=1)
        metrics.on_receive("B1", is_publication=True)
        metrics.record_deliveries([0.2], hops=2)
        sim.now = 10.0
        summary = metrics.summary(
            pool_size=3, active_brokers=["B1", "B2"],
            bandwidth_by_broker={"B1": 1.0, "B2": 1.0},
        )
        projected = summary.energy_usage()
        assert projected.duration_s == summary.duration
        assert projected.pool_size == 3
        assert projected.active_brokers == ("B1", "B2")
        assert projected.messages["B1"] == pytest.approx(2.0)  # in + out
        assert projected.bytes_out_kb == {"B1": 2.0}
        assert projected.utilization["B1"] == pytest.approx(0.2)
        assert projected.deliveries == 1
        assert projected.mean_delay_s == pytest.approx(0.2)


def _objectives_beaten(first, second) -> int:
    """On how many objectives ``first`` is strictly better than ``second``."""
    beaten = 0
    for index, (_key, maximize) in enumerate(PARETO_OBJECTIVES):
        a, b = first[index], second[index]
        better = approx_le(b, a) if maximize else approx_le(a, b)
        if better and not approx_eq(a, b):
            beaten += 1
    return beaten


class TestResultReadings:
    """Energy is read from a finished result under a caller's spec."""

    def test_pareto_front_prices_consolidation(self):
        """cram-ios sits on the front and beats manual on at least two
        objectives: fewer brokers must mean fewer joules."""
        (scenario,) = homogeneous_scenarios(
            subs_sweep=(10,), scale=0.2, measurement_time=30.0)
        results = {
            (scenario.name, approach): run_spec(
                CellSpec(scenario=scenario, approach=approach, seed=2011))
            for approach in ("manual", "binpacking", "cram-ios")
        }
        front = pareto_front(results)
        vectors = {entry.approach: entry.vector for entry in front.entries}
        assert front.rank_of(scenario.name, "cram-ios") == 1
        assert _objectives_beaten(vectors["cram-ios"], vectors["manual"]) >= 2
        manual = results[(scenario.name, "manual")]
        assert manual.energy() == account_window(
            EnergySpec(), manual.summary.energy_usage())
        assert manual.energy(EnergySpec(idle_watts=0.0)).joules < manual.energy().joules

    def test_cycle_reports_price_their_measurement_window(self):
        scenario = cluster_homogeneous(8, scale=0.1)
        runner = ExperimentRunner(scenario, seed=2011)
        reports = runner.run_continuous(
            "cram-ios", cycles=2,
            profiling_time=scenario.derived_profiling_time(),
            measurement_time=6.0,
        )
        assert len(reports) == 2
        for report in reports:
            expected = account_window(EnergySpec(), report.summary.energy_usage())
            assert report.energy().joules == expected.joules
            assert report.energy().joules > 0
            assert "joules" not in report.as_row()
