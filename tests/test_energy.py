"""Unit tests for the per-broker energy model and its metric seams.

Covers the pure arithmetic (:mod:`repro.core.energy`), the per-window
crash-downtime accounting in :class:`repro.pubsub.metrics.MetricsCollector`
(including the t=0-crash-before-first-reset regression), and the
``MetricsSummary.energy_usage`` projection.
"""

from __future__ import annotations

import pytest

from repro.core.energy import (
    BrokerEnergy,
    EnergyAccountant,
    EnergyReport,
    EnergySpec,
    WindowUsage,
    account_window,
    combined_report,
)
from repro.pubsub.metrics import MetricsCollector, MetricsSummary


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

    def test_from_spec_none_disables(self):
        assert EnergySpec.from_spec("none") is None
        assert EnergySpec.from_spec(" NONE ") is None

    def test_from_spec_default_selects_defaults(self):
        assert EnergySpec.from_spec("") == EnergySpec()
        assert EnergySpec.from_spec("default") == EnergySpec()

    def test_from_spec_parses_every_key(self):
        spec = EnergySpec.from_spec(
            "idle=10,active=20,match=0.5,tx=0.25,crashed=3"
        )
        assert spec == EnergySpec(
            idle_watts=10.0,
            active_watts=20.0,
            matching_joules=0.5,
            transmission_joules_per_kb=0.25,
            crashed_watts=3.0,
        )

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown energy spec key"):
            EnergySpec.from_spec("volts=3")

    def test_from_spec_rejects_non_number(self):
        with pytest.raises(ValueError, match="needs a number"):
            EnergySpec.from_spec("idle=lots")

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


class TestEnergyAccountant:
    def test_totals_accumulate_across_windows(self):
        accountant = EnergyAccountant(EnergySpec(idle_watts=10.0,
                                                 active_watts=0.0,
                                                 matching_joules=0.0,
                                                 transmission_joules_per_kb=0.0))
        first = accountant.observe(usage())
        second = accountant.observe(usage(duration_s=5.0, deliveries=20))
        assert accountant.windows == (first, second)
        assert accountant.total_duration_s() == 15.0
        assert accountant.total_deliveries() == 100
        assert accountant.total_joules() == first.joules + second.joules
        assert accountant.joules_per_delivery() == (
            accountant.total_joules() / 100
        )
        assert accountant.mean_watts() == accountant.total_joules() / 15.0

    def test_empty_accountant_reports_zero(self):
        accountant = EnergyAccountant(EnergySpec())
        assert accountant.total_joules() == 0.0
        assert accountant.joules_per_delivery() == 0.0
        assert accountant.mean_watts() == 0.0

    def test_combined_report_concatenates_windows(self):
        spec = EnergySpec()
        reports = [
            account_window(spec, usage(mean_delay_s=0.1)),
            account_window(spec, usage(duration_s=5.0, deliveries=40,
                                       mean_delay_s=0.4)),
        ]
        combined = combined_report(reports)
        assert combined.duration_s == 15.0
        assert combined.deliveries == 120
        assert combined.allocated_brokers == 4  # 2 brokers × 2 windows
        assert combined.joules == reports[0].joules + reports[1].joules
        # Delivery-weighted delay: (80×0.1 + 40×0.4) / 120.
        assert combined.mean_delay_s == pytest.approx(0.2)

    def test_combined_report_empty_is_none(self):
        assert combined_report([]) is None


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
