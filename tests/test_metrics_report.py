"""Tests for metrics collection and report formatting."""

import pytest

from repro.experiments.report import format_rows, reduction, series
from repro.pubsub.metrics import MetricsCollector
from repro.sim.engine import Simulator


class TestMetricsCollector:
    def _collector(self):
        sim = Simulator()
        return sim, MetricsCollector(sim)

    def test_counters_accumulate(self):
        _sim, metrics = self._collector()
        metrics.on_receive("b0", is_publication=True)
        metrics.on_publication_sent("b0", size_kb=0.5, copies=1, deliveries=1)
        counters = metrics.counters("b0")
        assert counters.messages_in == 1
        assert counters.messages_out == 1
        assert counters.publications_in == 1
        assert counters.deliveries == 1
        assert counters.bytes_out_kb == pytest.approx(0.5)

    def test_delivery_stats(self):
        _sim, metrics = self._collector()
        metrics.record_deliveries([0.1, 0.3], hops=6)
        summary = self._summarize(metrics, duration=10.0)
        assert summary.delivery_count == 2
        assert summary.mean_delivery_delay == pytest.approx(0.2)
        assert summary.mean_hop_count == pytest.approx(3.0)
        assert summary.max_delivery_delay == pytest.approx(0.3)

    def _summarize(self, metrics, duration, pool_size=4, active=("b0",),
                   bandwidths=None):
        metrics._sim.schedule(duration, lambda: None)
        metrics._sim.run()
        return metrics.summary(pool_size, list(active), bandwidths)

    def test_avg_rate_over_pool_vs_active(self):
        _sim, metrics = self._collector()
        for _ in range(40):
            metrics.on_receive("b0", is_publication=True)
        summary = self._summarize(metrics, duration=10.0, pool_size=4)
        # 40 messages / 10 s / 4 pool brokers = 1; over 1 active = 4.
        assert summary.avg_broker_message_rate == pytest.approx(1.0)
        assert summary.avg_active_broker_message_rate == pytest.approx(4.0)

    def test_reset_window(self):
        sim, metrics = self._collector()
        metrics.on_receive("b0", is_publication=False)
        metrics.record_deliveries([0.1], hops=1)
        sim.schedule(5.0, lambda: None)
        sim.run()
        metrics.reset_window()
        assert metrics.window_start == 5.0
        summary = metrics.summary(4, ["b0"])
        assert summary.total_broker_messages == 0
        assert summary.delivery_count == 0

    def test_utilization(self):
        _sim, metrics = self._collector()
        metrics.on_publication_sent("b0", size_kb=50.0, copies=1, deliveries=0)
        summary = self._summarize(
            metrics, duration=10.0, bandwidths={"b0": 10.0}
        )
        # 50 kB over 10 s = 5 kB/s of a 10 kB/s broker.
        assert summary.mean_utilization == pytest.approx(0.5)
        assert summary.max_utilization == pytest.approx(0.5)

    def test_no_deliveries_no_division_by_zero(self):
        _sim, metrics = self._collector()
        summary = self._summarize(metrics, duration=1.0)
        assert summary.mean_delivery_delay == 0.0
        assert summary.mean_hop_count == 0.0

    def test_as_row_keys(self):
        _sim, metrics = self._collector()
        row = self._summarize(metrics, duration=1.0).as_row()
        assert "avg_broker_message_rate" in row
        assert "mean_hop_count" in row


class TestReportHelpers:
    def test_reduction(self):
        assert reduction(100.0, 8.0) == pytest.approx(0.92)
        assert reduction(0.0, 5.0) == 0.0

    def test_format_rows_alignment(self):
        rows = [
            {"approach": "manual", "brokers": 80},
            {"approach": "cram-ios", "brokers": 7},
        ]
        text = format_rows(rows)
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "approach" in lines[0]
        assert "cram-ios" in lines[3]

    def test_format_rows_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_rows(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"

    def test_series_extraction(self):
        rows = [{"x": 1, "y": 10}, {"x": 2, "y": 20}]
        points = series(rows, "x", "y")
        assert points == [{"x": 1, "y": 10}, {"x": 2, "y": 20}]
