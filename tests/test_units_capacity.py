"""Tests for allocation units and the broker capacity model (paper §IV-A)."""

import math

import pytest

from repro.core.capacity import (
    AllocationResult,
    BrokerBin,
    BrokerSpec,
    MatchingDelayFunction,
    sorted_broker_pool,
)
from repro.core.units import AllocationUnit, units_from_records

from conftest import make_directory, make_kernel, make_record, make_spec, make_unit


class TestMatchingDelayFunction:
    def test_linear_model(self):
        fn = MatchingDelayFunction(base=0.001, per_subscription=0.0001)
        assert fn.delay(0) == pytest.approx(0.001)
        assert fn.delay(10) == pytest.approx(0.002)

    def test_max_matching_rate_is_inverse(self):
        fn = MatchingDelayFunction(base=0.002, per_subscription=0.0)
        assert fn.max_matching_rate(100) == pytest.approx(500.0)

    def test_zero_delay_gives_infinite_rate(self):
        fn = MatchingDelayFunction(base=0.0, per_subscription=0.0)
        assert fn.max_matching_rate(5) == math.inf


class TestBrokerSpec:
    def test_capacity_key_sorts_descending_bandwidth(self):
        pool = [make_spec("a", 10), make_spec("b", 30), make_spec("c", 20)]
        ordered = sorted_broker_pool(pool)
        assert [spec.broker_id for spec in ordered] == ["b", "c", "a"]

    def test_capacity_key_tie_breaks_on_id(self):
        pool = [make_spec("z", 10), make_spec("a", 10)]
        assert [s.broker_id for s in sorted_broker_pool(pool)] == ["a", "z"]


class TestAllocationUnit:
    def test_singleton_unit_estimates(self, directory):
        unit = make_unit({"A": range(32)}, directory)  # 32/64 of 10 msg/s
        assert unit.delivery_rate == pytest.approx(5.0)
        assert unit.delivery_bandwidth == pytest.approx(5.0)
        assert unit.subscription_count == 1
        assert unit.kind == "subscription"

    def test_merged_sums_bandwidth_unions_profile(self, directory):
        a = make_unit({"A": range(32)}, directory)
        b = make_unit({"A": range(32)}, directory)  # identical interests
        merged = AllocationUnit.merged([a, b], directory, make_kernel(directory, [a, b]))
        # Delivery bandwidth doubles (two subscribers, two copies)...
        assert merged.delivery_bandwidth == pytest.approx(10.0)
        # ...but the profile is the union (same publications).
        assert merged.profile.cardinality == 32
        assert merged.subscription_count == 2
        assert len(merged.members) == 2

    def test_merge_single_unit_returns_it(self, directory):
        unit = make_unit({"A": [1]}, directory)
        assert AllocationUnit.merged([unit], directory, make_kernel(directory, [unit])) is unit

    def test_merge_zero_units_raises(self, directory):
        with pytest.raises(ValueError):
            AllocationUnit.merged([], directory, make_kernel(directory, []))

    def test_merge_mixed_kinds_raises(self, directory):
        sub = make_unit({"A": [1]}, directory)
        broker = AllocationUnit.for_child_broker("B1", [sub], directory)
        with pytest.raises(ValueError, match="mixed kinds"):
            AllocationUnit.merged([sub, broker], directory, make_kernel(directory, [sub, broker]))

    def test_child_broker_unit_uses_union_stream_bandwidth(self, directory):
        # Two identical subscriptions: deliveries need 2x, but the
        # stream feeding their broker carries each publication once.
        a = make_unit({"A": range(32)}, directory)
        b = make_unit({"A": range(32)}, directory)
        pseudo = AllocationUnit.for_child_broker("B1", [a, b], directory)
        assert pseudo.kind == "broker"
        assert pseudo.child_broker_ids == ("B1",)
        assert pseudo.delivery_bandwidth == pytest.approx(5.0)

    def test_merged_broker_units_concatenate_children(self, directory):
        a = make_unit({"A": [1]}, directory)
        b = make_unit({"A": [2]}, directory)
        pa = AllocationUnit.for_child_broker("B1", [a], directory)
        pb = AllocationUnit.for_child_broker("B2", [b], directory)
        merged = AllocationUnit.merged([pa, pb], directory, make_kernel(directory, [pa, pb]))
        assert set(merged.child_broker_ids) == {"B1", "B2"}
        assert merged.kind == "broker"

    def test_units_from_records(self, directory):
        records = [make_record({"A": [1]}), make_record({"B": [2]})]
        units = units_from_records(records, directory)
        assert len(units) == 2
        assert units[0].member_ids == (records[0].sub_id,)


class TestBrokerBin:
    def test_bandwidth_constraint(self, directory):
        spec = make_spec("b", bandwidth=7.0)
        unit = make_unit({"A": range(32)}, directory)  # 5 kB/s
        second = make_unit({"A": range(32)}, directory)
        bin_ = BrokerBin(spec, make_kernel(directory, [unit, second]))
        assert bin_.can_accept(unit)
        bin_.add(unit)
        assert bin_.used_bandwidth == pytest.approx(5.0)
        # Second identical unit would need 10 kB/s total > 7.
        assert not bin_.can_accept(second)

    def test_matching_rate_constraint(self, directory):
        # delay = 0.05 + 0.05*n → with one subscription, max rate = 10.
        spec = BrokerSpec(
            "b",
            total_output_bandwidth=1000.0,
            delay_function=MatchingDelayFunction(base=0.05, per_subscription=0.05),
        )
        light = make_unit({"A": range(32)}, directory)  # input 5 msg/s
        other = make_unit({"B": range(32)}, directory)
        bin_ = BrokerBin(spec, make_kernel(directory, [light, other]))
        assert bin_.can_accept(light)
        bin_.add(light)
        # Adding another subscription drops max rate to 1/(0.15) ≈ 6.67,
        # and the union input would grow to 10 msg/s → reject.
        assert not bin_.can_accept(other)

    def test_input_rate_uses_union_not_sum(self, directory):
        """Identical subscriptions add no input load — the clustering payoff."""
        spec = make_spec("b", bandwidth=1000.0)
        units = [make_unit({"A": ids}, directory)
                 for ids in (range(32), range(32), range(32, 64))]
        bin_ = BrokerBin(spec, make_kernel(directory, units))
        bin_.add(units[0])
        first_rate = bin_.input_rate
        bin_.add(units[1])
        assert bin_.input_rate == pytest.approx(first_rate)
        bin_.add(units[2])
        assert bin_.input_rate == pytest.approx(first_rate * 2)

    def test_utilization(self, directory):
        spec = make_spec("b", bandwidth=10.0)
        unit = make_unit({"A": range(32)}, directory)  # 5 kB/s
        bin_ = BrokerBin(spec, make_kernel(directory, [unit]))
        assert bin_.utilization == 0.0
        bin_.add(unit)
        assert bin_.utilization == pytest.approx(0.5)

    def test_empty_profile_unit_always_fits(self, directory):
        spec = make_spec("b", bandwidth=0.001)
        unit = make_unit({}, directory)
        assert BrokerBin(spec, make_kernel(directory, [unit])).can_accept(unit)


class TestAllocationResult:
    def _bins(self, directory):
        unit = make_unit({"A": [1]}, directory, sub_id="s-a")
        kernel = make_kernel(directory, [unit])
        bin_a, bin_b = BrokerBin(make_spec("a"), kernel), BrokerBin(make_spec("b"), kernel)
        bin_a.add(unit)
        return [bin_a, bin_b]

    def test_empty_bins_not_counted(self, directory):
        result = AllocationResult(self._bins(directory), success=True)
        assert result.broker_count == 1
        assert result.broker_ids == ["a"]

    def test_subscription_placement(self, directory):
        result = AllocationResult(self._bins(directory), success=True)
        assert result.subscription_placement() == {"s-a": "a"}

    def test_mean_utilization_over_used_bins(self, directory):
        result = AllocationResult(self._bins(directory), success=True)
        assert 0.0 < result.mean_utilization() <= 1.0

    def test_failure_keeps_failed_unit(self, directory):
        unit = make_unit({"A": [1]}, directory)
        result = AllocationResult([], success=False, failed_unit=unit)
        assert not result.success
        assert result.failed_unit is unit
