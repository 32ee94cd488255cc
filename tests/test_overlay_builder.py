"""Tests for Phase 3 — recursive overlay construction (paper Section V)."""

import pytest

from repro.core.binpacking import BinPackingAllocator
from repro.core.capacity import BrokerBin, AllocationResult
from repro.core.cram import CramAllocator
from repro.core.overlay_builder import OverlayBuilder
from repro.core.units import AllocationUnit

from conftest import make_directory, make_kernel, make_pool, make_spec, make_unit


@pytest.fixture
def directory():
    return make_directory([f"P{i}" for i in range(8)])


def phase2(units_per_broker, pool, directory):
    """Build a synthetic Phase-2 result: broker i ← its unit list."""
    kernel = make_kernel(directory, [unit for units in units_per_broker for unit in units])
    bins = []
    for spec, units in zip(pool, units_per_broker):
        bin_ = BrokerBin(spec, kernel)
        for unit in units:
            bin_.add(unit)
        bins.append(bin_)
    return AllocationResult(bins, success=True)


def builder(**kwargs):
    return OverlayBuilder(BinPackingAllocator, **kwargs)


class TestBasicConstruction:
    def test_single_phase2_broker_is_root(self, directory):
        pool = make_pool(4, bandwidth=100.0)
        units = [make_unit({"P0": range(32)}, directory)]
        result = phase2([units], pool[:1], directory)
        tree = builder().build(result, pool, directory)
        tree.validate()
        assert tree.root == pool[0].broker_id
        assert len(tree) == 1

    def test_two_leaves_get_a_parent(self, directory):
        pool = make_pool(6, bandwidth=100.0)
        leaf_units = [
            [make_unit({"P0": range(32)}, directory)],
            [make_unit({"P1": range(32)}, directory)],
        ]
        result = phase2(leaf_units, pool[:2], directory)
        tree = builder(takeover_children=False, best_fit_replacement=False).build(
            result, pool, directory
        )
        tree.validate()
        assert len(tree) == 3
        assert set(tree.children(tree.root)) == {"B00", "B01"}

    def test_leaves_keep_their_units(self, directory):
        pool = make_pool(6, bandwidth=100.0)
        unit = make_unit({"P0": range(32)}, directory)
        result = phase2([[unit]], pool[:1], directory)
        tree = builder().build(result, pool, directory)
        assert tree.broker_units[pool[0].broker_id] == [unit]

    def test_internal_brokers_hold_pseudo_units(self, directory):
        pool = make_pool(6, bandwidth=100.0)
        leaf_units = [
            [make_unit({"P0": range(32)}, directory)],
            [make_unit({"P1": range(32)}, directory)],
        ]
        result = phase2(leaf_units, pool[:2], directory)
        tree = builder(takeover_children=False, best_fit_replacement=False).build(
            result, pool, directory
        )
        root_units = tree.broker_units[tree.root]
        assert all(unit.kind == "broker" for unit in root_units)
        children = {c for u in root_units for c in u.child_broker_ids}
        assert children == {"B00", "B01"}

    def test_subscription_placement_only_real_units(self, directory):
        pool = make_pool(6, bandwidth=100.0)
        unit_a = make_unit({"P0": range(32)}, directory, sub_id="sub-a")
        unit_b = make_unit({"P1": range(32)}, directory, sub_id="sub-b")
        result = phase2([[unit_a], [unit_b]], pool[:2], directory)
        tree = builder(takeover_children=False, best_fit_replacement=False).build(
            result, pool, directory
        )
        placement = tree.subscription_placement()
        assert placement == {"sub-a": "B00", "sub-b": "B01"}

    def test_empty_phase2_still_yields_a_root(self, directory):
        pool = make_pool(3)
        result = AllocationResult([], success=True)
        tree = builder().build(result, pool, directory)
        assert len(tree) == 1

    def test_layers_shrink_to_single_root(self, directory):
        """Many leaves recurse through multiple layers to one root."""
        pool = make_pool(20, bandwidth=12.0)
        leaf_units = [
            [make_unit({adv: range(32)}, directory)] for adv in list(directory)[:6]
        ]
        result = phase2(leaf_units, pool[:6], directory)
        tree = builder().build(result, pool, directory)
        tree.validate()
        roots = [b for b in tree.brokers if tree.parent(b) is None]
        assert roots == [tree.root]

    def test_works_with_cram_as_phase3_allocator(self, directory):
        pool = make_pool(10, bandwidth=50.0)
        leaf_units = [
            [make_unit({adv: range(32)}, directory)] for adv in list(directory)[:4]
        ]
        result = phase2(leaf_units, pool[:4], directory)
        tree = OverlayBuilder(lambda: CramAllocator(metric="ios")).build(
            result, pool, directory
        )
        tree.validate()
        # All subscriptions survive whatever collapsing the optimizations do.
        assert len(tree.subscription_placement()) == 4


class TestOptimizationA:
    def test_pure_forwarder_eliminated(self, directory):
        """A parent with a single child is skipped entirely."""
        # One leaf; big remaining pool: without optimization A the
        # allocator would put the leaf's pseudo-unit on a parent with
        # exactly one child — a pure forwarder.
        pool = make_pool(4, bandwidth=100.0)
        units = [make_unit({"P0": range(32)}, directory)]
        result = phase2([units], pool[:1], directory)
        tree = builder(eliminate_pure_forwarders=True).build(result, pool, directory)
        assert len(tree) == 1  # no forwarder chain above the leaf

    def test_disabled_keeps_forwarders(self, directory):
        pool = make_pool(4, bandwidth=100.0)
        leaf_units = [
            [make_unit({"P0": range(32)}, directory)],
            [make_unit({"P1": range(32)}, directory)],
        ]
        result = phase2(leaf_units, pool[:2], directory)
        enabled = builder(
            eliminate_pure_forwarders=True,
            takeover_children=False,
            best_fit_replacement=False,
        ).build(result, pool, directory)
        # Both children share one parent here, so optimization A has
        # nothing to remove.
        assert len(enabled) == 3


class TestOptimizationB:
    def test_parent_takes_over_tiny_child(self, directory):
        """A child whose whole load fits in the parent is absorbed."""
        pool = make_pool(6, bandwidth=100.0)
        leaf_units = [
            [make_unit({"P0": range(32)}, directory, sub_id="a")],
            [make_unit({"P1": range(32)}, directory, sub_id="b")],
        ]
        result = phase2(leaf_units, pool[:2], directory)
        build = builder(takeover_children=True)
        tree = build.build(result, pool, directory)
        tree.validate()
        assert build.last_stats.children_taken_over >= 1
        # Each absorbed subscription must still be placed somewhere.
        assert set(tree.subscription_placement()) == {"a", "b"}

    def test_takeover_disabled(self, directory):
        pool = make_pool(6, bandwidth=100.0)
        leaf_units = [
            [make_unit({"P0": range(32)}, directory)],
            [make_unit({"P1": range(32)}, directory)],
        ]
        result = phase2(leaf_units, pool[:2], directory)
        build = builder(takeover_children=False)
        tree = build.build(result, pool, directory)
        assert build.last_stats.children_taken_over == 0
        assert len(tree) == 3

    def test_no_takeover_when_parent_lacks_capacity(self, directory):
        pool = make_pool(6, bandwidth=11.0)  # parent can hold streams only
        leaf_units = [
            [make_unit({"P0": range(64)}, directory) for _ in range(1)],
            [make_unit({"P1": range(64)}, directory) for _ in range(1)],
        ]
        # Each leaf carries 10 kB/s delivery; parent streams 10+10 = 20 > 11
        # would fail even the layer allocation — use separate parents.
        result = phase2(leaf_units, pool[:2], directory)
        build = builder(takeover_children=True)
        tree = build.build(result, pool, directory)
        tree.validate()
        # Parent capacity 11 kB/s cannot absorb a child's 10 kB/s units
        # alongside the other child's 10 kB/s stream.
        placement = tree.subscription_placement()
        assert len(set(placement.values())) == 2


class TestOptimizationC:
    def test_best_fit_swaps_in_smaller_broker(self, directory):
        big = [make_spec(f"BIG{i}", bandwidth=100.0) for i in range(3)]
        small = [make_spec(f"SML{i}", bandwidth=12.0) for i in range(3)]
        pool = big + small
        leaf_units = [
            [make_unit({"P0": range(32)}, directory)],  # 5 kB/s
            [make_unit({"P1": range(32)}, directory)],
        ]
        result = phase2(leaf_units, big[:2], directory)
        build = builder(best_fit_replacement=True, takeover_children=False)
        tree = build.build(result, pool, directory)
        tree.validate()
        assert build.last_stats.best_fit_replacements >= 1
        # The root (stream load 10 kB/s) fits in a 12 kB/s broker.
        assert tree.root.startswith("SML")

    def test_best_fit_disabled(self, directory):
        big = [make_spec(f"BIG{i}", bandwidth=100.0) for i in range(3)]
        small = [make_spec(f"SML{i}", bandwidth=12.0) for i in range(3)]
        pool = big + small
        leaf_units = [
            [make_unit({"P0": range(32)}, directory)],
            [make_unit({"P1": range(32)}, directory)],
        ]
        result = phase2(leaf_units, big[:2], directory)
        build = builder(best_fit_replacement=False, takeover_children=False)
        tree = build.build(result, pool, directory)
        assert build.last_stats.best_fit_replacements == 0
        assert tree.root.startswith("BIG")


class TestFallback:
    def test_exhausted_pool_forces_root_among_layer(self, directory):
        """No spare brokers: one of the Phase-2 brokers becomes root."""
        pool = make_pool(2, bandwidth=100.0)
        leaf_units = [
            [make_unit({"P0": range(32)}, directory)],
            [make_unit({"P1": range(32)}, directory)],
        ]
        result = phase2(leaf_units, pool, directory)
        build = builder(takeover_children=False, best_fit_replacement=False,
                        eliminate_pure_forwarders=False)
        tree = build.build(result, pool, directory)
        tree.validate()
        assert build.last_stats.fallback_roots >= 1
        assert len(tree) == 2
