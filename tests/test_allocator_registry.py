"""The allocator registry: registration contract and runner integration."""

from __future__ import annotations

import pytest

from repro.core import allocators
from repro.core.allocators import AllocatorSpec, register_spec
from repro.core.binpacking import BinPackingAllocator
from repro.experiments.runner import (
    APPROACHES,
    ExperimentRunner,
    available_approaches,
)
from repro.workloads.scenarios import cluster_homogeneous


class TestRegistryContract:
    def test_paper_allocators_in_presentation_order(self):
        assert allocators.registered_names()[:6] == (
            "fbf",
            "binpacking",
            "cram-intersect",
            "cram-xor",
            "cram-ios",
            "cram-iou",
        )

    def test_get_builds_fresh_factories(self):
        factory = allocators.get("cram-ios", failure_budget=150)
        first, second = factory(), factory()
        assert first is not second
        assert first.name == "cram-ios"

    def test_get_unknown_name_raises_with_inventory(self):
        with pytest.raises(ValueError, match="unknown allocator.*binpacking"):
            allocators.get("cram-cosine")

    def test_builders_ignore_foreign_knobs(self):
        factory = allocators.get("binpacking", rng=object(), failure_budget=1)
        assert isinstance(factory(), BinPackingAllocator)

    def test_register_rejects_empty_and_duplicate_names(self):
        with pytest.raises(ValueError, match="non-empty"):
            AllocatorSpec("", lambda **_: BinPackingAllocator)
        with pytest.raises(ValueError, match="already registered"):
            register_spec(AllocatorSpec("fbf", lambda **_: BinPackingAllocator))

    def test_replace_and_unregister_roundtrip(self):
        marker = lambda **_: BinPackingAllocator  # noqa: E731
        register_spec(AllocatorSpec("toy-replaceable", marker))
        try:
            assert allocators.is_registered("toy-replaceable")
            replacement = lambda **_: BinPackingAllocator  # noqa: E731
            register_spec(
                AllocatorSpec("toy-replaceable", replacement), replace=True
            )
            assert allocators.get("toy-replaceable") is BinPackingAllocator
        finally:
            allocators.unregister("toy-replaceable")
        assert not allocators.is_registered("toy-replaceable")
        with pytest.raises(ValueError, match="not registered"):
            allocators.unregister("toy-replaceable")

    def test_aliases_are_the_same_objects(self):
        assert allocators.get_allocator is allocators.get
        assert allocators.registered_allocators is allocators.registered_names


class _ToyAllocator(BinPackingAllocator):
    """A registered plugin variant (keeps the allocate() contract)."""

    name = "toy"


class TestRunnerIntegration:
    def test_approaches_snapshot_includes_registry_names(self):
        assert APPROACHES[:4] == ("manual", "automatic", "pairwise-k", "pairwise-n")
        assert set(allocators.registered_names()) <= set(APPROACHES)

    def test_available_approaches_tracks_live_registry(self):
        register_spec(AllocatorSpec("toy", lambda **_: _ToyAllocator))
        try:
            assert "toy" in available_approaches()
            assert "toy" not in APPROACHES  # import-time snapshot stays fixed
        finally:
            allocators.unregister("toy")
        assert "toy" not in available_approaches()

    def test_runner_drives_a_registered_plugin_end_to_end(self):
        register_spec(AllocatorSpec("toy", lambda **_: _ToyAllocator))
        try:
            scenario = cluster_homogeneous(
                subscriptions_per_publisher=8, scale=0.1, measurement_time=10.0
            )
            result = ExperimentRunner(scenario, seed=7).run("toy")
            assert result.approach == "toy"
            assert result.allocated_brokers >= 1
            assert result.summary.delivery_count > 0
        finally:
            allocators.unregister("toy")

    def test_runner_rejects_unregistered_approach(self):
        scenario = cluster_homogeneous(
            subscriptions_per_publisher=8, scale=0.1, measurement_time=10.0
        )
        with pytest.raises(ValueError, match="unknown approach"):
            ExperimentRunner(scenario, seed=7).run("toy")
