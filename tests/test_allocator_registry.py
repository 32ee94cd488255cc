"""The closed allocator table and the runner's approach list."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import allocators
from repro.core.binpacking import BinPackingAllocator
from repro.experiments.runner import APPROACHES, ExperimentRunner
from repro.workloads.scenarios import cluster_homogeneous

#: Every approach the evaluation runs, in presentation order.
ELEVEN = (
    "manual", "automatic", "pairwise-k", "pairwise-n",
    "fbf", "binpacking",
    "cram-intersect", "cram-xor", "cram-ios", "cram-iou",
    "fij-trade",
)


class TestRegistryContract:
    def test_paper_allocators_in_presentation_order(self):
        assert allocators.NAMES[:6] == (
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

    def test_every_name_builds_an_allocator_of_that_name(self):
        """The incremental approach differs from CRAM-IOS only in the
        migrations the continuous loop runs, so it builds CRAM-IOS."""
        for name in allocators.NAMES:
            expected = "cram-ios" if name in allocators.INCREMENTAL else name
            assert allocators.get(name)().name == expected

    def test_get_unknown_name_raises_with_inventory(self):
        for name in ("cram-cosine", "cram-ios-sharded"):
            with pytest.raises(ValueError, match="unknown allocator.*binpacking"):
                allocators.get(name)

    def test_builders_ignore_foreign_knobs(self):
        factory = allocators.get("binpacking", rng=object(), failure_budget=1)
        assert isinstance(factory(), BinPackingAllocator)

    def test_misspelled_knob_is_a_type_error(self):
        with pytest.raises(TypeError):
            allocators.get("binpacking", budget=1)


class TestRunnerIntegration:
    def test_approaches_snapshot_includes_registry_names(self):
        assert APPROACHES[:4] == ("manual", "automatic", "pairwise-k", "pairwise-n")
        assert APPROACHES[4:] == allocators.NAMES

    def test_approaches_are_the_eleven_in_order(self):
        assert len(APPROACHES) == len(ELEVEN)
        for ours, expected in zip(APPROACHES, ELEVEN):
            assert ours == expected

    def test_runner_rejects_unregistered_approach(self):
        scenario = cluster_homogeneous(
            subscriptions_per_publisher=8, scale=0.1, measurement_time=10.0
        )
        for approach in ("toy", "cram-ios-sharded", "inc-trade"):
            with pytest.raises(ValueError, match="unknown approach"):
                ExperimentRunner(scenario, seed=7).run(approach)

    def test_online_one_shot_equals_cram_ios_with_its_stats(self):
        """``fij-trade`` allocates with CRAM-IOS, so a one-shot run is
        CRAM-IOS's run — and reports its ``cram_stats`` like one."""
        scenario = cluster_homogeneous(8, scale=0.1)

        def run(approach):
            result = ExperimentRunner(scenario, seed=7).run(approach)
            row = result.as_row()
            del row["approach"], row["computation_s"]
            return row, result.cram_stats

        reference_row, reference_stats = run("cram-ios")
        assert reference_stats is not None
        for approach in allocators.INCREMENTAL:
            row, stats = run(approach)
            assert row == reference_row, approach
            assert stats is not None, approach
            assert dataclasses.asdict(stats) == dataclasses.asdict(reference_stats)
