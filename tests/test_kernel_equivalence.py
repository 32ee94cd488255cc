"""Kernel vs naive equivalence (the kernel's exactness contract).

The fused bit-plane kernel (:mod:`repro.core.kernel`) promises to be a
pure wall-clock optimization: attaching it must never change a metric
value, an allocation, or an evaluation counter.  These tests pin that
contract on seeded end-to-end scenarios and on targeted fallback cases
(mismatched windows, layout conflicts, unknown publishers).
"""

from __future__ import annotations

import pytest

from repro.core.closeness import METRIC_NAMES, make_metric
from repro.core.cram import CramAllocator
from repro.core.kernel import ClosenessKernel
from repro.core.units import units_from_records
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_heterogeneous, cluster_homogeneous

from conftest import make_directory, make_profile
from naive_cram import NaiveCramAllocator

# Three seeded scenarios: two homogeneous sizes and one heterogeneous
# pool (different tiers, skewed subscription counts).
SCENARIOS = [
    ("homo-small", cluster_homogeneous(subscriptions_per_publisher=8, scale=0.08), 7),
    ("homo-dense", cluster_homogeneous(subscriptions_per_publisher=14, scale=0.06), 11),
    ("hetero", cluster_heterogeneous(ns=12, scale=0.05), 13),
]


def _gathered(scenario, seed):
    gather = offline_gather(scenario, seed=seed)
    units = units_from_records(gather.records, gather.directory)
    return gather, units


def _placement_signature(result):
    return (
        result.success,
        result.broker_count,
        sorted(result.subscription_placement().items()),
    )


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[name for name, _, _ in SCENARIOS]
)
class TestAllocationEquivalence:
    def test_identical_allocations_and_counters(self, scenario, metric_name):
        """CRAM with the kernel reproduces the naive run bit-for-bit."""
        _, spec, seed = scenario
        signatures = []
        counters = []
        for allocator in (NaiveCramAllocator, CramAllocator):
            gather, units = _gathered(spec, seed)
            cram = allocator(metric=metric_name, failure_budget=25)
            result = cram.allocate(units, gather.broker_pool, gather.directory)
            signatures.append(_placement_signature(result))
            stats = cram.last_stats
            counters.append(
                (
                    stats.merges,
                    stats.binpack_runs,
                    stats.initial_units,
                    stats.final_units,
                    cram.metric.evaluations,
                )
            )
            assert stats.kernel_used is (allocator is CramAllocator)
        assert signatures[0] == signatures[1]
        assert counters[0] == counters[1]

    def test_identical_closeness_values(self, scenario, metric_name):
        """Every pairwise metric value matches the naive float exactly."""
        _, spec, seed = scenario
        gather, units = _gathered(spec, seed)
        profiles = [unit.profile for unit in units][:40]
        naive = make_metric(metric_name)
        fused = make_metric(metric_name)
        fused.attach_kernel(ClosenessKernel(gather.directory, profiles))
        anchor = profiles[0]
        others = profiles[1:]
        naive_row = [naive(anchor, other) for other in others]
        # Bit-for-bit, both per-pair and batched (no approx).
        assert [fused(anchor, other) for other in others] == naive_row
        assert fused.closeness_row(anchor, others) == naive_row
        # The batched form repeats cleanly off the pair memo.
        assert fused.closeness_row(anchor, others) == naive_row


class TestFusedCountsFallbacks:
    """Direct fused_counts checks, including the non-packable paths."""

    def _naive_counts(self, first, second):
        return (
            first.intersection_cardinality(second),
            first.union_cardinality(second),
        )

    def test_pure_pair_counts(self):
        directory = make_directory(["A", "B"])
        a = make_profile({"A": [1, 2, 3], "B": [10, 11]})
        b = make_profile({"A": [2, 3, 4]})
        kernel = ClosenessKernel(directory, [a, b])
        assert kernel.pack(a).pure and kernel.pack(b).pure
        assert kernel.fused_counts(a, b) == self._naive_counts(a, b)
        assert kernel.fused_evaluations == 1
        assert kernel.fused_counts(a, b) == self._naive_counts(a, b)
        assert kernel.memo_hits == 1

    def test_conflicted_window_goes_residual(self):
        """Same publisher observed under two windows: plane conflict."""
        directory = make_directory(["A", "B"])
        a = make_profile({"A": [1, 2], "B": [3]}, capacity=64)
        b = make_profile({"A": [2, 5]}, capacity=32)  # conflicting window
        kernel = ClosenessKernel(directory, [a, b])
        assert "A" in kernel.layout.conflicted
        pa = kernel.pack(a)
        assert pa.exact and not pa.pure  # residual vector for A
        assert kernel.fused_counts(a, b) == self._naive_counts(a, b)

    def test_unseen_window_falls_back_naive(self):
        """A profile outside the constructor pool with a new window."""
        directory = make_directory(["A"])
        a = make_profile({"A": [1, 2, 3]}, capacity=64)
        kernel = ClosenessKernel(directory, [a])
        late = make_profile({"A": [2, 9]}, capacity=16)
        assert not kernel.pack(late).exact
        assert kernel.fused_counts(a, late) == self._naive_counts(a, late)
        assert kernel.fallback_evaluations == 1
        # Fallback pairs are still id-memoized.
        assert kernel.fused_counts(a, late) == self._naive_counts(a, late)
        assert kernel.memo_hits == 1

    def test_unknown_publisher_still_exact(self):
        """Publishers absent from the directory pack with rate 0."""
        directory = make_directory(["A"])
        a = make_profile({"A": [1], "GHOST": [2, 3]})
        b = make_profile({"GHOST": [3, 4]})
        kernel = ClosenessKernel(directory, [a, b])
        assert kernel.fused_counts(a, b) == self._naive_counts(a, b)

    def test_closeness_row_mixed_pack_purity(self):
        """Rows over a mix of pure, residual, and fallback profiles."""
        directory = make_directory(["A", "B"])
        anchor = make_profile({"A": [1, 2, 3], "B": [7]})
        pure = make_profile({"A": [3, 4]})
        conflicted = make_profile({"B": [1, 2]}, capacity=32)
        kernel = ClosenessKernel(directory, [anchor, pure, conflicted])
        late = make_profile({"A": [2]}, capacity=16)  # non-exact pack
        others = [pure, conflicted, late]
        for name in METRIC_NAMES:
            naive = make_metric(name)
            fused = make_metric(name)
            fused.attach_kernel(kernel)
            expected = [naive(anchor, other) for other in others]
            assert fused.closeness_row(anchor, others) == expected
            assert fused.evaluations == naive.evaluations
