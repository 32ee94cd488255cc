"""Tests for the four closeness metrics (paper §IV-C).

Each value is the production one: the metric evaluated through a kernel
packed over the pair (``test_kernel_equivalence`` holds the kernel
against the per-publisher oracle).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.closeness import METRIC_NAMES, XOR_MAX, make_metric
from repro.core.kernel import ClosenessKernel

from conftest import make_profile


def closeness(name, first, second):
    kernel = ClosenessKernel.for_pool({}, [first, second])
    return make_metric(name)(kernel, first, second)


class TestIntersect:
    def test_counts_shared_bits(self):
        a = make_profile({"A": [1, 2, 3]})
        b = make_profile({"A": [2, 3, 4]})
        assert closeness("intersect", a, b) == 2.0

    def test_zero_for_empty_relation(self):
        assert closeness("intersect", make_profile({"A": [1]}), make_profile({"A": [2]})) == 0.0


class TestXor:
    def test_inverse_of_xor_cardinality(self):
        a = make_profile({"A": [1, 2]})
        b = make_profile({"A": [2, 3]})
        assert closeness("xor", a, b) == pytest.approx(0.5)

    def test_capped_for_identical_profiles(self):
        a = make_profile({"A": [1, 2]})
        b = make_profile({"A": [1, 2]})
        assert closeness("xor", a, b) == XOR_MAX

    def test_nonzero_even_for_disjoint_profiles(self):
        """The Gryphon flaw: XOR cannot distinguish empty relations."""
        a = make_profile({"A": [1]})
        b = make_profile({"A": [2]})
        assert closeness("xor", a, b) > 0.0


class TestIosIou:
    def test_paper_figure3_example(self):
        """|S1|=36, |S2|=16, |S1∩S2|=8 → IOS = 64/52 ≈ 1.23... with the
        paper's rounded numbers 8²÷60 ≈ 1.07 uses |S1|+|S2|=60 before
        removing the overlap; we verify the formula directly."""
        s1 = make_profile({"A": range(36)}, capacity=64)
        s2 = make_profile({"A": range(28, 44)}, capacity=64)  # 16 bits, 8 shared
        assert s1.cardinality == 36
        assert s2.cardinality == 16
        assert ClosenessKernel.for_pool({}, [s1, s2]).fused_counts(s1, s2) == (8, 44)
        assert closeness("ios", s1, s2) == pytest.approx(8 * 8 / (36 + 16))
        assert closeness("iou", s1, s2) == pytest.approx(8 * 8 / 44)

    def test_zero_on_empty_relation(self):
        a = make_profile({"A": [1]})
        b = make_profile({"B": [1]})
        assert closeness("ios", a, b) == 0.0
        assert closeness("iou", a, b) == 0.0

    def test_favours_high_traffic_pairs(self):
        """Squaring the intersection prefers heavy overlapping pairs."""
        heavy_a = make_profile({"A": range(20)})
        heavy_b = make_profile({"A": range(20)})
        light_a = make_profile({"A": [1, 2]})
        light_b = make_profile({"A": [1, 2]})
        assert closeness("ios", heavy_a, heavy_b) > closeness("ios", light_a, light_b)
        assert closeness("iou", heavy_a, heavy_b) > closeness("iou", light_a, light_b)

    def test_penalizes_dragged_along_traffic(self):
        """Same overlap, more non-shared traffic → lower closeness."""
        base = make_profile({"A": range(10)})
        tight = make_profile({"A": range(10)})
        baggy = make_profile({"A": range(30)})
        assert closeness("ios", base, tight) > closeness("ios", base, baggy)
        assert closeness("iou", base, tight) > closeness("iou", base, baggy)


class TestRegistry:
    def test_all_four_metrics_exist(self):
        assert set(METRIC_NAMES) == {"intersect", "xor", "ios", "iou"}

    def test_prunable_flags(self):
        assert make_metric("intersect").prunable
        assert make_metric("ios").prunable
        assert make_metric("iou").prunable
        assert not make_metric("xor").prunable

    def test_case_insensitive(self):
        assert make_metric("IOS").name == "ios"

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError, match="unknown closeness metric"):
            make_metric("cosine")

    def test_evaluation_counter(self):
        metric = make_metric("ios")
        a, b = make_profile({"A": [1]}), make_profile({"A": [1]})
        kernel = ClosenessKernel.for_pool({}, [a, b])
        metric(kernel, a, b)
        metric(kernel, a, b)
        metric.closeness_row(kernel, a, [a, b])
        assert metric.evaluations == 4
        metric.reset_counter()
        assert metric.evaluations == 0


sets = st.sets(st.integers(0, 40), min_size=0, max_size=20)


@given(a=sets, b=sets)
def test_prop_metrics_symmetric(a, b):
    pa = make_profile({"A": a}, capacity=64)
    pb = make_profile({"A": b}, capacity=64)
    for name in METRIC_NAMES:
        assert closeness(name, pa, pb) == pytest.approx(closeness(name, pb, pa))


@given(a=sets, b=sets)
def test_prop_prunable_metrics_zero_iff_disjoint(a, b):
    pa = make_profile({"A": a}, capacity=64)
    pb = make_profile({"A": b}, capacity=64)
    disjoint = not (a & b)
    for name in ("intersect", "ios", "iou"):
        value = closeness(name, pa, pb)
        assert (value == 0.0) == disjoint
        assert value >= 0.0
