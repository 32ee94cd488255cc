"""Tests for GIF grouping — CRAM optimization 1."""

import pytest

from repro.core.gif import Gif, build_gifs, gif_reduction_ratio
from repro.core.units import AllocationUnit

from conftest import make_directory, make_kernel, make_unit


@pytest.fixture
def directory():
    return make_directory(["A", "B"])


class TestBuildGifs:
    def test_groups_identical_profiles(self, directory):
        units = [
            make_unit({"A": [1, 2]}, directory),
            make_unit({"A": [1, 2]}, directory),
            make_unit({"A": [1, 3]}, directory),
        ]
        gifs = build_gifs(units)
        assert len(gifs) == 2
        sizes = sorted(gif.unit_count for gif in gifs)
        assert sizes == [1, 2]

    def test_grouping_spans_publishers(self, directory):
        units = [
            make_unit({"A": [1], "B": [2]}, directory),
            make_unit({"B": [2], "A": [1]}, directory),
        ]
        assert len(build_gifs(units)) == 1

    def test_empty_profiles_group_together(self, directory):
        units = [make_unit({}, directory), make_unit({}, directory)]
        gifs = build_gifs(units)
        assert len(gifs) == 1
        assert gifs[0].unit_count == 2

    def test_preserves_first_seen_order(self, directory):
        units = [
            make_unit({"A": [9]}, directory),
            make_unit({"A": [1]}, directory),
        ]
        gifs = build_gifs(units)
        assert gifs[0].profile.vector("A").to_list() == [9]

    def test_no_units(self):
        assert build_gifs([]) == []


class TestGif:
    def test_counts_and_bandwidth(self, directory):
        a = make_unit({"A": range(32)}, directory)  # 5 kB/s
        b = make_unit({"A": range(32)}, directory)
        gif = Gif(a.profile, [a, b])
        assert gif.unit_count == 2
        assert gif.subscription_count == 2
        assert gif.total_bandwidth == pytest.approx(10.0)

    def test_lightest_unit(self, directory):
        light = make_unit({"A": [1]}, directory)
        pair = [make_unit({"A": [1]}, directory), make_unit({"A": [1]}, directory)]
        heavy = AllocationUnit.merged(pair, directory, make_kernel(directory, pair))
        gif = Gif(light.profile, [heavy, light])
        assert gif.lightest_unit() is light

    def test_lightest_unit_empty_gif_raises(self, directory):
        gif = Gif(make_unit({"A": [1]}, directory).profile, [])
        with pytest.raises(ValueError):
            gif.lightest_unit()

    def test_units_ascending_bandwidth_deterministic(self, directory):
        units = [make_unit({"A": [1]}, directory) for _ in range(3)]
        gif = Gif(units[0].profile, units)
        ordered = gif.units_ascending_bandwidth()
        assert [u.unit_id for u in ordered] == sorted(u.unit_id for u in units)

    def test_remove_and_add_units(self, directory):
        a = make_unit({"A": [1]}, directory)
        b = make_unit({"A": [1]}, directory)
        gif = Gif(a.profile, [a, b])
        gif.remove_units([a])
        assert gif.unit_count == 1
        assert not gif.is_empty()
        gif.remove_units([b])
        assert gif.is_empty()
        gif.add_unit(a)
        assert gif.unit_count == 1


class TestReductionRatio:
    def test_paper_style_reduction(self):
        """8,000 subscriptions to 3,120 GIFs ≈ the paper's 61%."""
        assert gif_reduction_ratio(8000, 3120) == pytest.approx(0.61)

    def test_zero_subscriptions(self):
        assert gif_reduction_ratio(0, 0) == 0.0

    def test_no_reduction(self):
        assert gif_reduction_ratio(10, 10) == 0.0

    def test_workload_template_subscriptions_collapse(self, directory):
        """40% identical template subs per symbol → one GIF per symbol."""
        units = [make_unit({"A": range(64)}, directory) for _ in range(10)]
        units += [make_unit({"B": range(64)}, directory) for _ in range(10)]
        gifs = build_gifs(units)
        assert len(gifs) == 2
        assert gif_reduction_ratio(len(units), len(gifs)) == pytest.approx(0.9)
