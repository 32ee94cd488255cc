"""Tests for the GIF poset and pruned closest-partner search (§IV-C.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.closeness import make_metric
from repro.core.gif import Gif, build_gifs
from repro.core.poset import Poset

from conftest import make_directory, make_profile, make_unit
from naive_cram import Unpacked
from profile_oracle import covers, validate_poset


def gif_of(bits, directory, capacity=64):
    unit = make_unit({"A": bits}, directory, capacity=capacity)
    return Gif(unit.profile, [unit])


@pytest.fixture
def directory():
    return make_directory(["A", "B"])


class TestInsertion:
    def test_single_node_under_root(self, directory):
        poset = Poset(Unpacked())
        gif = gif_of([1, 2], directory)
        node = poset.insert(gif)
        assert node.parents == {poset.root}
        assert len(poset) == 1
        validate_poset(poset)

    def test_superset_becomes_parent(self, directory):
        poset = Poset(Unpacked())
        big = gif_of([1, 2, 3], directory)
        small = gif_of([1, 2], directory)
        poset.insert(big)
        node_small = poset.insert(small)
        assert poset.node_of(big) in node_small.parents
        validate_poset(poset)

    def test_inserting_parent_after_child_relinks(self, directory):
        poset = Poset(Unpacked())
        small = gif_of([1, 2], directory)
        big = gif_of([1, 2, 3], directory)
        poset.insert(small)
        poset.insert(big)
        node_small, node_big = poset.node_of(small), poset.node_of(big)
        assert node_big in node_small.parents
        assert poset.root not in node_small.parents
        assert node_big.parents == {poset.root}
        validate_poset(poset)

    def test_siblings_for_intersecting_profiles(self, directory):
        poset = Poset(Unpacked())
        a = gif_of([1, 2], directory)
        b = gif_of([2, 3], directory)
        poset.insert(a)
        poset.insert(b)
        assert poset.node_of(a).parents == {poset.root}
        assert poset.node_of(b).parents == {poset.root}
        validate_poset(poset)

    def test_chain_insertion_any_order(self, directory):
        poset = Poset(Unpacked())
        gifs = [gif_of(range(n), directory) for n in (4, 1, 3, 2)]
        for gif in gifs:
            poset.insert(gif)
        validate_poset(poset)
        # The chain {0..3} ⊃ {0..2} ⊃ {0..1} ⊃ {0} must hold.
        by_card = sorted(gifs, key=lambda g: g.profile.cardinality)
        for smaller, larger in zip(by_card, by_card[1:]):
            node = poset.node_of(smaller)
            assert poset.node_of(larger) in node.parents

    def test_duplicate_insert_raises(self, directory):
        poset = Poset(Unpacked())
        gif = gif_of([1], directory)
        poset.insert(gif)
        with pytest.raises(ValueError):
            poset.insert(gif)

    def test_diamond_multiple_parents(self, directory):
        poset = Poset(Unpacked())
        left = gif_of([1, 2], directory)
        right = gif_of([2, 3], directory)
        bottom = gif_of([2], directory)
        for gif in (left, right, bottom):
            poset.insert(gif)
        parents = poset.node_of(bottom).parents
        assert poset.node_of(left) in parents
        assert poset.node_of(right) in parents
        validate_poset(poset)


class TestRemoval:
    def test_remove_middle_of_chain_splices(self, directory):
        poset = Poset(Unpacked())
        top = gif_of([1, 2, 3], directory)
        middle = gif_of([1, 2], directory)
        bottom = gif_of([1], directory)
        for gif in (top, middle, bottom):
            poset.insert(gif)
        poset.remove(middle)
        validate_poset(poset)
        assert middle not in poset
        node_bottom = poset.node_of(bottom)
        assert poset.node_of(top) in node_bottom.parents

    def test_remove_leaf(self, directory):
        poset = Poset(Unpacked())
        a = gif_of([1, 2], directory)
        b = gif_of([1], directory)
        poset.insert(a)
        poset.insert(b)
        poset.remove(b)
        validate_poset(poset)
        assert len(poset) == 1

    def test_remove_top_reattaches_to_root(self, directory):
        poset = Poset(Unpacked())
        top = gif_of([1, 2], directory)
        bottom = gif_of([1], directory)
        poset.insert(top)
        poset.insert(bottom)
        poset.remove(top)
        validate_poset(poset)
        assert poset.node_of(bottom).parents == {poset.root}


class TestCoveredGifs:
    def test_direct_children_only(self, directory):
        poset = Poset(Unpacked())
        top = gif_of([1, 2, 3, 4], directory)
        mid = gif_of([1, 2], directory)
        leaf = gif_of([1], directory)
        for gif in (top, mid, leaf):
            poset.insert(gif)
        assert poset.covered_gifs(top) == [mid]
        assert poset.covered_gifs(mid) == [leaf]
        assert poset.covered_gifs(leaf) == []


class TestClosestPartner:
    def test_finds_highest_closeness(self, directory):
        poset = Poset(Unpacked())
        target = gif_of([1, 2, 3, 4], directory)
        near = gif_of([1, 2, 3], directory)
        far = gif_of([1], directory)
        unrelated = gif_of([30, 31], directory)
        for gif in (target, near, far, unrelated):
            poset.insert(gif)
        metric = make_metric("ios")
        partner, value = poset.closest_partner(target, metric)
        assert partner is near
        assert value > 0

    def test_prunes_empty_subtrees(self, directory):
        poset = Poset(Unpacked())
        target = gif_of([1, 2], directory)
        poset.insert(target)
        # A disjoint chain: none of it should be evaluated past the top.
        top = gif_of([10, 11, 12, 13], directory)
        mid = gif_of([10, 11], directory)
        leaf = gif_of([10], directory)
        for gif in (top, mid, leaf):
            poset.insert(gif)
        metric = make_metric("ios")
        metric.reset_counter()
        poset.closest_partner(target, metric)
        # target vs top is evaluated (zero) → mid and leaf are pruned.
        assert metric.evaluations <= 2

    def test_xor_scans_everything(self, directory):
        poset = Poset(Unpacked())
        gifs = [gif_of([i], directory) for i in range(6)]
        for gif in gifs:
            poset.insert(gif)
        metric = make_metric("xor")
        metric.reset_counter()
        partner, value = poset.closest_partner(gifs[0], metric)
        assert partner is not None
        assert value > 0
        assert metric.evaluations == 5  # every other node evaluated

    def test_blacklisted_pair_skipped(self, directory):
        poset = Poset(Unpacked())
        a = gif_of([1, 2], directory)
        b = gif_of([1, 2, 3], directory)
        c = gif_of([1], directory)
        for gif in (a, b, c):
            poset.insert(gif)
        metric = make_metric("ios")
        partner, _ = poset.closest_partner(a, metric)
        assert partner is b
        blacklist = {frozenset((a.gif_id, b.gif_id))}
        partner, _ = poset.closest_partner(a, metric, blacklist=blacklist)
        assert partner is c

    def test_no_partner_when_all_disjoint(self, directory):
        poset = Poset(Unpacked())
        a = gif_of([1], directory)
        b = gif_of([2], directory)
        poset.insert(a)
        poset.insert(b)
        partner, value = poset.closest_partner(a, make_metric("ios"))
        assert partner is None
        assert value == 0.0

    def test_pruned_row_lists_evaluated_pairs(self, directory):
        poset = Poset(Unpacked())
        a = gif_of([1, 2], directory)
        b = gif_of([1, 3], directory)
        poset.insert(a)
        poset.insert(b)
        metric = make_metric("ios")
        candidates, values = poset.pruned_row(a, metric)
        assert [g.gif_id for g in candidates] == [b.gif_id]
        assert values == [metric(Unpacked(), a.profile, b.profile)]

    def test_search_descends_past_own_node(self, directory):
        """The target's own poset node is transparent to the search."""
        poset = Poset(Unpacked())
        target = gif_of([1, 2, 3], directory)
        below = gif_of([1, 2], directory)
        poset.insert(target)
        poset.insert(below)
        partner, value = poset.closest_partner(target, make_metric("ios"))
        assert partner is below


# ----------------------------------------------------------------------
# Property-based structural invariants
# ----------------------------------------------------------------------

profile_sets = st.lists(
    st.sets(st.integers(0, 12), min_size=1, max_size=8),
    min_size=1,
    max_size=12,
    unique_by=lambda s: frozenset(s),
)


@given(bit_sets=profile_sets)
@settings(max_examples=60)
def test_prop_insertion_keeps_invariants(bit_sets):
    directory = make_directory(["A"], last_message_id=12)
    poset = Poset(Unpacked())
    gifs = []
    for bits in bit_sets:
        gif = gif_of(bits, directory)
        gifs.append(gif)
        poset.insert(gif)
        validate_poset(poset)
    # Every strict-superset relation must be reachable via ancestors.
    for gif in gifs:
        node = poset.node_of(gif)
        ancestors = set()
        stack = list(node.parents)
        while stack:
            parent = stack.pop()
            if parent in ancestors:
                continue
            ancestors.add(parent)
            stack.extend(parent.parents)
        for other in gifs:
            if other is gif:
                continue
            if covers(other.profile, gif.profile) and not covers(
                gif.profile, other.profile
            ):
                assert poset.node_of(other) in ancestors


def gif_of(bits, directory, capacity=64):  # redefined for hypothesis scope
    unit = make_unit({"A": bits}, directory, capacity=capacity)
    return Gif(unit.profile, [unit])


@given(bit_sets=profile_sets)
@settings(max_examples=40)
def test_prop_pruned_intersect_search_matches_exhaustive(bit_sets):
    """For INTERSECT the decrease-prune is exact: |∩| is non-increasing
    down the poset, so a pruned subtree can never hold a better pair."""
    directory = make_directory(["A"], last_message_id=12)
    kernel = Unpacked()
    poset = Poset(kernel)
    gifs = [gif_of(bits, directory) for bits in bit_sets]
    for gif in gifs:
        poset.insert(gif)
    metric = make_metric("intersect")
    for gif in gifs:
        _partner, value = poset.closest_partner(gif, metric)
        best = max(
            (metric(kernel, gif.profile, other.profile) for other in gifs if other is not gif),
            default=0.0,
        )
        assert value == pytest.approx(best)


@given(bit_sets=profile_sets)
@settings(max_examples=40)
def test_prop_pruned_ios_search_is_sound_heuristic(bit_sets):
    """For IOS/IOU the decrease-prune is the paper's heuristic: it may
    return a lower-closeness pair on adversarial posets, but it never
    overshoots the true best and never misses that *a* partner exists."""
    directory = make_directory(["A"], last_message_id=12)
    kernel = Unpacked()
    poset = Poset(kernel)
    gifs = [gif_of(bits, directory) for bits in bit_sets]
    for gif in gifs:
        poset.insert(gif)
    metric = make_metric("ios")
    for gif in gifs:
        _partner, value = poset.closest_partner(gif, metric)
        best = max(
            (metric(kernel, gif.profile, other.profile) for other in gifs if other is not gif),
            default=0.0,
        )
        assert value <= best + 1e-12
        assert (value > 0) == (best > 0)
