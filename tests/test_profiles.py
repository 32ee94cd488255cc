"""Tests for subscription/publisher profiles and load estimation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernel import ClosenessKernel
from repro.core.profiles import (
    PublisherProfile,
    SubscriptionProfile,
    merge_profiles,
)

import profile_oracle
from conftest import make_directory, make_profile


class TestPublisherProfile:
    def test_message_size(self):
        publisher = PublisherProfile("A", publication_rate=50.0, bandwidth=100.0)
        assert publisher.message_size == pytest.approx(2.0)

    def test_message_size_zero_rate(self):
        publisher = PublisherProfile("A", publication_rate=0.0, bandwidth=0.0)
        assert publisher.message_size == 0.0

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            PublisherProfile("A", publication_rate=-1.0, bandwidth=0.0)

    def test_record_publication_monotonic(self):
        publisher = PublisherProfile("A", publication_rate=1.0, bandwidth=1.0)
        publisher.record_publication(10)
        publisher.record_publication(5)
        assert publisher.last_message_id == 10


class TestRecordingAndEstimation:
    def test_paper_estimation_example(self):
        """10/100 bits against a 50 msg/s, 50 kB/s publisher → 5 and 5."""
        publisher = PublisherProfile("A", publication_rate=50.0, bandwidth=50.0,
                                     last_message_id=99)
        profile = SubscriptionProfile(capacity=100)
        for pub_id in range(10):
            profile.record("A", pub_id)
        directory = {"A": publisher}
        assert profile.estimated_rate(directory) == pytest.approx(5.0)
        assert profile.estimated_bandwidth(directory) == pytest.approx(5.0)

    def test_estimation_sums_over_publishers(self):
        directory = make_directory(["A", "B"], rate=10.0, bandwidth=20.0,
                                   last_message_id=63)
        profile = make_profile({"A": range(32), "B": range(16)}, capacity=64)
        # A: 32/64 * 10 = 5 msg/s;  B: 16/64 * 10 = 2.5 msg/s
        assert profile.estimated_rate(directory) == pytest.approx(7.5)
        assert profile.estimated_bandwidth(directory) == pytest.approx(15.0)

    def test_estimation_with_short_observation_window(self):
        """Publisher has only published 10 messages into a 100-bit vector."""
        publisher = PublisherProfile("A", publication_rate=10.0, bandwidth=10.0,
                                     last_message_id=9)
        profile = SubscriptionProfile(capacity=100)
        for pub_id in range(0, 10, 2):  # 5 of the 10 published
            profile.record("A", pub_id)
        assert profile.estimated_rate({"A": publisher}) == pytest.approx(5.0)

    def test_unknown_publisher_contributes_nothing(self):
        profile = make_profile({"X": [1, 2, 3]})
        assert profile.estimated_rate({}) == 0.0

    def test_fraction_clamped_to_one(self):
        publisher = PublisherProfile("A", publication_rate=10.0, bandwidth=10.0,
                                     last_message_id=1)
        profile = make_profile({"A": [0, 1, 2, 3]}, capacity=8)
        assert profile.fraction("A", publisher) == 1.0

    def test_record_returns_false_for_stale(self):
        profile = SubscriptionProfile(capacity=4)
        profile.record("A", 100)
        assert not profile.record("A", 3)

    def test_len_and_cardinality(self):
        profile = make_profile({"A": [1, 2], "B": [7]})
        assert len(profile) == 2
        assert profile.cardinality == 3

    def test_bool_empty_vector_profile(self):
        profile = SubscriptionProfile(capacity=8)
        assert not profile
        profile.record("A", 0)
        assert profile


class TestSynchronize:
    def test_synchronize_aligns_to_publisher(self):
        directory = make_directory(["A"], last_message_id=100)
        profile = make_profile({"A": [1, 2, 3]}, capacity=16)
        profile.synchronize(directory)
        vector = profile.vector("A")
        assert vector.first_id == 100 - 16 + 1

    def test_synchronize_ignores_unknown_publishers(self):
        profile = make_profile({"Z": [1]}, capacity=16)
        profile.synchronize({})  # must not raise
        assert profile.vector("Z").first_id == 0


class TestSetAlgebra:
    def test_union_merges_across_publishers(self):
        first = make_profile({"A": [1, 2]})
        second = make_profile({"A": [2, 3], "B": [9]})
        merged = first.union(second)
        assert merged.vector("A").to_list() == [1, 2, 3]
        assert merged.vector("B").to_list() == [9]

    def test_union_leaves_operands_untouched(self):
        first = make_profile({"A": [1]})
        second = make_profile({"B": [2]})
        first.union(second)
        assert first.vector("B") is None
        assert second.vector("A") is None

    def test_cardinalities_across_publishers(self):
        first = make_profile({"A": [1, 2], "B": [5]})
        second = make_profile({"A": [2, 3], "C": [8]})
        assert profile_oracle.counts(first, second) == (1, 5, 4)
        kernel = ClosenessKernel.for_pool({}, [first, second])
        assert kernel.fused_counts(first, second) == (1, 5)

    def test_covers_multi_publisher(self):
        big = make_profile({"A": [1, 2, 3], "B": [4]})
        small = make_profile({"A": [2], "B": [4]})
        kernel = ClosenessKernel.for_pool({}, [big, small])
        for covers in (profile_oracle.covers, kernel.covers):
            assert covers(big, small)
            assert not covers(small, big)

    def test_covers_requires_all_publishers(self):
        big = make_profile({"A": [1, 2, 3]})
        small = make_profile({"A": [1], "B": [0]})
        kernel = ClosenessKernel.for_pool({}, [big, small])
        assert not profile_oracle.covers(big, small)
        assert not kernel.covers(big, small)

    def test_disjoint(self):
        first = make_profile({"A": [1]})
        second = make_profile({"A": [2], "B": [1]})
        kernel = ClosenessKernel.for_pool({}, [first, second])
        assert profile_oracle.counts(first, second)[0] == 0
        assert kernel.fused_counts(first, second)[0] == 0

    def test_merge_profiles_helper(self):
        merged = merge_profiles(
            [make_profile({"A": [1]}), make_profile({"A": [2]}), make_profile({"B": [3]})]
        )
        assert merged.cardinality == 3

    def test_merge_profiles_empty_iterable(self):
        assert merge_profiles([]).cardinality == 0


class TestIdentity:
    def test_signature_equality(self):
        first = make_profile({"A": [1, 2], "B": [3]})
        second = make_profile({"B": [3], "A": [1, 2]})
        assert first == second
        assert hash(first) == hash(second)

    def test_signature_ignores_empty_vectors(self):
        first = make_profile({"A": [1]})
        second = make_profile({"A": [1]})
        second._vectors["B"] = second._vectors["A"].__class__(capacity=8)
        assert first == second

    def test_different_bits_differ(self):
        assert make_profile({"A": [1]}) != make_profile({"A": [2]})

    def test_copy_independent(self):
        original = make_profile({"A": [1]})
        clone = original.copy()
        clone.record("A", 2)
        assert original.cardinality == 1


@given(
    bits=st.lists(
        st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(0, 63)),
        max_size=50,
    )
)
def test_prop_union_with_self_is_identity(bits):
    profile = SubscriptionProfile(capacity=64)
    for adv, pub_id in bits:
        profile.record(adv, pub_id)
    assert profile.union(profile) == profile
    card = profile.cardinality
    assert profile_oracle.counts(profile, profile) == (card, card, 0)
