"""Unit and property tests for the bounded bit vector (paper §III-B).

``BitVector`` records and unions; the pairwise counts and coverage are
the kernel's in production, and the per-vector reference checked here
is ``profile_oracle``'s.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitvector import DEFAULT_CAPACITY, BitVector

from profile_oracle import aligned, vector_counts, vector_covers


class TestConstruction:
    def test_default_capacity_matches_paper(self):
        assert DEFAULT_CAPACITY == 1280
        assert BitVector().capacity == 1280

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            BitVector(capacity=0)
        with pytest.raises(ValueError):
            BitVector(capacity=-5)

    def test_rejects_negative_first_id(self):
        with pytest.raises(ValueError):
            BitVector(capacity=8, first_id=-1)

    def test_from_ids(self):
        vector = BitVector.from_ids([3, 5, 7], capacity=10)
        assert vector.to_list() == [3, 5, 7]
        assert vector.cardinality == 3

    def test_from_ids_drops_ids_older_than_final_window(self):
        vector = BitVector.from_ids([0, 1, 100], capacity=10)
        # Window slid to end at 100; 0 and 1 fell out.
        assert vector.to_list() == [100]

    def test_copy_is_independent(self):
        vector = BitVector.from_ids([1, 2], capacity=8)
        clone = vector.copy()
        clone.set(3)
        assert vector.to_list() == [1, 2]
        assert clone.to_list() == [1, 2, 3]


class TestSetAndShift:
    def test_simple_set_and_test(self):
        vector = BitVector(capacity=8)
        assert vector.set(5)
        assert vector.test(5)
        assert not vector.test(4)

    def test_paper_shift_example(self):
        """Length 10, first bit 100, incoming ID 119 → shift 10, counter 110."""
        vector = BitVector(capacity=10, first_id=100)
        assert vector.set(119)
        assert vector.first_id == 110
        assert vector.test(119)

    def test_shift_preserves_recent_bits(self):
        vector = BitVector(capacity=10, first_id=0)
        for pub_id in (0, 5, 9):
            vector.set(pub_id)
        vector.set(12)  # window becomes [3, 12]
        assert vector.first_id == 3
        assert vector.to_list() == [5, 9, 12]

    def test_shift_beyond_capacity_clears_everything_old(self):
        vector = BitVector.from_ids(range(10), capacity=10)
        vector.set(1000)
        assert vector.to_list() == [1000]

    def test_stale_id_is_ignored(self):
        vector = BitVector(capacity=10, first_id=100)
        assert not vector.set(99)
        assert vector.cardinality == 0

    def test_set_is_idempotent(self):
        vector = BitVector(capacity=10)
        vector.set(4)
        vector.set(4)
        assert vector.cardinality == 1

    def test_synchronize_advances_window(self):
        vector = BitVector.from_ids([0, 1, 2], capacity=4)
        vector.synchronize(6)  # window should end at 6 → first = 3
        assert vector.first_id == 3
        assert vector.cardinality == 0

    def test_synchronize_never_moves_backwards(self):
        vector = BitVector(capacity=4, first_id=10)
        vector.synchronize(5)
        assert vector.first_id == 10

    def test_synchronize_keeps_bits_in_new_window(self):
        vector = BitVector.from_ids([4, 5, 6], capacity=8)
        vector.synchronize(9)  # window [2, 9] — all bits retained
        assert vector.to_list() == [4, 5, 6]


class TestQueries:
    def test_bool_and_density(self):
        vector = BitVector(capacity=10)
        assert not vector
        vector.set(0)
        assert vector
        assert vector.density() == pytest.approx(0.1)

    def test_len_is_capacity(self):
        assert len(BitVector(capacity=33)) == 33

    def test_test_outside_window(self):
        vector = BitVector(capacity=4, first_id=8)
        assert not vector.test(7)
        assert not vector.test(12)


class TestBinaryOperations:
    def test_union_same_window(self):
        a = BitVector.from_ids([1, 2], capacity=8)
        b = BitVector.from_ids([2, 3], capacity=8)
        assert a.union(b).to_list() == [1, 2, 3]

    def test_intersection_and_cardinalities(self):
        a = BitVector.from_ids([1, 2, 4], capacity=8)
        b = BitVector.from_ids([2, 4, 6], capacity=8)
        mine, theirs = aligned(a, b)
        assert mine & theirs == (1 << 2) | (1 << 4)
        assert vector_counts(a, b) == (2, 4, 2)

    def test_symmetric_difference(self):
        a = BitVector.from_ids([1, 2], capacity=8)
        b = BitVector.from_ids([2, 3], capacity=8)
        mine, theirs = aligned(a, b)
        assert mine ^ theirs == (1 << 1) | (1 << 3)

    def test_misaligned_windows_compare_common_window_only(self):
        a = BitVector.from_ids([0, 5], capacity=6)  # window [0, 5]
        b = BitVector(capacity=6, first_id=4)
        b.set(5)
        # Common window starts at 4: a contributes {5}, b contributes {5}.
        assert vector_counts(a, b)[0] == 1
        assert a.union(b).to_list() == [5]

    def test_covers(self):
        big = BitVector.from_ids([1, 2, 3], capacity=8)
        small = BitVector.from_ids([2, 3], capacity=8)
        assert vector_covers(big, small)
        assert not vector_covers(small, big)
        assert vector_covers(big, big)

    def test_empty_covers_and_disjoint(self):
        empty = BitVector(capacity=8)
        other = BitVector.from_ids([1], capacity=8)
        assert vector_covers(other, empty)
        assert vector_counts(empty, other)[0] == 0

    def test_union_does_not_mutate_operands(self):
        a = BitVector.from_ids([1], capacity=8)
        b = BitVector.from_ids([2], capacity=8)
        a.union(b)
        assert a.to_list() == [1]
        assert b.to_list() == [2]


class TestIdentity:
    def test_equal_patterns_hash_equal(self):
        a = BitVector.from_ids([3, 4], capacity=16)
        b = BitVector.from_ids([3, 4], capacity=16)
        assert a == b
        assert hash(a) == hash(b)

    def test_same_bits_different_window_starts(self):
        a = BitVector.from_ids([10, 11], capacity=16)
        b = BitVector(capacity=16, first_id=8)
        b.set(10)
        b.set(11)
        assert a == b
        assert vector_counts(a, b)[2] == 0

    def test_empty_vectors_equal(self):
        assert BitVector(capacity=4) == BitVector(capacity=9, first_id=100)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------

ids = st.lists(st.integers(min_value=0, max_value=200), min_size=0, max_size=40)


@given(ids=ids)
def test_prop_from_ids_recent_ids_always_recorded(ids):
    vector = BitVector.from_ids(ids, capacity=64)
    if ids:
        newest = max(ids)
        assert vector.test(newest)
        # Everything within the final window must be present.
        for pub_id in ids:
            if pub_id > newest - 64:
                assert vector.test(pub_id)


@given(a=ids, b=ids)
def test_prop_cardinality_identities(a, b):
    # Use a capacity wide enough that no sliding occurs, so the bit
    # vectors behave as plain sets.
    va = BitVector.from_ids(a, capacity=256)
    vb = BitVector.from_ids(b, capacity=256)
    sa, sb = set(a), set(b)
    assert vector_counts(va, vb) == (len(sa & sb), len(sa | sb), len(sa ^ sb))
    assert vector_covers(va, vb) == (sb <= sa)
    assert va.union(vb).cardinality == len(sa | sb)


@given(a=ids, b=ids)
def test_prop_union_commutes(a, b):
    va = BitVector.from_ids(a, capacity=256)
    vb = BitVector.from_ids(b, capacity=256)
    assert va.union(vb) == vb.union(va)


@given(a=ids)
def test_prop_union_idempotent(a):
    va = BitVector.from_ids(a, capacity=256)
    assert va.union(va) == va


@given(seq=st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=60))
def test_prop_window_invariants_after_arbitrary_sets(seq):
    vector = BitVector(capacity=32)
    for pub_id in seq:
        vector.set(pub_id)
        assert vector.cardinality <= 32
        for set_id in vector.set_ids():
            assert vector.first_id <= set_id < vector.first_id + 32


@given(
    ids=st.lists(st.integers(min_value=0, max_value=300), min_size=0, max_size=30),
    last=st.integers(min_value=0, max_value=400),
)
def test_prop_synchronize_preserves_in_window_bits(ids, last):
    """Synchronizing to a publisher's last message keeps exactly the
    bits inside the final window and drops the rest."""
    vector = BitVector.from_ids(ids, capacity=32)
    before = set(vector.set_ids())
    vector.synchronize(last)
    after = set(vector.set_ids())
    window_start = max(vector.first_id, 0)
    assert after == {i for i in before if i >= window_start}
    if last >= 31:
        assert vector.first_id >= last - 32 + 1


@given(
    a=st.lists(st.integers(min_value=0, max_value=100), max_size=25),
    b=st.lists(st.integers(min_value=0, max_value=100), max_size=25),
)
def test_prop_union_covers_common_window_operands(a, b):
    """The union covers each operand restricted to the common window."""
    va = BitVector.from_ids(a, capacity=128)
    vb = BitVector.from_ids(b, capacity=128)
    union = va.union(vb)
    start = max(va.first_id, vb.first_id)
    for pub_id in set(a) | set(b):
        if pub_id >= start:
            assert union.test(pub_id)


@given(
    sets=st.lists(
        st.sets(st.integers(min_value=0, max_value=60), max_size=15),
        min_size=1,
        max_size=5,
    )
)
def test_prop_union_is_associative_over_lists(sets):
    vectors = [BitVector.from_ids(s, capacity=128) for s in sets]
    left = vectors[0]
    for vector in vectors[1:]:
        left = left.union(vector)
    right = vectors[-1]
    for vector in reversed(vectors[:-1]):
        right = vector.union(right)
    assert left == right
