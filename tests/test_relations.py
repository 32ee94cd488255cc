"""Tests for bit-vector relationship identification.

The production classifier is the kernel's, on packed bits; the
properties also hold the per-publisher oracle to the same answers.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.kernel import ClosenessKernel
from repro.core.profiles import SubscriptionProfile
from repro.core.relations import Relation

import profile_oracle
from conftest import make_profile


def relationship(first, second):
    return ClosenessKernel.for_pool({}, [first, second]).relationship(first, second)


class TestRelationship:
    def test_equal(self):
        a = make_profile({"A": [1, 2, 3]})
        b = make_profile({"A": [1, 2, 3]})
        assert relationship(a, b) is Relation.EQUAL

    def test_superset_subset(self):
        big = make_profile({"A": [1, 2, 3]})
        small = make_profile({"A": [2, 3]})
        assert relationship(big, small) is Relation.SUPERSET
        assert relationship(small, big) is Relation.SUBSET

    def test_intersect(self):
        a = make_profile({"A": [1, 2]})
        b = make_profile({"A": [2, 3]})
        assert relationship(a, b) is Relation.INTERSECT

    def test_empty(self):
        a = make_profile({"A": [1]})
        b = make_profile({"A": [2]})
        assert relationship(a, b) is Relation.EMPTY

    def test_empty_across_publishers(self):
        a = make_profile({"A": [1]})
        b = make_profile({"B": [1]})
        assert relationship(a, b) is Relation.EMPTY

    def test_superset_across_publishers(self):
        big = make_profile({"A": [1], "B": [2, 3]})
        small = make_profile({"B": [2]})
        assert relationship(big, small) is Relation.SUPERSET

    def test_intersect_mixed_publishers(self):
        a = make_profile({"A": [1], "B": [2]})
        b = make_profile({"B": [2], "C": [5]})
        assert relationship(a, b) is Relation.INTERSECT

    def test_both_empty_profiles(self):
        a = SubscriptionProfile(capacity=8)
        b = SubscriptionProfile(capacity=8)
        assert relationship(a, b) is Relation.EMPTY


sets = st.sets(st.integers(0, 40), max_size=20)


@given(a=sets, b=sets)
def test_prop_relationship_matches_set_semantics(a, b):
    pa = make_profile({"A": a}, capacity=64)
    pb = make_profile({"A": b}, capacity=64)
    rel = relationship(pa, pb)
    assert profile_oracle.relationship(pa, pb) is rel
    if not a & b:
        assert rel is Relation.EMPTY
    elif a == b:
        assert rel is Relation.EQUAL
    elif b < a:
        assert rel is Relation.SUPERSET
    elif a < b:
        assert rel is Relation.SUBSET
    else:
        assert rel is Relation.INTERSECT


@given(a=sets, b=sets)
def test_prop_relationship_symmetry(a, b):
    pa = make_profile({"A": a}, capacity=64)
    pb = make_profile({"A": b}, capacity=64)
    inverse = {Relation.SUPERSET: Relation.SUBSET, Relation.SUBSET: Relation.SUPERSET}
    relation = relationship(pa, pb)
    assert inverse.get(relation, relation) is relationship(pb, pa)
