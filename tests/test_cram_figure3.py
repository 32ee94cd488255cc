"""The paper's Figure 3 scenario, reconstructed bit-for-bit.

S1 has 36 bits, S2 has 16 bits, their intersection is the 8 shaded
bits; S1 covers a family of 2x2-block subscriptions (4 bits each) and
S2 covers 1x1-block subscriptions (1 bit each).  The paper computes:

* IOS(S1, S2)            = 8²  / (36+16) ≈ 1.23  (text rounds via 60 → 1.07)
* IOS(S1, one 2x2 block) = 4²  / (36+4)  = 0.4
* IOS(S2, one 1x1 block) = 1²  / (16+1)  ≈ 0.059 (text: 1²/25 with the
  pre-merge convention)

and argues pairwise clustering would merge S1+S2 first, whereas
one-to-many clustering (optimization 3) should first merge each parent
with its covered subscriptions because IOS(S1, all its blocks) =
12²/48 = 3 exceeds IOS(S1, S2).

This module checks our metric reproduces those orderings and that CRAM
with optimization 3 indeed clusters the covered set before the
S1+S2 pair.
"""

import pytest

from repro.core.cram import CramAllocator
from repro.core.kernel import ClosenessKernel
from repro.core.profiles import merge_profiles
from repro.core.relations import Relation
from repro.core.units import units_from_records

from conftest import make_directory, make_record, make_pool

# Bit layout (one publisher "A", window 64):
#   S1 = bits 0..35 (36 bits)
#   S2 = bits 28..43 (16 bits) → overlap = 28..35 (8 bits)
S1_BITS = range(0, 36)
S2_BITS = range(28, 44)
# Covered blocks: three disjoint 4-bit blocks inside S1's exclusive
# region, and four 1-bit blocks inside S2's exclusive region.
S1_BLOCKS = [range(0, 4), range(4, 8), range(8, 12)]
S2_BLOCKS = [[36], [38], [40], [42]]


@pytest.fixture
def directory():
    return make_directory(["A"], rate=10.0, bandwidth=10.0, last_message_id=63)


def records():
    recs = [
        make_record({"A": S1_BITS}, sub_id="S1"),
        make_record({"A": S2_BITS}, sub_id="S2"),
    ]
    for index, block in enumerate(S1_BLOCKS):
        recs.append(make_record({"A": block}, sub_id=f"S1-block-{index}"))
    for index, block in enumerate(S2_BLOCKS):
        recs.append(make_record({"A": block}, sub_id=f"S2-block-{index}"))
    return recs


def figure3_kernel(recs):
    """The kernel CRAM packs the Figure 3 pool into."""
    return ClosenessKernel.for_pool({}, [record.profile for record in recs.values()])


class TestFigure3Numbers:
    def test_cardinalities(self):
        recs = {record.sub_id: record for record in records()}
        assert recs["S1"].profile.cardinality == 36
        assert recs["S2"].profile.cardinality == 16
        kernel = figure3_kernel(recs)
        assert kernel.fused_counts(recs["S1"].profile, recs["S2"].profile)[0] == 8

    def test_pairwise_closeness_ordering(self):
        recs = {record.sub_id: record for record in records()}
        s1, s2 = recs["S1"].profile, recs["S2"].profile
        block = recs["S1-block-0"].profile
        kernel = figure3_kernel(recs)
        ios_pair = kernel.closeness("ios", s1, s2)
        ios_block = kernel.closeness("ios", s1, block)
        assert ios_pair == pytest.approx(64 / 52)
        assert ios_block == pytest.approx(16 / 40)
        # The pairwise trap: S1+S2 looks better than S1+block...
        assert ios_pair > ios_block
        # S2's blocks fall outside S2 here, used only as covered set.
        assert kernel.relationship(s1, block) is Relation.SUPERSET

    def test_covered_set_beats_the_pair(self):
        """IOS(S1, union of its covered blocks) exceeds IOS(S1, S2)."""
        recs = {record.sub_id: record for record in records()}
        s1 = recs["S1"].profile
        covered_union = merge_profiles(
            recs[f"S1-block-{index}"].profile for index in range(3)
        )
        assert covered_union.cardinality == 12
        kernel = figure3_kernel(recs)
        ios_cgs = kernel.closeness("ios", covered_union, s1)
        ios_pair = kernel.closeness("ios", s1, recs["S2"].profile)
        assert ios_cgs == pytest.approx(144 / 48)
        assert ios_cgs > ios_pair


class TestCramOnFigure3:
    def test_one_to_many_clusters_covered_blocks_with_parent(self, directory):
        units = units_from_records(records(), directory)
        cram = CramAllocator(metric="ios", enable_one_to_many=True)
        result = cram.allocate(units, make_pool(6, bandwidth=1000.0), directory)
        assert result.success
        assert cram.last_stats.merges >= 1
        # Somewhere in the final pool, S1 is clustered together with at
        # least one of its covered blocks.
        placement = result.subscription_placement()
        clustered_with_s1 = set()
        for bin_ in result.bins:
            for unit in bin_.units:
                ids = set(unit.member_ids)
                if "S1" in ids:
                    clustered_with_s1 = ids
        assert any(
            sub_id.startswith("S1-block-") for sub_id in clustered_with_s1
        ), f"S1 ended up clustered with {sorted(clustered_with_s1)}"
        assert len(placement) == len(units)

    def test_disabled_one_to_many_pairs_s1_s2_first(self, directory):
        units = units_from_records(records(), directory)
        cram = CramAllocator(metric="ios", enable_one_to_many=False,
                             max_iterations=1)
        result = cram.allocate(units, make_pool(6, bandwidth=1000.0), directory)
        assert result.success
        if cram.last_stats.merges:
            merged_ids = set()
            for bin_ in result.bins:
                for unit in bin_.units:
                    if unit.subscription_count > 1:
                        merged_ids = set(unit.member_ids)
            assert merged_ids == {"S1", "S2"}
