"""Kernel vs naive equivalence (the kernel's exactness contract).

The fused bit-plane kernel (:mod:`repro.core.kernel`) is the one
profile algebra in ``src/``; the per-publisher walk of
``profile_oracle`` (and CRAM over it, ``naive_cram``) is the reference.
The two must agree on every metric value, relationship, coverage
verdict, allocation and evaluation counter.  These tests pin that
contract on seeded end-to-end scenarios, on pools CROC gathered under
loss and jitter, and on generated pools.  A pool no gather produces (a
publisher seen under two windows) is an error, not a slower path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import allocators
from repro.core.binpacking import StandingOrder
from repro.core.closeness import METRIC_NAMES, make_metric
from repro.core.cram import CramAllocator, _CramState
from repro.core.croc import Croc
from repro.core.gif import Gif
from repro.core.kernel import ClosenessKernel
from repro.core.pairwise import pairwise_cluster
from repro.core.poset import Poset
from repro.core.profiles import PublisherProfile
from repro.core.relations import Relation
from repro.core.units import units_from_records
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_heterogeneous, cluster_homogeneous

import cut_probe_oracle
import profile_oracle
from conftest import make_directory, make_pool, make_profile, make_spec, make_unit
from first_fit_oracle import OracleBin
from naive_cram import NaiveCramAllocator, scan_best_pair
from test_gather_alignment import gathered_under

# Three seeded scenarios: two homogeneous sizes and one heterogeneous
# pool (different tiers, skewed subscription counts) ...
SCENARIOS = [
    ("homo-small", partial(offline_gather, cluster_homogeneous(
        subscriptions_per_publisher=8, scale=0.08), seed=7)),
    ("homo-dense", partial(offline_gather, cluster_homogeneous(
        subscriptions_per_publisher=14, scale=0.06), seed=11)),
    ("hetero", partial(offline_gather, cluster_heterogeneous(ns=12, scale=0.05), seed=13)),
]
# ... and the ``LOADED`` gathers whose windows were apart before each
# gather became one alignment (silent brokers, unreported publishers,
# vectors ahead of their publisher's report).
SCENARIOS += [
    (f"loaded-loss-{seed}", partial(gathered_under, 0.05, 0.0, seed))
    for seed in (2, 3, 2011)
] + [("loaded-jitter-1", partial(gathered_under, 0.0, 0.05, 1))]


def _gathered(gather):
    """A gather and fresh units over its records."""
    gathered = gather()
    return gathered, units_from_records(gathered.records, gathered.directory)


def _placement_signature(result):
    return (
        result.success,
        result.broker_count,
        sorted(result.subscription_placement().items()),
    )


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
@pytest.mark.parametrize(
    "scenario", SCENARIOS, ids=[name for name, _ in SCENARIOS]
)
class TestAllocationEquivalence:
    def test_identical_allocations_and_counters(self, scenario, metric_name):
        """CRAM with the kernel reproduces the naive run bit-for-bit."""
        _, gather_pool = scenario
        signatures = []
        counters = []
        for allocator in (NaiveCramAllocator, CramAllocator):
            gather, units = _gathered(gather_pool)
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
        assert signatures[0] == signatures[1]
        assert counters[0] == counters[1]

    def test_identical_closeness_values(self, scenario, metric_name):
        """Every pairwise metric value matches the oracle's float exactly."""
        _, gather_pool = scenario
        gather, units = _gathered(gather_pool)
        profiles = [unit.profile for unit in units][:40]
        kernel = ClosenessKernel.for_pool(gather.directory, profiles)
        metric = make_metric(metric_name)
        anchor = profiles[0]
        others = profiles[1:]
        naive_row = [profile_oracle.closeness(metric_name, anchor, other) for other in others]
        # Bit-for-bit, both per-pair and batched (no approx).
        assert [metric(kernel, anchor, other) for other in others] == naive_row
        assert metric.closeness_row(kernel, anchor, others) == naive_row
        # Asked again, the batched form recomputes the same floats.
        assert metric.closeness_row(kernel, anchor, others) == naive_row
        assert metric.evaluations == 3 * len(others)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=[name for name, _ in SCENARIOS])
def test_identical_relationships_and_coverage(scenario):
    """Every ordered pair (self-pairs included) of a gathered pool: the
    kernel's relationship and coverage verdicts are the oracle's."""
    gather, units = _gathered(scenario[1])
    profiles = [unit.profile for unit in units][:40]
    kernel = ClosenessKernel.for_pool(gather.directory, profiles)
    relations = set()
    for first in profiles:
        for second in profiles:
            relation = kernel.relationship(first, second)
            assert relation is profile_oracle.relationship(first, second)
            assert kernel.covers(first, second) is profile_oracle.covers(first, second)
            relations.add(relation)
    assert relations == set(Relation)


def _bins(result):
    """Placements and bin floats, by subscription (unit IDs are per run)."""
    return (
        result.success,
        [
            (
                bin_.spec.broker_id,
                [unit.member_ids for unit in bin_.units],
                bin_.used_bandwidth,
                bin_.input_rate,
                bin_.subscription_count,
            )
            for bin_ in result.bins
        ],
    )


class TestFusedCountsFallbacks:
    """Direct fused_counts checks, and the pools that cannot pack."""

    def test_pure_pair_counts(self):
        directory = make_directory(["A", "B"])
        a = make_profile({"A": [1, 2, 3], "B": [10, 11]})
        b = make_profile({"A": [2, 3, 4]})
        kernel = ClosenessKernel.for_pool(directory, [a, b])
        expected = profile_oracle.counts(a, b)[:2]
        for _ in range(2):
            assert kernel.fused_counts(a, b) == expected
            assert kernel.fused_counts(b, a) == expected

    def test_misaligned_pool_is_an_error(self):
        """No gather leaves a publisher under two windows (here A's late
        vector slid to 37), so CRAM and PAIRWISE have no kernel-less
        path to take: the pool is refused, naming the publisher."""
        directory = make_directory(["A", "B"])
        units = [make_unit(pattern, directory, sub_id=f"s{index}")
                 for index, pattern in enumerate([
                     {"A": range(8), "B": range(16)},
                     {"A": range(4, 12)},
                     {"A": range(70, 101), "B": range(16)},
                 ])]
        assert units[2].profile.vector("A").first_id == 37
        with pytest.raises(ValueError, match=r"publisher 'A' has window \(37, 64\)"):
            CramAllocator(metric="ios").allocate(units, make_pool(4), directory)
        with pytest.raises(ValueError, match=r"publisher 'A' has window \(37, 64\)"):
            pairwise_cluster(units, 1, directory)

    def test_foreign_profile_is_an_error(self):
        """A profile from outside the pool's windows is a caller's bug,
        named as such — not a slower third state."""
        directory = make_directory(["A"])
        a = make_profile({"A": [1, 2, 3]}, capacity=64)
        kernel = ClosenessKernel.for_pool(directory, [a])
        late = make_profile({"A": [2, 9]}, capacity=16)
        with pytest.raises(ValueError, match=r"'A'.*\(0, 16\).*\(0, 64\)"):
            kernel.pack(late)
        with pytest.raises(ValueError, match=r"'B'.*\(0, 64\).*no plane"):
            kernel.fused_counts(a, make_profile({"B": [1]}))

    def test_unknown_publisher_still_exact(self):
        """Publishers absent from the directory pack with rate 0."""
        directory = make_directory(["A"])
        a = make_profile({"A": [1], "GHOST": [2, 3]})
        b = make_profile({"GHOST": [3, 4]})
        kernel = ClosenessKernel.for_pool(directory, [a, b])
        assert kernel.fused_counts(a, b) == profile_oracle.counts(a, b)[:2]


# ----------------------------------------------------------------------
# Packed rate deltas and their memo key
# ----------------------------------------------------------------------

#: Unequal rates, and one publisher whose window (21 slots) is shorter
#: than its vectors, so the ``min(1.0, fraction)`` clamp takes part.
RATE_DIRECTORY = {
    adv_id: PublisherProfile(
        adv_id=adv_id, publication_rate=rate, bandwidth=10.0, last_message_id=last
    )
    for adv_id, rate, last in (
        ("P0", 10.0, 63), ("P1", 7.0, 63), ("P2", 3.5, 20), ("P3", 1.25, 63),
    )
}

#: From no publisher at all (a zero-plane pack) to every publisher (the
#: span of a Phase-3 pseudo-unit).
rate_pattern = st.dictionaries(
    st.sampled_from(sorted(RATE_DIRECTORY)),
    st.frozensets(st.integers(0, 63), max_size=8),
    max_size=len(RATE_DIRECTORY),
)


def own_span(packed):
    """Bits from the pack's lowest plane to the end of its highest."""
    if not packed.planes:
        return 0
    return max(plane.offset + plane.capacity for plane in packed.planes) - packed.shift


@settings(max_examples=200)
@given(
    unit_pattern=rate_pattern,
    bin_patterns=st.lists(rate_pattern, max_size=5),
    elsewhere=st.lists(rate_pattern, min_size=1, max_size=3),
    metric_name=st.sampled_from(METRIC_NAMES),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    bandwidth=st.sampled_from((8.0, 16.0, 100.0)),
)
def test_prop_rate_increase_matches_the_brokerbin_walk(
    unit_pattern, bin_patterns, elsewhere, metric_name, flags, bandwidth
):
    """The memoized packed delta is the kernel-less bin's float, and two
    bins that differ only on planes the unit does not own share a key.
    A full ``allocate`` over the same synchronized pool (each pattern
    twice, so GIFs and twin runs form) then equals the kernel-less
    allocator under every metric and ablation, and no merge or CGS
    union it builds is ever a misfit for ``pack``."""
    owned = {adv_id for adv_id, ids in unit_pattern.items() if ids}
    unit = make_unit(unit_pattern, RATE_DIRECTORY)
    first_bin = [make_unit(pattern, RATE_DIRECTORY) for pattern in bin_patterns]
    second_bin = first_bin + [
        make_unit(
            {adv_id: ids for adv_id, ids in pattern.items() if adv_id not in owned},
            RATE_DIRECTORY,
        )
        for pattern in elsewhere
    ]
    kernel = ClosenessKernel.for_pool(
        RATE_DIRECTORY, [member.profile for member in [unit] + second_bin]
    )
    packed = kernel.pack(unit.profile)
    assert {plane.adv_id for plane in packed.planes} == owned
    for content in (first_bin, second_bin):
        naive = OracleBin(make_spec("B00"), RATE_DIRECTORY)
        union = 0
        for member in content:
            naive.add(member)
            union |= kernel.pack(member.profile).bits
        assert packed.rate_increase(union) == naive.rate_increase(unit)
    (key,) = packed.rate_memo
    assert key.bit_length() <= own_span(packed)
    patterns = [unit_pattern] + bin_patterns + elsewhere
    runs = []
    for allocator in (NaiveCramAllocator, CramAllocator):
        cram = allocator(metric_name, *flags)
        result = cram.allocate(
            [make_unit(pattern, RATE_DIRECTORY, sub_id=f"s{index}")
             for index, pattern in enumerate(patterns + patterns)],
            make_pool(6, bandwidth=bandwidth), RATE_DIRECTORY,
        )
        stats = cram.last_stats
        runs.append((_bins(result), stats.merges, stats.failures, stats.binpack_runs,
                     stats.final_units, stats.closeness_evaluations))
    assert runs[0] == runs[1]


def _check_against_the_oracle(kernel, pool, metric_name):
    """Every ordered pair of ``pool``, self-pairs included: counts,
    metric values and each one-vs-all row are the oracle's."""
    for first in pool:
        row = [profile_oracle.closeness(metric_name, first, other) for other in pool]
        assert kernel.closeness_row(metric_name, first, pool) == row
        for other, value in zip(pool, row):
            assert kernel.fused_counts(first, other) == profile_oracle.counts(first, other)[:2]
            assert kernel.closeness(metric_name, first, other) == value


@settings(max_examples=100)
@given(
    patterns=st.lists(rate_pattern, min_size=2, max_size=8),
    forgotten=st.sets(st.integers(0, 7), max_size=4),
    replacements=st.lists(rate_pattern, max_size=3),
    metric_name=st.sampled_from(METRIC_NAMES),
)
def test_prop_counts_are_recomputed_exactly(patterns, forgotten, replacements, metric_name):
    """Nothing a kernel answered before changes what it answers next:
    the same pairs asked twice (in both orders, since every ordered pair
    is asked), then after some profiles were forgotten, dropped and
    replaced by new ones (whose ``id`` may be a dropped one's), the
    counts and rows are the oracle's."""
    # Laid out over every publisher, so that any replacement fits.
    layout = make_unit(dict.fromkeys(RATE_DIRECTORY, {0}), RATE_DIRECTORY).profile
    profiles = [make_unit(pattern, RATE_DIRECTORY, sub_id=f"s{index}").profile
                for index, pattern in enumerate(patterns)]
    kernel = ClosenessKernel.for_pool(RATE_DIRECTORY, [layout] + profiles)
    for _ in range(2):
        _check_against_the_oracle(kernel, profiles, metric_name)
    for index in sorted(forgotten & set(range(len(profiles))), reverse=True):
        kernel.forget(profiles.pop(index))
    profiles += [make_unit(pattern, RATE_DIRECTORY, sub_id=f"r{index}").profile
                 for index, pattern in enumerate(replacements)]
    _check_against_the_oracle(kernel, profiles, metric_name)


def test_no_pair_memo_is_held():
    """Counts and cover verdicts are recomputed from the packs, never
    remembered per pair: after a poset build and partner searches, a
    kernel holds its planes and its pack cache, one pack a profile, and
    the poset holds its root, its nodes by ``gif_id`` and its kernel."""
    directory = make_directory(["A", "B"])
    units = [make_unit(pattern, directory, sub_id=f"s{index}")
             for index, pattern in enumerate([
                 {"A": range(8)}, {"A": range(4)}, {"A": range(2, 6), "B": [1]},
                 {"B": range(8)},
             ])]
    kernel = ClosenessKernel.for_pool(directory, [unit.profile for unit in units])
    gifs = [Gif(unit.profile, [unit]) for unit in units]
    poset = Poset(kernel)
    for gif in gifs:
        poset.insert(gif)
    for name in METRIC_NAMES:
        for gif in gifs:
            poset.closest_partner(gif, make_metric(name))
    assert set(vars(kernel)) == {"planes", "_packs"}
    assert set(kernel._packs) == {id(unit.profile) for unit in units}
    assert set(vars(poset)) == {"root", "_nodes", "_kernel"}
    assert set(poset._nodes) == {gif.gif_id for gif in gifs}


@contextlib.contextmanager
def best_pair_checked_by_the_scan():
    """Check every ``best_pair`` against :func:`scan_best_pair`.

    The lazy heap must hand out the very ``(gif, partner, value)`` the
    full scan of every partner entry selects, and the scan must never
    meet an empty GIF or an emptied partner.  Yields the pairs taken.
    """
    real_best_pair = _CramState.best_pair
    picks = []

    def checked(state):
        pair = real_best_pair(state)
        assert not state._dirty
        scanned = scan_best_pair(state)
        assert not state._dirty  # neither skip branch fired
        if pair is None:
            assert scanned is None
        else:
            assert scanned[0] is pair[0] and scanned[1] is pair[1]
            assert scanned[2] == pair[2]
        picks.append(pair)
        return pair

    with mock.patch.object(_CramState, "best_pair", checked):
        yield picks


@settings(max_examples=80)
@given(
    patterns=st.lists(rate_pattern, min_size=2, max_size=10),
    metric_name=st.sampled_from(METRIC_NAMES),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    bandwidth=st.sampled_from((8.0, 16.0, 100.0)),
)
def test_prop_heap_best_pair_is_the_full_scan(patterns, metric_name, flags, bandwidth):
    """On every iteration, kernel on and off, under every metric and
    ablation, over the pools of the rate property above."""
    with best_pair_checked_by_the_scan():
        for allocator in (NaiveCramAllocator, CramAllocator):
            allocator(metric_name, *flags).allocate(
                [make_unit(pattern, RATE_DIRECTORY, sub_id=f"s{index}")
                 for index, pattern in enumerate(patterns + patterns)],
                make_pool(6, bandwidth=bandwidth), RATE_DIRECTORY,
            )


@pytest.mark.parametrize("metric_name", ["ios", "xor"])
def test_heap_best_pair_is_the_full_scan_on_a_gathered_pool(metric_name):
    """The same check over every iteration of a 600-subscription pool
    (271 under IOS, 306 under XOR)."""
    gather, units = _gathered(partial(offline_gather, cluster_homogeneous(25, scale=0.6),
                                      seed=2011))
    with best_pair_checked_by_the_scan() as picks:
        cram = CramAllocator(metric=metric_name, failure_budget=150)
        cram.allocate(units, gather.broker_pool, gather.directory)
    assert len(picks) == cram.last_stats.iterations + 1 > 250


def test_rate_memo_keys_stay_plane_local(monkeypatch):
    """What a CRAM run retains per memo entry is a few machine words,
    not a copy of a bin's union across every publisher's plane.

    Every probe runs out, as in ``cut_probe_oracle.py``: probes that
    stop early fill too few entries (288) for the bound to say much."""
    monkeypatch.setattr(StandingOrder, "first_fit",
                        cut_probe_oracle.full_pass(StandingOrder.first_fit))
    packs = {}
    pack = ClosenessKernel.pack

    def recording_pack(kernel, profile):
        packed = pack(kernel, profile)
        packs[id(packed)] = packed  # retired packs too
        return packed

    monkeypatch.setattr(ClosenessKernel, "pack", recording_pack)
    gathered = offline_gather(cluster_homogeneous(25, scale=0.6), seed=2011)
    assert len(gathered.records) == 600
    report = Croc(allocators.get("cram-ios", failure_budget=150)).plan(gathered)
    assert report.allocated_brokers > 1
    entries = [(packed, key) for packed in packs.values() for key in packed.rate_memo]
    assert len(entries) > len(gathered.records)
    for packed, key in entries:
        assert key.bit_length() <= own_span(packed)
    # Measured 43 kB (1,244 keys); keyed on whole bin unions the same
    # run kept 12,908 keys of 7.7 MB.
    assert sum(sys.getsizeof(key) for _, key in entries) < 200_000


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
def test_cut_probes_match_the_naive_run(metric_name):
    """A pool shaped like ``plan_offline``'s (400 subscriptions, 100 per
    publisher): clustering soon needs more brokers than the returned
    scheme, so most kernel-run probes are cut, and many of the rest
    settle their count early; the naive run first-fits every probe to the
    end, and the two agree on the placement and on every ``CramStats``
    counter."""
    gather = partial(offline_gather, cluster_homogeneous(100, scale=0.1), seed=2011)
    answers = []
    for allocator in (NaiveCramAllocator, CramAllocator):
        gathered, units = _gathered(gather)
        cram = allocator(metric=metric_name, failure_budget=25)
        result = cram.allocate(units, gathered.broker_pool, gathered.directory)
        stats = dataclasses.asdict(cram.last_stats)
        answers.append((_placement_signature(result), stats))
        cut = cram.last_cut_passes
        settled = cram.last_settled_passes
    assert answers[0] == answers[1]
    assert 0 < cut < answers[1][1]["binpack_runs"]
    assert 0 < settled < answers[1][1]["binpack_runs"] - cut


def test_the_paper_scale_cut_check_runs_on_a_small_pool(capsys):
    """``tests/cut_probe_oracle.py`` (a CI step at paper scale), here at
    400 subscriptions: the same answers with and without cuts."""
    assert cut_probe_oracle.main(["--scale", "0.1", "--approach", "cram-ios"]) == 0
    assert "cram-ios: same answers" in capsys.readouterr().out
