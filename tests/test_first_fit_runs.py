"""Run-length first fit vs the unit-by-unit ``BitVector`` loop (its oracle).

``first_fit_runs`` takes consecutive interchangeable units as runs
(``unit_runs``) and lets the twins of a placed unit join its bin on a
two-comparison test.  The claim is bit-identity with
``first_fit_oracle.first_fit``, one unit at a time over per-publisher
``BitVector`` dicts, so everything here compares with ``==`` and ``is``
— never a tolerance, never a clock.

A pass given ``stop_above`` may stop early with a :class:`CutResult`;
the claim there is that the full pass would have succeeded with more
than ``stop_above`` brokers, and that a pass that does not stop is the
full pass.  It may instead stop with a :class:`SettledResult`: the
claim there is that the full pass succeeds on exactly that many
brokers, at most ``stop_above``, in the same bins.
"""

import contextlib
from unittest import mock

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.binpacking import StandingOrder, decreasing_bandwidth
from repro.core.capacity import (
    BrokerBin,
    BrokerSpec,
    CutResult,
    MatchingDelayFunction,
    SettledResult,
    sorted_broker_pool,
)
from repro.core.cram import CramAllocator
from repro.core import fbf
from repro.core.fbf import (
    first_fit_runs,
    pool_columns,
    rate_never_refuses,
    unit_runs,
)
from repro.core.kernel import ClosenessKernel
from repro.core.profiles import PublisherProfile
from repro.core.units import AllocationUnit, units_from_records
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous

from conftest import make_profile, make_record
from first_fit_oracle import first_fit

#: Unequal rates so that input-rate sums are not round numbers.
DIRECTORY = {
    adv_id: PublisherProfile(
        adv_id=adv_id, publication_rate=rate, bandwidth=10.0, last_message_id=63
    )
    for adv_id, rate in (("P0", 10.0), ("P1", 7.0), ("P2", 3.5), ("P3", 1.25))
}

#: ``0.1 + 0.2`` is one ulp above ``0.3``: equal within any tolerance,
#: yet not interchangeable.  Two of ``0.5 + 2e-8`` overshoot a 1.0
#: broker by more than EPSILON, ten of ``0.1`` undershoot it by an ulp.
BANDWIDTHS = (0.0, 0.1, 0.3, 0.1 + 0.2, 0.5 + 2e-8, 1.0, 2.5)


def make_units(shapes, patterns):
    """Fresh units from ``(pattern, bandwidth, subscriptions, repeat)``."""
    units = []
    for pattern, bandwidth, subscriptions, repeat in shapes:
        for _ in range(repeat):
            record = make_record(patterns[pattern])
            units.append(
                AllocationUnit(
                    members=(record,),
                    profile=record.profile,
                    delivery_bandwidth=bandwidth,
                    delivery_rate=1.0,
                    subscription_count=subscriptions,
                )
            )
    return units


def make_brokers(rows):
    return [
        BrokerSpec(f"B{index:02d}", capacity, MatchingDelayFunction(base, slope))
        for index, (capacity, base, slope) in enumerate(rows)
    ]


def kernel_for(units):
    return ClosenessKernel.for_pool(DIRECTORY, [unit.profile for unit in units])


def packed_first_fit(units, pool, kernel=None):
    """The production pairing: runs of twins onto the pool's columns."""
    kernel = kernel if kernel is not None else kernel_for(units)
    columns = pool_columns(sorted_broker_pool(pool))
    return first_fit_runs(unit_runs(units, kernel), columns, kernel)


def snapshot(result):
    """Everything an allocation result exposes, floats untouched."""
    return (
        result.success,
        result.broker_count,
        result.failed_unit.unit_id if result.failed_unit is not None else None,
        [
            (
                bin_.spec.broker_id,
                [unit.unit_id for unit in bin_.units],
                bin_.used_bandwidth,
                bin_.input_rate,
                bin_.subscription_count,
            )
            for bin_ in result.bins
        ],
    )


@contextlib.contextmanager
def counted_bin_builds():
    """Count ``BrokerBin.from_packed_state`` calls (yields the list)."""
    built = []
    real = BrokerBin.from_packed_state

    def counting(*args):
        built.append(args[0])
        return real(*args)

    with mock.patch.object(BrokerBin, "from_packed_state", counting):
        yield built


def assert_matches_oracle(units, pool):
    oracle = first_fit(units, pool, DIRECTORY)
    with counted_bin_builds() as built:
        packed = packed_first_fit(units, pool)
        # The pass's own answers, read before anything builds a bin.
        assert packed.success is oracle.success
        assert packed.failed_unit is oracle.failed_unit
        assert packed.broker_count == oracle.broker_count
        assert built == []
        assert snapshot(packed) == snapshot(oracle)
        assert len(built) == packed.broker_count
    # FBF's and BIN PACKING's entry point packs the units itself.
    assert snapshot(fbf.first_fit(units, pool, DIRECTORY)) == snapshot(oracle)
    return packed


patterns_strategy = st.lists(
    st.dictionaries(
        st.sampled_from(sorted(DIRECTORY)),
        st.one_of(
            st.frozensets(st.integers(0, 63), max_size=6),
            # Dense blocks: two or three of them reach a steep broker's
            # ceiling, so bins refuse on input rate as well as on load.
            st.sampled_from((frozenset(range(32)), frozenset(range(24, 64)))),
        ),
        max_size=3,
    ),
    min_size=1,
    max_size=5,
)

shapes_strategy = st.lists(
    st.tuples(
        st.integers(0, 4),  # pattern (taken modulo the pattern count)
        st.sampled_from(BANDWIDTHS),
        st.sampled_from((1, 1, 1, 2, 5)),
        st.sampled_from((1, 1, 2, 3, 40)),  # mostly short runs, some long
    ),
    max_size=25,
)

brokers_strategy = st.lists(
    st.tuples(
        st.sampled_from((0.5, 1.0, 3.0, 10.0)),
        st.sampled_from((1e-4, 0.01, 0.05)),
        # The steep slopes put the matching-rate ceiling below a
        # handful of subscriptions' input rate: it, not bandwidth,
        # then ends a twin run in the middle of a bin.
        st.sampled_from((0.0, 1e-6, 0.005, 0.02)),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150)
@given(patterns=patterns_strategy, shapes=shapes_strategy, brokers=brokers_strategy)
def test_prop_runs_match_the_brokerbin_loop(patterns, shapes, brokers):
    """Any order, any pool — fitting or not: the same bins, bit for bit."""
    shapes = [(pattern % len(patterns), *rest) for pattern, *rest in shapes]
    assert_matches_oracle(make_units(shapes, patterns), make_brokers(brokers))


@settings(max_examples=120)
@given(
    patterns=patterns_strategy,
    picks=st.lists(
        st.tuples(
            st.integers(0, 4),
            st.sampled_from((1, 2)),
            # Long streaks of one bandwidth, ended now and then by a
            # heavier, a lighter or a one-ulp-different unit — FBF's
            # shuffled order, where the scan's start must fall back to
            # the first bin on every change and survive none.
            st.sampled_from((0.3,) * 6 + (0.1 + 0.2, 0.1, 1.0)),
        ),
        max_size=60,
    ),
    brokers=brokers_strategy,
)
def test_prop_interleaved_equal_bandwidth_profiles(patterns, picks, brokers):
    """Streaks of one bandwidth: only the profile separates their runs."""
    shapes = [
        (pattern % len(patterns), bandwidth, subs, 1)
        for pattern, subs, bandwidth in picks
    ]
    assert_matches_oracle(make_units(shapes, patterns), make_brokers(brokers))


class TestRunBoundaries:
    PATTERNS = [{"P0": range(32)}, {"P1": range(32)}]

    def test_rate_ceiling_ends_a_twin_run_mid_bin(self):
        """Free bandwidth everywhere; the ceiling alone moves the run on."""
        units = make_units([(0, 0.0, 1, 30)], self.PATTERNS)
        # 32 of 64 slots at 10 msg/s is an input rate of 5 msg/s, and
        # 1 / (0.01 + 0.02 n) stays above 5 only up to nine subscriptions.
        pool = make_brokers([(10.0, 0.01, 0.02)] * 4)
        result = assert_matches_oracle(units, pool)
        assert [len(bin_.units) for bin_ in result.bins] == [9, 9, 9, 3]
        assert {bin_.used_bandwidth for bin_ in result.bins} == {0.0}

    def test_failing_run_reports_the_first_unplaced_twin(self):
        units = make_units([(0, 1.0, 1, 7)], self.PATTERNS)
        result = assert_matches_oracle(units, make_brokers([(3.0, 1e-4, 0.0)] * 2))
        assert not result.success
        assert result.failed_unit is units[6]

    def test_a_later_run_restarts_at_the_first_bin(self):
        """Skipping earlier bins is per run, never carried to the next."""
        shapes = [(0, 2.5, 1, 3), (1, 0.3, 1, 4)]
        result = assert_matches_oracle(
            make_units(shapes, self.PATTERNS), make_brokers([(3.0, 1e-4, 0.0)] * 4)
        )
        assert [len(bin_.units) for bin_ in result.bins] == [2, 2, 2, 1]

    def test_one_ulp_apart_is_not_a_twin(self):
        units = make_units([(0, 0.3, 1, 2), (0, 0.1 + 0.2, 1, 2)], self.PATTERNS)
        runs = unit_runs(units, kernel_for(units))
        assert [[unit.unit_id for unit in run[3]] for run in runs] == [
            [units[0].unit_id, units[1].unit_id],
            [units[2].unit_id, units[3].unit_id],
        ]
        assert_matches_oracle(units, make_brokers([(0.5, 1e-4, 0.0)] * 4))

    def test_runs_split_on_subscription_count_and_profile(self):
        shapes = [(0, 1.0, 1, 2), (0, 1.0, 2, 1), (1, 1.0, 2, 1), (0, 1.0, 1, 1)]
        units = make_units(shapes, self.PATTERNS)
        runs = unit_runs(units, kernel_for(units))
        assert [len(run[3]) for run in runs] == [2, 1, 1, 1]

    def test_empty_vectors_do_not_separate_twins(self):
        """A vector with no bit set adds no rate term and no plane."""
        units = make_units([(0, 1.0, 1, 1), (1, 1.0, 1, 1)],
                           [{"P0": [1, 2]}, {"P0": [1, 2], "P1": [5]}])
        units[1].profile.vector("P1").load_bits(0)
        kernel = kernel_for(units)
        assert len(units[1].profile) == 2 and len(units[0].profile) == 1
        assert len(unit_runs(units, kernel)) == 1
        assert_matches_oracle(units, make_brokers([(1.0, 1e-4, 0.0)] * 2))

    def test_a_unit_from_outside_the_pool_is_an_error(self):
        units = make_units([(0, 1.0, 1, 3)], self.PATTERNS)
        kernel = kernel_for(units)
        stranger = AllocationUnit(
            members=(), profile=make_profile({"P0": [1]}, capacity=16),
            delivery_bandwidth=1.0, delivery_rate=1.0, subscription_count=1,
        )
        with pytest.raises(ValueError, match="'P0'"):
            unit_runs(units + [stranger], kernel)

    def test_packed_bins_keep_accepting_pool_units(self):
        """A bin materialized from the flat loop's state answers and
        grows like one filled an ``add`` at a time."""
        shapes = [(0, 1.0, 1, 3), (1, 0.3, 2, 2), (0, 0.3, 1, 2)]
        units = make_units(shapes, self.PATTERNS)
        late = make_units([(1, 1.0, 1, 1), (0, 2.5, 1, 1), (1, 0.1, 3, 1)], self.PATTERNS)
        pool = make_brokers([(3.0, 0.1, 0.02)] * 3)
        kernel = kernel_for(units + late)
        packed = packed_first_fit(units, pool, kernel)
        oracle = first_fit(units, pool, DIRECTORY)
        verdicts = []
        for unit in late:
            for packed_bin, oracle_bin in zip(packed.bins, oracle.bins):
                verdict = oracle_bin.can_accept(unit)
                assert packed_bin.can_accept(unit) is verdict
                verdicts.append(verdict)
                if verdict:
                    packed_bin.add(unit)
                    oracle_bin.add(unit)
                    break
        assert True in verdicts and False in verdicts
        assert snapshot(packed) == snapshot(oracle)


class TestEqualBandwidthResume:
    """A run starts where the previous run of its bandwidth first passed
    the load test — and nowhere later."""

    #: 32 of 64 slots: 5 msg/s from P0, 3.5 msg/s from P1.
    PATTERNS = [{"P0": range(32)}, {"P1": range(32)}, {"P2": range(32)}]

    @staticmethod
    def placement(result, units):
        names = {unit.unit_id: index for index, unit in enumerate(units)}
        return [[names[unit.unit_id] for unit in bin_.units] for bin_ in result.bins]

    def test_a_rate_refusal_does_not_move_the_start(self):
        """Bin 0 turns run A away on the ceiling, not on load: run B, of
        the same bandwidth, adds no input rate there and must get in."""
        units = make_units([(1, 1.0, 1, 1), (0, 0.3, 1, 1), (1, 0.3, 1, 1)],
                           self.PATTERNS)
        # A ceiling of 1 / 0.15 = 6.67 msg/s holds P1 (3.5) or P0 (5),
        # not both (8.5).
        result = assert_matches_oracle(units, make_brokers([(3.0, 0.15, 0.0)] * 3))
        assert self.placement(result, units) == [[0, 2], [1]]

    def test_load_refusals_carry_over_within_a_streak_only(self):
        """2.5, 2.5, 0.3, 2.5, 0.3 onto brokers of 3.0, each unit a run
        of its own: every change of bandwidth, down or up, is answered
        by the bins *before* the previous streak's start."""
        shapes = [(0, 2.5, 1, 1), (1, 2.5, 1, 1), (0, 0.3, 1, 1),
                  (2, 2.5, 1, 1), (1, 0.3, 1, 1), (2, 0.3, 1, 1)]
        units = make_units(shapes, self.PATTERNS)
        assert len(unit_runs(units, kernel_for(units))) == len(units)
        result = assert_matches_oracle(units, make_brokers([(3.0, 1e-4, 0.0)] * 4))
        # The last unit is the one that resumes: bin 0 refused its
        # predecessor on load (2.8 + 0.3), so it starts at bin 1.
        assert self.placement(result, units) == [[0, 2], [1, 4], [3, 5]]

    def test_a_resumed_run_fails_on_the_same_unit(self):
        shapes = [(0, 0.5, 1, 1), (1, 0.5, 1, 1), (0, 0.5, 1, 3), (1, 0.5, 1, 2)]
        units = make_units(shapes, self.PATTERNS)
        result = assert_matches_oracle(units, make_brokers([(1.0, 1e-4, 0.0)] * 3))
        assert not result.success
        assert result.failed_unit is units[6]
        assert self.placement(result, units) == [[0, 1], [2, 3], [4, 5]]


class CountingMemo(dict):
    """A ``rate_memo`` that counts its look-ups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_twins_cost_one_rate_lookup_per_bin_visited():
    """1,000 twins over 4 of 10 bins: a look-up per bin, not per unit."""
    profile = make_profile({"P0": range(16), "P2": range(8)})
    units = [
        AllocationUnit(
            members=(make_record({}),), profile=profile, delivery_bandwidth=1.0,
            delivery_rate=1.0, subscription_count=1,
        )
        for _ in range(1000)
    ]
    kernel = kernel_for(units)
    memo = kernel.pack(profile).rate_memo = CountingMemo()
    pool = make_brokers([(250.0, 1e-4, 1e-7)] * 10)
    passes = 3
    for _ in range(passes):
        result = packed_first_fit(units, pool, kernel)
    assert [len(bin_.units) for bin_ in result.bins] == [250] * 4
    # Per pass, one look-up per bin visited, and the four bins share one
    # state (empty).  Only the first pass misses, and ``rate_increase``
    # repeats that one look-up.
    assert len(memo) == 1
    assert memo.lookups == passes * 4 + 1
    assert snapshot(result) == snapshot(first_fit(units, pool, DIRECTORY))


def test_a_cram_run_builds_only_the_bins_it_returns():
    """Hundreds of probes, and not one of them builds a ``BrokerBin``:
    the bins built are those of the returned result, on first read."""
    gathered = offline_gather(cluster_homogeneous(25, scale=0.6), seed=2011)
    units = units_from_records(gathered.records, gathered.directory)
    cram = CramAllocator(metric="ios", failure_budget=150)
    with counted_bin_builds() as built:
        result = cram.allocate(units, gathered.broker_pool, gathered.directory)
        assert built == []
        bins = result.bins
    assert cram.last_stats.binpack_runs > 300
    assert len(built) == len(bins) == result.broker_count == 5
    assert [bin_.spec for bin_ in bins] == built


class TestStoppingEarly:
    """``stop_above``: a pass may stop once it is proven to fit on more."""

    PATTERNS = [{"P0": range(32)}, {"P1": range(32)}]

    def test_a_cut_result_has_no_bins(self):
        units = make_units([(0, 1.0, 1, 6), (1, 0.3, 1, 4)], self.PATTERNS)
        order = StandingOrder.build(units, make_brokers([(3.0, 1e-4, 0.0)] * 8),
                                    kernel_for(units))
        assert order.cuttable
        full = order.first_fit()
        assert full.success and full.broker_count == 3
        result = order.first_fit(stop_above=1)
        assert isinstance(result, CutResult)
        assert result.success and 1 < result.broker_count <= full.broker_count
        with pytest.raises(RuntimeError, match="no bins"):
            result.bins
        with pytest.raises(RuntimeError, match="no bins"):
            result.subscription_placement()
        # At or under the bound the pass runs out.
        assert snapshot(order.first_fit(stop_above=3)) == snapshot(full)

    def test_a_pool_whose_rate_ceiling_can_bind_never_cuts(self):
        """Zero-bandwidth twins leave the load bound every slack there is,
        yet 1 / (0.01 + 0.02 n) holds P0's 5 msg/s for nine subscriptions
        a bin only: 41 of them do not fit on four brokers.  A cut after
        the first run would have called that pool a fit, and so would a
        settle: the load bounds alone settle it on one broker."""
        units = make_units([(0, 0.1, 1, 1), (0, 0.0, 1, 40)], self.PATTERNS)
        order = StandingOrder.build(units, make_brokers([(10.0, 0.01, 0.02)] * 4),
                                    kernel_for(units))
        assert not order.cuttable
        assert not rate_never_refuses(order.pool, order.kernel, 41)
        full = order.first_fit()
        assert not full.success
        for stop_above in range(5):
            result = order.first_fit(stop_above)
            assert not isinstance(result, (CutResult, SettledResult))
            assert snapshot(result) == snapshot(full)
        ungated = first_fit_runs(order.runs, order.pool, order.kernel, 4, order.bandwidth)
        assert isinstance(ungated, SettledResult) and ungated.broker_count == 1

    def test_the_bound_reads_the_smallest_broker(self):
        """One 30-unit broker and three of 0.5: after the first run the
        three empty bins cannot take a 1.0 unit, so nothing may be cut."""
        units = make_units([(0, 2.5, 1, 1), (1, 1.0, 1, 40)], self.PATTERNS)
        pool = make_brokers([(30.0, 1e-4, 0.0)] + [(0.5, 1e-4, 0.0)] * 3)
        order = StandingOrder.build(units, pool, kernel_for(units))
        assert order.cuttable
        full = order.first_fit()
        assert not full.success
        assert snapshot(order.first_fit(0)) == snapshot(full)

    def test_the_rate_bound_counts_every_plane_in_full(self):
        """``Σ rate · capacity / window`` over all four publishers is
        21.75 msg/s: a ceiling of 1 / 0.045 passes, 1 / 0.046 does not."""
        kernel = ClosenessKernel.for_pool(
            DIRECTORY, [make_profile({adv_id: [0]}) for adv_id in DIRECTORY]
        )
        for base, verdict in ((0.045, True), (0.046, False)):
            pool = pool_columns(make_brokers([(3.0, base, 0.0)]))
            assert rate_never_refuses(pool, kernel, 1) is verdict


class TestSettling:
    """``stop_above``: a pass may stop once bounds prove its exact count."""

    PATTERNS = [{"P0": range(32)}, {"P1": range(32)}]

    @staticmethod
    def settle(units, brokers, stop_above):
        """The order's full pass and its pass held against ``stop_above``."""
        order = StandingOrder.build(units, make_brokers(brokers), kernel_for(units))
        assert order.cuttable
        return order.first_fit(), order.first_fit(stop_above)

    def test_one_broker(self):
        """``m = 1``: everything left fits in the first bin, so the pass
        settles at its first run and builds no bin until one is read."""
        units = make_units([(0, 1.0, 1, 1), (1, 0.3, 1, 4)], self.PATTERNS)
        full, result = self.settle(units, [(3.0, 1e-4, 0.0)] * 8, 1)
        assert isinstance(result, SettledResult)
        assert result.success and result.broker_count == full.broker_count == 1
        with counted_bin_builds() as built:
            assert len(result.bins) == 1
        assert len(built) == 1
        assert snapshot(result) == snapshot(full)
        # Under the count the same pass is cut instead.
        assert isinstance(self.settle(units, [(3.0, 1e-4, 0.0)] * 8, 0)[1], CutResult)

    def test_units_that_fill_a_broker_exactly_run_out(self):
        """2.0 + 1.0 on brokers of 3.0: after the first run the room left
        equals the bandwidth left.  The test wants more, so the pass runs
        out and the last unit still fits (the limit keeps EPSILON)."""
        units = make_units([(0, 2.0, 1, 1), (1, 1.0, 1, 1)], self.PATTERNS)
        full, result = self.settle(units, [(3.0, 1e-4, 0.0)] * 4, 1)
        assert not isinstance(result, SettledResult)
        assert full.success and full.broker_count == 1
        assert snapshot(result) == snapshot(full)

    @pytest.mark.parametrize("first", [9.8, 9.5])
    def test_second_largest_room_at_or_below_the_run(self, first):
        """Rooms 0.2 (or 0.5, just room for one more) and 5.0 before a
        run of 0.5s: the second-largest room is at or below the run, so
        the bound is the largest room, 5.0, against the 3.0 to place."""
        shapes = [(0, first, 1, 1), (1, 5.0, 1, 1), (0, 0.5, 1, 6)]
        units = make_units(shapes, self.PATTERNS)
        full, result = self.settle(units, [(10.0, 1e-4, 0.0)] * 3, 2)
        assert isinstance(result, SettledResult)
        assert result.broker_count == full.broker_count == 2
        assert snapshot(result) == snapshot(full)

    def test_an_open_bin_past_the_first_m_blocks_the_settle(self):
        """Brokers of 0.5, 10 and 10, in that order: 2.5 opens the
        second bin, past ``m = 1``; the first bin's 0.5 of room covers
        the 0.3 left, yet the pass ends on two brokers."""
        units = make_units([(0, 2.5, 1, 1), (1, 0.1, 1, 3)], self.PATTERNS)
        kernel = kernel_for(units)
        pool = pool_columns(make_brokers([(0.5, 1e-4, 0.0), (10.0, 1e-4, 0.0),
                                          (10.0, 1e-4, 0.0)]))
        assert rate_never_refuses(pool, kernel, 4)
        runs = unit_runs(decreasing_bandwidth(units), kernel)
        full = first_fit_runs(runs, pool, kernel)
        total = sum(unit.delivery_bandwidth for unit in units)
        result = first_fit_runs(runs, pool, kernel, 2, total)
        assert full.broker_count == 2
        assert snapshot(result) == snapshot(full)


cut_brokers_strategy = st.one_of(
    # Homogeneous: one spec, many copies.
    st.tuples(
        st.sampled_from((0.5, 3.0, 10.0, 30.0)),
        st.sampled_from((1e-4, 0.01, 0.05)),
        st.sampled_from((0.0, 1e-6, 0.005, 0.02)),
        st.integers(1, 16),
    ).map(lambda row: [row[:3]] * row[3]),
    # Heterogeneous: every broker its own spec.
    st.lists(
        st.tuples(
            st.sampled_from((0.0, 0.5, 3.0, 10.0, 30.0, 30.0)),
            st.sampled_from((1e-4, 0.01, 0.05)),
            st.sampled_from((0.0, 1e-6, 0.005, 0.02)),
        ),
        min_size=1,
        max_size=16,
    ),
)


@settings(max_examples=300)
@given(
    patterns=patterns_strategy,
    shapes=shapes_strategy,
    brokers=cut_brokers_strategy,
    data=st.data(),
)
def test_prop_a_cut_pass_fits_on_more_brokers(patterns, shapes, brokers, data):
    """FFD runs (zero-bandwidth units among them) onto homogeneous and
    heterogeneous pools: a cut implies that the full pass succeeds with
    more than ``stop_above`` brokers; a pass that is not cut is the full
    pass; a pool whose rate ceiling can bind never cuts."""
    shapes = [(pattern % len(patterns), *rest) for pattern, *rest in shapes]
    units = make_units(shapes, patterns)
    order = StandingOrder.build(units, make_brokers(brokers), kernel_for(units))
    full = order.first_fit()
    # At most the full count: above it no pass can stop (it never opens
    # that many bins), and CRAM holds its probes against the count of a
    # pass that succeeded.
    stop_above = data.draw(st.integers(0, full.broker_count), label="stop_above")
    result = order.first_fit(stop_above)
    if isinstance(result, CutResult):
        assert order.cuttable
        assert full.success and full.broker_count > stop_above
        assert stop_above < result.broker_count <= full.broker_count
        with pytest.raises(RuntimeError):
            result.bins
    else:
        assert result.broker_count == full.broker_count
        assert snapshot(result) == snapshot(full)


#: Pools whose matching-rate ceiling cannot bind (the settle's
#: precondition), homogeneous or each broker its own capacity.
settle_brokers_strategy = st.one_of(
    st.tuples(
        st.sampled_from((0.5, 3.0, 10.0, 30.0)),
        st.sampled_from((1e-4, 0.01)),
        st.sampled_from((0.0, 1e-6)),
        st.integers(1, 16),
    ).map(lambda row: [row[:3]] * row[3]),
    st.lists(
        st.tuples(
            st.sampled_from((0.0, 0.5, 1.0, 3.0, 10.0, 30.0)),
            st.sampled_from((1e-4, 0.01)),
            st.sampled_from((0.0, 1e-6)),
        ),
        min_size=1,
        max_size=16,
    ),
)


@settings(max_examples=400)
@given(
    patterns=patterns_strategy,
    shapes=shapes_strategy,
    brokers=settle_brokers_strategy,
    data=st.data(),
)
def test_prop_a_settled_pass_is_the_full_pass(patterns, shapes, brokers, data):
    """FFD runs (zero-bandwidth units among them) onto homogeneous and
    heterogeneous pools (zero-capacity brokers among them) in any broker
    order, so that an empty bin may come before an open one: a settled
    pass has the full pass's broker count, at most ``stop_above``, its
    success and its bins, element by element."""
    shapes = [(pattern % len(patterns), *rest) for pattern, *rest in shapes]
    units = make_units(shapes, patterns)
    kernel = kernel_for(units)
    specs = sorted_broker_pool(make_brokers(brokers))
    order = data.draw(st.sampled_from(("sorted", "smallest first", "shuffled")),
                      label="pool order")
    if order == "smallest first":
        specs = specs[-1:] + specs[:-1]
    elif order == "shuffled":
        specs = data.draw(st.permutations(specs), label="shuffled pool")
    pool = pool_columns(specs)
    runs = unit_runs(decreasing_bandwidth(units), kernel)
    subscriptions = sum(unit.subscription_count for unit in units)
    assume(rate_never_refuses(pool, kernel, subscriptions))
    full = first_fit_runs(runs, pool, kernel)
    stop_above = data.draw(st.integers(0, full.broker_count), label="stop_above")
    total = sum(unit.delivery_bandwidth for unit in units)
    result = first_fit_runs(runs, pool, kernel, stop_above, total)
    if isinstance(result, SettledResult):
        assert result.broker_count <= stop_above
        assert result.broker_count == full.broker_count
        assert result.success is full.success is True
        assert snapshot(result) == snapshot(full)
