"""Tests for the CRAM allocator (paper §IV-C)."""

from bisect import bisect_right

import pytest

from repro.core import cram as cram_module
from repro.core.binpacking import (
    BinPackingAllocator,
    StandingOrder,
    decreasing_bandwidth,
)
from repro.core.capacity import packed_unit
from repro.core.closeness import make_metric
from repro.core.cram import CramAllocator
from repro.core.fbf import is_twin
from repro.core.units import units_from_records
from repro.obs import recorder as obs
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous

from conftest import make_directory, make_pool, make_spec, make_unit
from naive_cram import NaiveCramAllocator


@pytest.fixture
def directory():
    return make_directory([f"P{i}" for i in range(6)], rate=10.0, bandwidth=10.0)


def symbol_units(directory, per_symbol, symbols=4, bits=32):
    """per_symbol identical units for each of `symbols` publishers."""
    advs = list(directory)[:symbols]
    units = []
    for adv in advs:
        for _ in range(per_symbol):
            units.append(make_unit({adv: range(bits)}, directory))
    return units


class TestBasicBehaviour:
    def test_returns_binpacking_result_when_nothing_clusters(self, directory):
        """All-disjoint singleton profiles: no non-zero closeness pair."""
        units = [make_unit({list(directory)[i]: [i]}, directory) for i in range(4)]
        cram = CramAllocator(metric="ios")
        result = cram.allocate(units, make_pool(4, bandwidth=100.0), directory)
        baseline = BinPackingAllocator().allocate(
            units, make_pool(4, bandwidth=100.0), directory
        )
        assert result.success
        assert result.broker_count == baseline.broker_count
        assert cram.last_stats.merges == 0

    def test_fails_when_binpacking_fails(self, directory):
        units = symbol_units(directory, per_symbol=3, symbols=1)  # 15 kB/s
        result = CramAllocator().allocate(units, [make_spec("b", 4.0)], directory)
        assert not result.success

    def test_clusters_identical_subscriptions(self, directory):
        units = symbol_units(directory, per_symbol=4, symbols=2)
        cram = CramAllocator(metric="ios")
        result = cram.allocate(units, make_pool(8, bandwidth=100.0), directory)
        assert result.success
        assert cram.last_stats.merges > 0
        assert cram.last_stats.final_units < cram.last_stats.initial_units

    def test_allocation_preserves_every_subscription(self, directory):
        units = symbol_units(directory, per_symbol=5, symbols=3)
        cram = CramAllocator(metric="ios")
        result = cram.allocate(units, make_pool(8, bandwidth=100.0), directory)
        placement = result.subscription_placement()
        expected = {record.sub_id for unit in units for record in unit.members}
        assert set(placement) == expected

    def test_gif_grouping_reduces_pool(self, directory):
        units = symbol_units(directory, per_symbol=10, symbols=3)
        cram = CramAllocator(metric="ios")
        cram.allocate(units, make_pool(8, bandwidth=1000.0), directory)
        stats = cram.last_stats
        assert stats.initial_units == 30
        assert stats.initial_gifs == 3
        assert stats.gif_reduction == pytest.approx(0.9)

    def test_respects_capacity_while_clustering(self, directory):
        """Clusters never violate the feasibility test."""
        units = symbol_units(directory, per_symbol=6, symbols=2, bits=32)
        pool = make_pool(8, bandwidth=20.0)  # 4 units of 5 kB/s per broker
        cram = CramAllocator(metric="ios")
        result = cram.allocate(units, pool, directory)
        assert result.success
        for bin_ in result.bins:
            assert bin_.used_bandwidth <= bin_.spec.total_output_bandwidth + 1e-9

    def test_uses_fewer_or_equal_brokers_than_binpacking(self, directory):
        """Clustering concentrates input unions, never worsens packing."""
        advs = list(directory)
        units = []
        for adv in advs[:4]:
            units.append(make_unit({adv: range(48)}, directory))
            units.append(make_unit({adv: range(24)}, directory))
            units.append(make_unit({adv: range(12)}, directory))
        pool = make_pool(10, bandwidth=25.0)
        bp = BinPackingAllocator().allocate(units, pool, directory)
        cram_result = CramAllocator(metric="ios").allocate(units, pool, directory)
        assert cram_result.success
        assert cram_result.broker_count <= bp.broker_count


class TestMetricVariants:
    @pytest.mark.parametrize("metric", ["intersect", "ios", "iou", "xor"])
    def test_all_metrics_produce_valid_allocations(self, metric, directory):
        units = symbol_units(directory, per_symbol=4, symbols=3)
        cram = CramAllocator(metric=metric, failure_budget=50)
        result = cram.allocate(units, make_pool(8, bandwidth=60.0), directory)
        assert result.success
        placement = result.subscription_placement()
        assert len(placement) == len(units)

    def test_name_includes_metric(self):
        assert CramAllocator(metric="iou").name == "cram-iou"

    def test_accepts_metric_instance(self):
        cram = CramAllocator(metric=make_metric("intersect"))
        assert cram.name == "cram-intersect"

    def test_xor_clusters_disjoint_profiles(self, directory):
        """The Gryphon XOR flaw: disjoint subscriptions do get merged."""
        units = [
            make_unit({"P0": [1]}, directory),
            make_unit({"P1": [40]}, directory),
        ]
        cram = CramAllocator(metric="xor", failure_budget=10)
        cram.allocate(units, make_pool(4, bandwidth=100.0), directory)
        assert cram.last_stats.merges >= 1

    def test_prunable_metric_ignores_disjoint_pairs(self, directory):
        units = [
            make_unit({"P0": [1]}, directory),
            make_unit({"P1": [40]}, directory),
        ]
        cram = CramAllocator(metric="ios")
        cram.allocate(units, make_pool(4, bandwidth=100.0), directory)
        assert cram.last_stats.merges == 0


class TestSelfPairClustering:
    def test_equal_relationship_binary_search(self, directory):
        """A GIF pairs with itself and merges the largest allocatable run.

        8 identical units of 5 kB/s against 12 kB/s brokers: at most 2
        units (10 kB/s) fit per broker, so within-GIF clusters of 2 form.
        """
        units = symbol_units(directory, per_symbol=8, symbols=1)
        pool = make_pool(8, bandwidth=12.0)
        cram = CramAllocator(metric="ios")
        result = cram.allocate(units, pool, directory)
        assert result.success
        stats = cram.last_stats
        assert stats.merges >= 1
        sizes = sorted(
            unit.subscription_count for bin_ in result.bins for unit in bin_.units
        )
        assert max(sizes) == 2

    def test_self_pair_merges_everything_when_capacity_allows(self, directory):
        units = symbol_units(directory, per_symbol=6, symbols=1)
        cram = CramAllocator(metric="ios")
        result = cram.allocate(units, make_pool(4, bandwidth=1000.0), directory)
        assert result.success
        assert cram.last_stats.final_units == 1


class TestCoveringClustering:
    def test_superset_absorbs_covered_units(self, directory):
        """A covering GIF clusters with covered GIF units (binary search)."""
        units = [make_unit({"P0": range(32)}, directory)]  # superset
        units += [make_unit({"P0": range(16)}, directory) for _ in range(3)]
        cram = CramAllocator(metric="ios")
        result = cram.allocate(units, make_pool(4, bandwidth=1000.0), directory)
        assert result.success
        assert cram.last_stats.merges >= 1
        assert cram.last_stats.final_units < 4

    def test_blacklists_unallocatable_pairs(self, directory):
        """A pair whose merge never fits is tried once, then skipped."""
        units = [
            make_unit({"P0": range(32)}, directory),  # 5 kB/s each
            make_unit({"P0": range(16, 48)}, directory),
        ]
        # Two brokers of 5 kB/s: each unit fits alone; the 10 kB/s merge
        # fits nowhere.
        pool = [make_spec("b1", 5.0), make_spec("b2", 5.0)]
        cram = CramAllocator(metric="ios")
        result = cram.allocate(units, pool, directory)
        assert result.success
        assert result.broker_count == 2
        assert cram.last_stats.failures >= 1
        assert cram.last_stats.merges == 0


class TestAblationKnobs:
    def test_gif_grouping_disabled(self, directory):
        units = symbol_units(directory, per_symbol=5, symbols=2)
        cram = CramAllocator(metric="ios", enable_gif_grouping=False)
        result = cram.allocate(units, make_pool(8, bandwidth=100.0), directory)
        assert result.success
        assert cram.last_stats.initial_gifs == cram.last_stats.initial_units

    def test_pruning_disabled_still_correct(self, directory):
        units = symbol_units(directory, per_symbol=3, symbols=3)
        pool = make_pool(8, bandwidth=100.0)
        pruned = CramAllocator(metric="ios", enable_pruning=True)
        scan = CramAllocator(metric="ios", enable_pruning=False)
        result_pruned = pruned.allocate(units, pool, directory)
        result_scan = scan.allocate(units, pool, directory)
        assert result_pruned.broker_count == result_scan.broker_count

    def test_pruning_saves_evaluations(self, directory):
        """Search pruning needs fewer closeness computations (§IV-C.2)."""
        advs = list(directory)
        units = []
        for i, adv in enumerate(advs):
            for width in (32, 16, 8):
                units.append(make_unit({adv: range(width)}, directory))
        pool = make_pool(10, bandwidth=1000.0)
        pruned = CramAllocator(metric="ios", enable_pruning=True)
        scan = CramAllocator(metric="ios", enable_pruning=False)
        pruned.allocate(units, pool, directory)
        scan.allocate(units, pool, directory)
        assert (
            pruned.last_stats.initial_search_evaluations
            < scan.last_stats.initial_search_evaluations
        )

    def test_one_to_many_toggle(self, directory):
        units = []
        # Parent GIF intersecting another, with covered children (Fig. 3).
        units.append(make_unit({"P0": range(0, 36)}, directory))
        units.append(make_unit({"P0": range(28, 44)}, directory))
        units.append(make_unit({"P0": range(0, 4)}, directory))
        units.append(make_unit({"P0": range(8, 12)}, directory))
        pool = make_pool(6, bandwidth=1000.0)
        with_o3 = CramAllocator(metric="ios", enable_one_to_many=True)
        without_o3 = CramAllocator(metric="ios", enable_one_to_many=False)
        r1 = with_o3.allocate(units, pool, directory)
        r2 = without_o3.allocate(units, pool, directory)
        assert r1.success and r2.success

    def test_failure_budget_caps_wasted_attempts(self, directory):
        units = [make_unit({list(directory)[i % 6]: [i]}, directory) for i in range(8)]
        cram = CramAllocator(metric="xor", failure_budget=3)
        cram.allocate(units, [make_spec("b", 2.0), make_spec("c", 2.0)], directory)
        assert cram.last_stats.failures <= 3

    def test_max_iterations(self, directory):
        units = symbol_units(directory, per_symbol=6, symbols=2)
        cram = CramAllocator(metric="ios", max_iterations=1)
        cram.allocate(units, make_pool(8, bandwidth=1000.0), directory)
        assert cram.last_stats.iterations <= 1


class TestStats:
    def test_stats_are_reset_per_run(self, directory):
        units = symbol_units(directory, per_symbol=3, symbols=2)
        cram = CramAllocator(metric="ios")
        cram.allocate(units, make_pool(8, bandwidth=100.0), directory)
        first = cram.last_stats
        cram.allocate(units, make_pool(8, bandwidth=100.0), directory)
        assert cram.last_stats is not first

    def test_binpack_run_counter(self, directory):
        units = symbol_units(directory, per_symbol=3, symbols=1)
        cram = CramAllocator(metric="ios")
        cram.allocate(units, make_pool(4, bandwidth=100.0), directory)
        assert cram.last_stats.binpack_runs >= 1


class TestStandingOrder:
    """The FFD order CRAM keeps between probes (DESIGN.md §5e)."""

    @staticmethod
    def gathered():
        gather = offline_gather(
            cluster_homogeneous(subscriptions_per_publisher=8, scale=0.08), seed=7
        )
        return gather, units_from_records(gather.records, gather.directory)

    @staticmethod
    def flat(order):
        return [unit for run in order.runs for unit in run[3]]

    def check_invariants(self, order, pool_units):
        """``order`` is exactly ``decreasing_bandwidth(pool_units)``, in runs."""
        flat = self.flat(order)
        expected = decreasing_bandwidth(pool_units)
        assert len(flat) == len(expected) == order.size
        assert all(got is want for got, want in zip(flat, expected))
        assert len(order.keys) == len(order.runs)
        assert order.keys == sorted(set(order.keys))
        for index, run in enumerate(order.runs):
            assert run[3], "empty run"
            for unit in run[3]:
                assert is_twin(run, unit, packed_unit(unit, order.kernel))
                assert bisect_right(order.keys, unit.binpack_key) - 1 == index

    def test_order_follows_every_probe_and_commit(self, monkeypatch):
        gather, units = self.gathered()
        real_after = StandingOrder.after_merge
        real_commit = cram_module._CramState.commit_merge
        seen = {"derived": 0, "commits": 0, "shrunk_runs": 0}

        def spy_after(order, merge_units, merged):
            before = [(run, list(run[3])) for run in order.runs]
            keys = list(order.keys)
            derived = real_after(order, merge_units, merged)
            # The standing order is untouched ...
            assert len(order.runs) == len(before) and order.keys == keys
            for run, (same_run, members) in zip(order.runs, before):
                assert run is same_run and run[3] == members
            # ... and the derived one is the pool with the merge applied.
            doomed = {unit.unit_id for unit in merge_units}
            pool_units = [u for u in self.flat(order) if u.unit_id not in doomed]
            self.check_invariants(derived, pool_units + [merged])
            seen["derived"] += 1
            seen["shrunk_runs"] += len(derived.runs) < len(order.runs)
            return derived

        def spy_commit(state, merge_units, sources, result):
            outcome = real_commit(state, merge_units, sources, result)
            self.check_invariants(state._order, state.all_units())
            seen["commits"] += 1
            return outcome

        monkeypatch.setattr(StandingOrder, "after_merge", spy_after)
        monkeypatch.setattr(cram_module._CramState, "commit_merge", spy_commit)
        cram = CramAllocator(metric="ios", failure_budget=25)
        assert cram.allocate(units, gather.broker_pool, gather.directory).success
        stats = cram.last_stats
        assert seen["commits"] == stats.merges > 10
        # Every probe derives one order and a commit adopts its probe's;
        # the first binpack run (the base pass) packs the standing order
        # as built.
        assert seen["derived"] == stats.binpack_runs - 1
        assert seen["shrunk_runs"] > 0  # some merge emptied a run

    def test_probes_keep_their_span_and_their_count(self):
        """Kernel on (standing order) and off (flatten, sort, the
        first-fit oracle) open the same ``binpacking.first_fit`` spans."""
        spans, runs = [], []
        for allocator in (NaiveCramAllocator, CramAllocator):
            gather, units = self.gathered()
            cram = allocator(metric="ios", failure_budget=25)
            with obs.attached(obs.Recorder()) as recorder:
                cram.allocate(units, gather.broker_pool, gather.directory)
            spans.append([
                span.attrs["units"] for span in recorder.spans
                if span.name == "binpacking.first_fit"
            ])
            runs.append(cram.last_stats.binpack_runs)
        assert runs[0] == runs[1] == len(spans[0])
        assert spans[0] == spans[1]
        assert spans[1][0] == len(units) and len(set(spans[1])) > 5


class TestPartnerIndex:
    """The reverse index a retire reads (DESIGN.md §5e)."""

    def test_reverse_index_equals_a_scan_after_every_commit(self, monkeypatch):
        gather = offline_gather(cluster_homogeneous(25, scale=0.25), seed=7)
        units = units_from_records(gather.records, gather.directory)
        real_commit = cram_module._CramState.commit_merge
        real_retire = cram_module._CramState._retire
        seen = {"commits": 0, "retires": 0, "marked": 0}

        def scan(state):
            named_by = {}
            for gif_id, entry in state._entries.items():
                if isinstance(entry.partner, cram_module.Gif):
                    named_by.setdefault(entry.partner.gif_id, set()).add(gif_id)
            return named_by

        def spy_commit(state, merge_units, sources, result):
            outcome = real_commit(state, merge_units, sources, result)
            indexed = {key: ids for key, ids in state._named_by.items() if ids}
            scanned = scan(state)
            assert indexed == {
                key: ids for key, ids in scanned.items() if key in state.gifs
            }
            # An entry naming a retired GIF is left to its dirty mark.
            for key, ids in scanned.items():
                assert key in state.gifs or ids <= state._dirty
            assert not state._probes  # the rest of the attempt is forgotten
            seen["commits"] += 1
            return outcome

        def spy_retire(state, gif):
            # The scan a retire replaced walked ``_entries`` in key
            # order; ascending keys make that the index's sorted order.
            keys = list(state._entries)
            assert keys == sorted(keys)
            marked = scan(state).get(gif.gif_id, set()) - {gif.gif_id}
            real_retire(state, gif)
            assert marked <= state._dirty
            seen["retires"] += 1
            seen["marked"] += len(marked)

        monkeypatch.setattr(cram_module._CramState, "commit_merge", spy_commit)
        monkeypatch.setattr(cram_module._CramState, "_retire", spy_retire)
        cram = CramAllocator(metric="ios", failure_budget=50)
        assert cram.allocate(units, gather.broker_pool, gather.directory).success
        assert seen["commits"] == cram.last_stats.merges
        assert seen["retires"] > 10 and seen["marked"] > 0
