"""CRAM: Clustering with Resource Awareness and Minimization (paper §IV-C).

CRAM starts from a plain BIN PACKING allocation and then repeatedly
clusters the pair of subscriptions (GIFs) with the highest non-zero
closeness, re-validating the allocation after every merge and undoing
merges that make the pool unallocatable.  Unlike the pairwise algorithm
of Riabov et al., the number of clusters is *not* chosen a priori — it
falls out of the subscriptions' interests and the brokers' resource
constraints.

The three optimizations from the paper are all implemented and can be
toggled independently for ablation studies:

1. **GIF grouping** (``enable_gif_grouping``) — subscriptions with equal
   bit vectors collapse into one Group of Identical Filters.
2. **Search pruning** (``enable_pruning``) — the poset-driven
   closest-partner search skips empty-relationship subtrees and stops
   once closeness starts to decrease.  Disabled, or under the
   non-prunable XOR metric, the search degrades to an exhaustive scan.
3. **One-to-many clustering** (``enable_one_to_many``) — for candidate
   pairs with an intersect relationship, first try clustering each GIF
   with a greedy-set-cover selection of its covered GIFs (Figure 3).

Per-relationship clustering rules (paper §IV-C.1):

* *equal* (a GIF paired with itself): binary-search the largest
  allocatable cluster of the GIF's own units, lightest first;
* *intersect*: cluster the lightest unit from each GIF (after trying
  optimization 3);
* *superset/subset*: cluster the lightest unit of the covering GIF with
  a binary-searched prefix of the covered GIF's units sorted by
  ascending bandwidth.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.binpacking import StandingOrder
from repro.core.capacity import AllocationResult, BrokerSpec, CutResult, SettledResult
from repro.core.closeness import ClosenessMetric, make_metric
from repro.core.gif import Gif, build_gifs
from repro.core.kernel import ClosenessKernel
from repro.core.poset import Poset
from repro.core.profiles import PublisherDirectory
from repro.core.relations import Relation
from repro.core.units import AllocationUnit
from repro.obs import recorder as obs

#: Marker used in the partner table for "GIF paired with itself".
SELF_PAIR = "self"


@dataclass
class CramStats:
    """Diagnostics of one CRAM run (consumed by the benchmark harness)."""

    subscriptions: int = 0
    initial_units: int = 0
    initial_gifs: int = 0
    final_units: int = 0
    iterations: int = 0
    merges: int = 0
    failures: int = 0
    #: The iteration whose scheme is returned (0: the unclustered one).
    returned_iteration: int = 0
    #: Merges committed after that iteration; none of their schemes is
    #: returned.
    merges_past_best: int = 0
    closeness_evaluations: int = 0
    initial_search_evaluations: int = 0
    binpack_runs: int = 0

    @property
    def gif_reduction(self) -> float:
        """Fraction of the pool removed by GIF grouping (paper: ≤61%)."""
        if self.initial_units == 0:
            return 0.0
        return 1.0 - self.initial_gifs / self.initial_units


@dataclass
class _PartnerEntry:
    partner: Union[Gif, str, None]  # Gif, SELF_PAIR, or None
    value: float


class CramAllocator:
    """The CRAM subscription allocation algorithm.

    Parameters
    ----------
    metric:
        Closeness metric name (``intersect``, ``xor``, ``ios``, ``iou``)
        or a ready :class:`~repro.core.closeness.ClosenessMetric`.
    enable_gif_grouping / enable_pruning / enable_one_to_many:
        Toggle the paper's three optimizations (ablation knobs).
    failure_budget:
        Optional cap on the number of *failed* clustering attempts
        before giving up (the paper runs to exhaustion; the budget keeps
        XOR — which cannot prune empty relations — bounded in the
        benchmark harness).
    """

    def __init__(
        self,
        metric: Union[str, ClosenessMetric] = "ios",
        enable_gif_grouping: bool = True,
        enable_pruning: bool = True,
        enable_one_to_many: bool = True,
        failure_budget: Optional[int] = None,
        max_iterations: Optional[int] = None,
    ):
        if isinstance(metric, str):
            metric = make_metric(metric)
        self.metric = metric
        self.enable_gif_grouping = enable_gif_grouping
        self.enable_pruning = enable_pruning
        self.enable_one_to_many = enable_one_to_many
        self.failure_budget = failure_budget
        self.max_iterations = max_iterations
        self.name = f"cram-{metric.name}"
        self.last_stats = CramStats()
        #: Probes of the last run that stopped early, above the returned
        #: scheme's count (:class:`CutResult`) or at an exact count no
        #: higher (:class:`SettledResult`).  Kept out of
        #: :class:`CramStats`, which stopping early must not move.
        self.last_cut_passes = 0
        self.last_settled_passes = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def allocate(
        self,
        units: Sequence[AllocationUnit],
        pool: Iterable[BrokerSpec],
        directory: PublisherDirectory,
    ) -> AllocationResult:
        """Allocate, clustering as aggressively as resources allow."""
        pool = list(pool)
        stats = CramStats(
            subscriptions=sum(unit.subscription_count for unit in units),
            initial_units=len(units),
        )
        self.last_stats = stats
        self.metric.reset_counter()

        kernel = ClosenessKernel.for_pool(directory, [unit.profile for unit in units])
        with obs.span("cram.clustering", metric=self.metric.name, units=len(units)):
            order = StandingOrder.build(units, pool, kernel)
            return self._clustering_run(units, order, directory, stats, kernel)

    def _clustering_run(
        self,
        units: Sequence[AllocationUnit],
        order: StandingOrder,
        directory: PublisherDirectory,
        stats: CramStats,
        kernel: ClosenessKernel,
    ) -> AllocationResult:
        """The paper's clustering loop over the pool's ``kernel``."""
        self.last_cut_passes = 0
        self.last_settled_passes = 0
        state = _CramState(
            units=units,
            order=order,
            directory=directory,
            metric=self.metric,
            enable_gif_grouping=self.enable_gif_grouping,
            enable_pruning=self.enable_pruning,
            stats=stats,
            kernel=kernel,
        )
        best = state.allocate_unclustered()
        if not best.success:
            # Paper: if the unclustered allocation fails, terminate.
            return best
        state.stop_above = best.broker_count
        stats.initial_gifs = len(state.gifs)
        state.refresh_partners()
        stats.initial_search_evaluations = self.metric.evaluations

        failures = 0
        while True:
            if self.max_iterations is not None and stats.iterations >= self.max_iterations:
                break
            if self.failure_budget is not None and failures >= self.failure_budget:
                break
            pair = state.best_pair()
            if pair is None:
                break
            stats.iterations += 1
            gif, partner, value = pair
            outcome = self._attempt(state, gif, partner, value)
            if outcome is None:
                state.blacklist(gif, partner)
                failures += 1
                stats.failures += 1
            else:
                stats.merges += 1
                # The paper records each successful scheme; since the
                # objective is broker minimization we keep the latest
                # scheme that does not *increase* the broker count (the
                # very first recorded scheme is BIN PACKING's, so CRAM
                # never returns more brokers than BIN PACKING).  Later
                # schemes win ties: more clustering, less in-network
                # traffic for the same broker count.  DESIGN.md §5e
                # ("Which scheme CRAM returns") has this reading and
                # the open question about it.  A probe's CutResult
                # holds a count above ``best``'s and so never wins; a
                # SettledResult holds its exact count and makes its
                # bins only if it is returned.
                if outcome.broker_count <= best.broker_count:
                    best = outcome
                    state.stop_above = best.broker_count
                    stats.returned_iteration = stats.iterations
                    stats.merges_past_best = 0
                else:
                    stats.merges_past_best += 1
        stats.final_units = state.unit_count()
        stats.closeness_evaluations = self.metric.evaluations
        self.last_cut_passes = state.cut_passes
        self.last_settled_passes = state.settled_passes
        return best

    # ------------------------------------------------------------------
    # Clustering attempts
    # ------------------------------------------------------------------
    def _attempt(
        self,
        state: "_CramState",
        gif: Gif,
        partner: Union[Gif, str],
        pair_value: float,
    ) -> Optional[AllocationResult]:
        """Build and validate one cluster; commit on success."""
        if partner == SELF_PAIR:
            return self._attempt_self(state, gif)
        relation = state.kernel.relationship(gif.profile, partner.profile)
        if relation is Relation.SUPERSET:
            return self._attempt_covering(state, coverer=gif, covered=partner)
        if relation is Relation.SUBSET:
            return self._attempt_covering(state, coverer=partner, covered=gif)
        # INTERSECT — or EMPTY, which only the XOR metric lets through.
        if relation is Relation.INTERSECT and self.enable_one_to_many:
            for parent in (gif, partner):
                result = self._attempt_one_to_many(state, parent, pair_value)
                if result is not None:
                    return result
        return state.try_merge([gif.lightest_unit(), partner.lightest_unit()],
                               sources=[gif, partner])

    def _attempt_self(self, state: "_CramState", gif: Gif) -> Optional[AllocationResult]:
        """Equal relationship: largest allocatable within-GIF cluster."""
        ordered = gif.units_ascending_bandwidth()
        if len(ordered) < 2:
            return None
        best_result: Optional[AllocationResult] = None
        best_k = 0
        low, high = 2, len(ordered)
        while low <= high:
            mid = (low + high) // 2
            result = state.probe_merge(ordered[:mid])
            if result is not None:
                best_result, best_k = result, mid
                low = mid + 1
            else:
                high = mid - 1
        if best_result is None:
            return None
        return state.commit_merge(ordered[:best_k], sources=[gif], result=best_result)

    def _attempt_covering(
        self, state: "_CramState", coverer: Gif, covered: Gif
    ) -> Optional[AllocationResult]:
        """Superset/subset: coverer's lightest unit + k covered units."""
        anchor = coverer.lightest_unit()
        ordered = covered.units_ascending_bandwidth()
        best_result: Optional[AllocationResult] = None
        best_k = 0
        low, high = 1, len(ordered)
        while low <= high:
            mid = (low + high) // 2
            result = state.probe_merge([anchor] + ordered[:mid])
            if result is not None:
                best_result, best_k = result, mid
                low = mid + 1
            else:
                high = mid - 1
        if best_result is None:
            return None
        return state.commit_merge(
            [anchor] + ordered[:best_k], sources=[coverer, covered], result=best_result
        )

    def _attempt_one_to_many(
        self, state: "_CramState", parent: Gif, pair_value: float
    ) -> Optional[AllocationResult]:
        """Optimization 3: cluster ``parent`` with a covered GIF set.

        The Covered GIF Set is chosen greedily (set-cover style) to
        maximize bit coverage while keeping the cluster's load within
        the load requirement of the original candidate pair; the CGS is
        valid only if its closeness with the parent beats the original
        pair's closeness and the allocation still succeeds.
        """
        covered = [g for g in state.poset.covered_gifs(parent) if not g.is_empty()]
        if not covered:
            return None
        anchor = parent.lightest_unit()
        # The partner-side allowance is the parent's own lightest unit
        # again: the partner is not threaded through.
        load_bound = 2 * anchor.delivery_bandwidth
        kernel = state.kernel
        bits = {g.gif_id: kernel.pack(g.profile).bits for g in covered}
        cgs: List[Gif] = []
        cgs_bits = 0
        total_load = anchor.delivery_bandwidth
        remaining = list(covered)
        while remaining:
            covered_count = cgs_bits.bit_count()
            gains = {
                g.gif_id: (cgs_bits | bits[g.gif_id]).bit_count() - covered_count
                for g in remaining
            }
            remaining.sort(key=lambda g: (-gains[g.gif_id], g.gif_id))
            chosen = remaining[0]
            if gains[chosen.gif_id] <= 0:
                break
            chosen_unit = chosen.lightest_unit()
            if total_load + chosen_unit.delivery_bandwidth > load_bound:
                break
            cgs.append(chosen)
            total_load += chosen_unit.delivery_bandwidth
            cgs_bits |= bits[chosen.gif_id]
            remaining.pop(0)
        if not cgs:
            return None
        cgs_profile = kernel.merge_profiles([g.profile for g in cgs])
        cgs_value = self.metric(kernel, cgs_profile, parent.profile)
        kernel.forget(cgs_profile)  # ephemeral, like probe merges
        if cgs_value <= pair_value:
            return None
        merge_units = [anchor] + [g.lightest_unit() for g in cgs]
        return state.try_merge(merge_units, sources=[parent] + cgs)


class _CramState:
    """Mutable state of one CRAM run: GIFs, poset, partner cache."""

    def __init__(
        self,
        units: Sequence[AllocationUnit],
        order: StandingOrder,
        directory: PublisherDirectory,
        metric: ClosenessMetric,
        enable_gif_grouping: bool,
        enable_pruning: bool,
        stats: CramStats,
        kernel: ClosenessKernel,
    ):
        self.directory = directory
        self.metric = metric
        self.enable_pruning = enable_pruning
        self.stats = stats
        self.kernel = kernel
        #: BIN PACKING passes first-fit this standing FFD order of the
        #: pool instead of re-flattening and re-sorting it; a probe
        #: derives a successor, a commit adopts it.
        self._order = order
        if enable_gif_grouping:
            gifs = build_gifs(units)
        else:
            gifs = [Gif(unit.profile, [unit]) for unit in units]
        #: ``gif_id`` -> live GIF, in creation order: every scan walks
        #: ``values()`` (IDs are never reused, so retiring one GIF and
        #: adding another keeps the order a filtered list would have).
        self.gifs: Dict[int, Gif] = {gif.gif_id: gif for gif in gifs}
        self.poset = Poset(kernel=kernel)
        for gif in gifs:
            self.poset.insert(gif)
        self._by_signature: Dict[Tuple, Gif] = {
            gif.profile.signature(): gif for gif in gifs
        }
        #: ``gif_id`` -> the GIF's closest partner; written only by
        #: :meth:`_set_entry` (and dropped by :meth:`_retire`).
        self._entries: Dict[int, _PartnerEntry] = {}
        #: Partner ``gif_id`` -> the ``gif_id``s whose entries name it,
        #: kept with ``_entries`` so a retire reads whom to mark dirty.
        self._named_by: Dict[int, Set[int]] = {}
        #: Lazy max-heap over the entries with a partner:
        #: ``(-value, gif_id, seq, entry)``, so the top is the highest
        #: closeness, ties to the lowest ``gif_id`` (``seq`` keeps the
        #: entries themselves out of the comparison).  An item whose
        #: entry is no longer its GIF's current one is stale and is
        #: dropped when it surfaces.
        self._heap: List[Tuple[float, int, int, _PartnerEntry]] = []
        self._seq = itertools.count()
        self._dirty: Set[int] = set()
        self._blacklist: Set[frozenset] = set()
        #: The merged unit and successor order of each successful probe
        #: of the current attempt, by the merged units' IDs: a commit
        #: adopts its probe's pair and forgets the others' packs.
        self._probes: Dict[Tuple[int, ...], Tuple[AllocationUnit, StandingOrder]] = {}
        #: The returned scheme's broker count: a probe that opens more
        #: brokers is never returned, so it may stop as soon as it is
        #: proven to fit, and one that opens no more needs only its count
        #: until it is returned.  ``None`` (the base pass) runs every
        #: pass out.
        self.stop_above: Optional[int] = None
        #: Probes that stopped early, cut or settled.
        self.cut_passes = 0
        self.settled_passes = 0

    # ------------------------------------------------------------------
    # Partner cache
    # ------------------------------------------------------------------
    def refresh_partners(self) -> None:
        for gif in self.gifs.values():
            self._set_entry(gif.gif_id, self._compute_entry(gif))

    def _set_entry(self, gif_id: int, entry: _PartnerEntry) -> None:
        """Make ``entry`` the GIF's partner entry (the one write path)."""
        self._unname(gif_id)
        self._entries[gif_id] = entry
        if isinstance(entry.partner, Gif):
            self._named_by.setdefault(entry.partner.gif_id, set()).add(gif_id)
        if entry.partner is not None and entry.value > 0:
            heapq.heappush(self._heap, (-entry.value, gif_id, next(self._seq), entry))

    def _unname(self, gif_id: int) -> None:
        """Take the GIF out of its current partner's ``_named_by`` set
        (gone already if that partner was retired)."""
        entry = self._entries.get(gif_id)
        if entry is not None and isinstance(entry.partner, Gif):
            named = self._named_by.get(entry.partner.gif_id)
            if named is not None:
                named.discard(gif_id)

    def _compute_entry(self, gif: Gif) -> _PartnerEntry:
        best = _PartnerEntry(None, 0.0)
        if gif.unit_count >= 2 and frozenset((gif.gif_id, gif.gif_id)) not in self._blacklist:
            value = self.metric(self.kernel, gif.profile, gif.profile)
            if value > 0:
                best = _PartnerEntry(SELF_PAIR, value)
        if self.enable_pruning and self.metric.prunable:
            others, row = self.poset.pruned_row(gif, self.metric)
        else:
            # Non-prunable (XOR) or pruning disabled: the poset cannot
            # skip anything, so the row is every other GIF, in one
            # batched ``closeness_row`` call — same values and
            # evaluation count as per-candidate metric calls.
            others = [other for other in self.gifs.values() if other.gif_id != gif.gif_id]
            row = self.metric.closeness_row(
                self.kernel, gif.profile, [other.profile for other in others]
            )
        partner, value = self._fold_row(gif, others, row)
        if partner is not None and value > best.value:
            best = _PartnerEntry(partner, value)
        return best

    def _fold_row(
        self, gif: Gif, others: Sequence[Gif], row: Sequence[float]
    ) -> Tuple[Optional[Gif], float]:
        """``gif``'s closest partner in a partner-search row.

        One flat loop does the symmetric update (an evaluated candidate
        whose own entry is weaker than ``gif`` takes ``gif`` as its
        partner) and the best-candidate test, in evaluation order; a
        blacklisted pair takes part in neither.  Ties go to the lowest
        ``gif_id``.
        """
        best_gif: Optional[Gif] = None
        best_value = 0.0
        gif_id = gif.gif_id
        entries = self._entries
        blacklist = self._blacklist
        for other, value in zip(others, row):
            if value <= 0:
                continue
            if blacklist and frozenset((gif_id, other.gif_id)) in blacklist:
                continue
            entry = entries.get(other.gif_id)
            if entry is not None and value > entry.value:
                self._set_entry(other.gif_id, _PartnerEntry(gif, value))
            if value > best_value or (
                value == best_value
                and best_gif is not None
                and other.gif_id < best_gif.gif_id
            ):
                best_gif = other
                best_value = value
        return best_gif, best_value

    def best_pair(self) -> Optional[Tuple[Gif, Union[Gif, str], float]]:
        """The pair with the highest non-zero closeness, or ``None``.

        Ties go to the lowest ``gif_id``.  ``tests/naive_cram.py`` keeps
        a full scan of every entry as the oracle of this selection.
        """
        while self._dirty:
            gif_id = self._dirty.pop()
            gif = self.gifs.get(gif_id)
            if gif is None or gif.is_empty():
                continue
            self._set_entry(gif_id, self._compute_entry(gif))
        heap = self._heap
        entries = self._entries
        while heap:
            _, gif_id, _, entry = heap[0]
            if entries.get(gif_id) is not entry:
                heapq.heappop(heap)
                continue
            gif = self.gifs[gif_id]
            partner = entry.partner
            assert partner is not None
            # Neither side can be empty: an emptied GIF is retired in
            # the commit that empties it, ``_retire`` marks dirty every
            # entry that names it, and the loop above recomputed every
            # dirty entry before this selection.
            assert not gif.is_empty()
            assert not (isinstance(partner, Gif) and partner.is_empty())
            return gif, partner, entry.value
        return None

    def blacklist(self, gif: Gif, partner: Union[Gif, str]) -> None:
        if partner == SELF_PAIR:
            key = frozenset((gif.gif_id, gif.gif_id))
        else:
            key = frozenset((gif.gif_id, partner.gif_id))
            self._dirty.add(partner.gif_id)
        self._blacklist.add(key)
        self._dirty.add(gif.gif_id)

    # ------------------------------------------------------------------
    # Pool bookkeeping
    # ------------------------------------------------------------------
    def all_units(self) -> List[AllocationUnit]:
        # Empty GIFs contribute nothing, so no ``is_empty`` filter.
        return [unit for gif in self.gifs.values() for unit in gif.units]

    def unit_count(self) -> int:
        return sum(gif.unit_count for gif in self.gifs.values())

    def allocate_unclustered(self) -> AllocationResult:
        """The base pass: plain BIN PACKING of the initial units."""
        self.stats.binpack_runs += 1
        return self._order.first_fit()

    def probe_merge(
        self, merge_units: Sequence[AllocationUnit]
    ) -> Optional[AllocationResult]:
        """Test-allocate the pool with ``merge_units`` fused; no commit.

        A successful probe keeps its merged unit and successor order for
        :meth:`commit_merge`; a failed one drops its merged profile's
        pack entry at once, so probes don't accumulate.
        """
        merged = AllocationUnit.merged(list(merge_units), self.directory, kernel=self.kernel)
        order = self._order.after_merge(merge_units, merged)
        result = order.first_fit(self.stop_above)
        self.stats.binpack_runs += 1
        if isinstance(result, CutResult):
            self.cut_passes += 1
        elif isinstance(result, SettledResult):
            self.settled_passes += 1
        if not result.success:
            self.kernel.forget(merged.profile)
            return None
        self._probes[_merge_key(merge_units)] = (merged, order)
        return result

    def try_merge(
        self, merge_units: Sequence[AllocationUnit], sources: Sequence[Gif]
    ) -> Optional[AllocationResult]:
        """Probe and, on success, commit in one step."""
        result = self.probe_merge(merge_units)
        if result is None:
            return None
        return self.commit_merge(merge_units, sources, result)

    def commit_merge(
        self,
        merge_units: Sequence[AllocationUnit],
        sources: Sequence[Gif],
        result: AllocationResult,
    ) -> AllocationResult:
        """Apply a validated merge to the GIF pool and poset.

        Adopts the merged unit and successor order the probe of
        ``merge_units`` built.  Its unit is newer than every pool unit,
        as a fresh one would be, so the ``binpack_key`` order is the
        same.
        """
        merged, self._order = self._probes.pop(_merge_key(merge_units))
        for other, _order in self._probes.values():
            self.kernel.forget(other.profile)
        self._probes.clear()
        for gif in sources:
            gif.remove_units(merge_units)
            self._dirty.add(gif.gif_id)
        signature = merged.profile.signature()
        home = self._by_signature.get(signature)
        if home is not None and not (home.is_empty() and home not in self.poset):
            home.add_unit(merged)
            self._dirty.add(home.gif_id)
        else:
            home = Gif(merged.profile, [merged])
            self.gifs[home.gif_id] = home
            self.poset.insert(home)
            self._by_signature[signature] = home
            self._dirty.add(home.gif_id)
        for gif in sources:
            if gif.is_empty() and gif.gif_id != home.gif_id:
                self._retire(gif)
        return result

    def _retire(self, gif: Gif) -> None:
        """Remove an emptied GIF from every index."""
        self.kernel.forget(gif.profile)
        if gif in self.poset:
            self.poset.remove(gif)
        self._unname(gif.gif_id)
        self._entries.pop(gif.gif_id, None)
        self.gifs.pop(gif.gif_id, None)
        signature = gif.profile.signature()
        if self._by_signature.get(signature) is gif:
            del self._by_signature[signature]
        # Ascending ``gif_id``: the order a scan of ``_entries`` (whose
        # keys are created in ascending ID order) would mark them in,
        # which decides the order ``best_pair`` pops the dirty set in.
        self._dirty.update(sorted(self._named_by.pop(gif.gif_id, ())))


def _merge_key(merge_units: Sequence[AllocationUnit]) -> Tuple[int, ...]:
    """What identifies a probe within one attempt: its units' IDs."""
    return tuple(unit.unit_id for unit in merge_units)
