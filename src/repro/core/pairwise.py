"""PAIRWISE-K and PAIRWISE-N — derivatives of Riabov et al. (paper §VI).

The pairwise clustering algorithm repeatedly merges the closest pair of
clusters until a *pre-specified* number of clusters K remains — unlike
CRAM it neither respects broker resource constraints nor derives K at
runtime.  The paper extends it in two ways to make it comparable:

* bit vectors replace the original's language-level clustering (which
  actually *helps* pairwise on the stock-quote workload, as the paper
  notes), and
* the broker overlay is built with the AUTOMATIC baseline since
  pairwise itself says nothing about overlays.

``PAIRWISE-K`` sets K to the cluster count computed by CRAM with the
XOR closeness metric (the metric used by Riabov et al.) and assigns
clusters to uniformly random brokers.  ``PAIRWISE-N`` sets K to the
number of brokers and assigns one cluster per broker.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.capacity import AllocationResult, BrokerBin, BrokerSpec
from repro.core.closeness import ClosenessMetric, make_metric
from repro.core.kernel import ClosenessKernel
from repro.core.profiles import PublisherDirectory
from repro.core.units import AllocationUnit
from repro.core.rng import SeededRng


def pairwise_cluster(
    units: Sequence[AllocationUnit],
    cluster_count: int,
    directory: PublisherDirectory,
    metric: Union[str, ClosenessMetric] = "xor",
) -> List[AllocationUnit]:
    """Merge the closest pair until ``cluster_count`` clusters remain.

    Capacity-oblivious, K fixed a priori — the two properties the paper
    criticizes.  Uses a cached best-partner table so each merge costs
    O(C) metric evaluations instead of an O(C²) rescan; the cache is
    maintained so the merge sequence is *identical* to the rescan's
    (``tests/test_pairwise_cache.py`` checks this property).  The pool's
    fused kernel computes every row.
    """
    if isinstance(metric, str):
        metric = make_metric(metric)
    clusters: List[AllocationUnit] = list(units)
    if cluster_count < 1:
        raise ValueError("cluster_count must be at least 1")
    kernel = ClosenessKernel.for_pool(directory, [unit.profile for unit in clusters])
    return _pairwise_cluster(clusters, cluster_count, directory, metric, kernel)


def _pairwise_cluster(
    clusters: List[AllocationUnit],
    cluster_count: int,
    directory: PublisherDirectory,
    metric: ClosenessMetric,
    kernel: ClosenessKernel,
) -> List[AllocationUnit]:
    """The merge loop of :func:`pairwise_cluster` over the pool's ``kernel``."""
    best_partner: Dict[int, Tuple[int, float]] = {}

    def compute_partner(index: int) -> None:
        mine = clusters[index]
        indices = [j for j in range(len(clusters)) if j != index]
        row = metric.closeness_row(
            kernel, mine.profile, [clusters[j].profile for j in indices]
        )
        best_j, best_value = -1, -1.0
        for j, value in zip(indices, row):
            if value > best_value:
                best_j, best_value = j, value
        best_partner[index] = (best_j, best_value)

    for index in range(len(clusters)):
        if len(clusters) > 1:
            compute_partner(index)

    while len(clusters) > cluster_count and len(clusters) > 1:
        # Pick the globally closest pair from the cache, scanning rows
        # in ascending index order exactly like a brute-force rescan.
        best_i, best_j, best_value = -1, -1, -1.0
        for index in sorted(best_partner):
            j, value = best_partner[index]
            if value > best_value:
                best_i, best_j, best_value = index, j, value
        merged = AllocationUnit.merged(
            [clusters[best_i], clusters[best_j]], directory, kernel=kernel
        )
        lo, hi = min(best_i, best_j), max(best_i, best_j)
        kernel.forget(clusters[lo].profile)
        kernel.forget(clusters[hi].profile)
        clusters[lo] = merged
        clusters.pop(hi)
        # Rebuild the cache around the removed index.  Indices above hi
        # shift down by one; partners pointing at lo or hi are stale.
        stale = set()
        new_cache: Dict[int, Tuple[int, float]] = {}
        for index, (j, value) in best_partner.items():
            if index in (lo, hi):
                continue
            new_index = index - 1 if index > hi else index
            if j in (lo, hi):
                stale.add(new_index)
            else:
                new_cache[new_index] = (j - 1 if j > hi else j, value)
        best_partner = new_cache
        stale.add(lo)
        if len(clusters) > 1:
            # A surviving row's cached partner is still its best among
            # the unchanged clusters, but the *merged* cluster may now
            # beat it.  One row against the merged profile keeps every
            # entry identical to what a full rescan would produce (ties
            # go to the lower index, mirroring the strict-`>` scan).
            survivors = [i for i in sorted(best_partner) if i not in stale]
            row = metric.closeness_row(
                kernel, merged.profile, [clusters[i].profile for i in survivors]
            )
            for i, value in zip(survivors, row):
                cached_j, cached_value = best_partner[i]
                if value > cached_value or (value == cached_value and lo < cached_j):
                    best_partner[i] = (lo, value)
            for index in sorted(stale):
                compute_partner(index)
    return clusters


class PairwiseAllocator:
    """Common machinery of the two pairwise derivatives."""

    def __init__(self, metric: Union[str, ClosenessMetric] = "xor",
                 rng: Optional[SeededRng] = None):
        self.metric = make_metric(metric) if isinstance(metric, str) else metric
        self._rng = rng if rng is not None else SeededRng(0, "pairwise")

    def _force_assign(
        self,
        clusters: Sequence[AllocationUnit],
        targets: Sequence[BrokerSpec],
        directory: PublisherDirectory,
    ) -> AllocationResult:
        """Place cluster i on target i, *without* feasibility checks.

        Pairwise is capacity-unaware: overload simply happens, and the
        evaluation measures its consequences.
        """
        kernel = ClosenessKernel.for_pool(directory, [cluster.profile for cluster in clusters])
        bins: Dict[str, BrokerBin] = {}
        for cluster, spec in zip(clusters, targets):
            bin_ = bins.get(spec.broker_id)
            if bin_ is None:
                bin_ = BrokerBin(spec, kernel)
                bins[spec.broker_id] = bin_
            bin_.add(cluster)
        return AllocationResult(list(bins.values()), success=True)


class PairwiseKAllocator(PairwiseAllocator):
    """PAIRWISE-K: K from CRAM-XOR, clusters on random brokers."""

    name = "pairwise-k"

    def __init__(self, cluster_count: int, metric: Union[str, ClosenessMetric] = "xor",
                 rng: Optional[SeededRng] = None):
        super().__init__(metric, rng)
        if cluster_count < 1:
            raise ValueError("cluster_count must be at least 1")
        self.cluster_count = cluster_count

    def allocate(
        self,
        units: Sequence[AllocationUnit],
        pool: Iterable[BrokerSpec],
        directory: PublisherDirectory,
    ) -> AllocationResult:
        pool = list(pool)
        count = min(self.cluster_count, len(units)) or 1
        clusters = pairwise_cluster(units, count, directory, self.metric)
        targets = [self._rng.choice(pool) for _ in clusters]
        return self._force_assign(clusters, targets, directory)


class PairwiseNAllocator(PairwiseAllocator):
    """PAIRWISE-N: one cluster per broker in the pool."""

    name = "pairwise-n"

    def allocate(
        self,
        units: Sequence[AllocationUnit],
        pool: Iterable[BrokerSpec],
        directory: PublisherDirectory,
    ) -> AllocationResult:
        pool = list(pool)
        count = min(len(pool), len(units)) or 1
        clusters = pairwise_cluster(units, count, directory, self.metric)
        targets = self._rng.shuffled(pool)[: len(clusters)]
        return self._force_assign(clusters, targets, directory)
