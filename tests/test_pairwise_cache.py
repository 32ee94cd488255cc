"""Property test: pairwise clustering's partner cache == brute rescan.

``pairwise_cluster`` keeps a cached best-partner table so each merge
costs O(C) closeness evaluations.  The cache maintenance (index
shifting, stale-row recompute, merged-row refresh with the lower-index
tie rule) claims to reproduce the brute-force O(C²) rescan *exactly* —
same pair picked at every step, so the same clusters at every K.  This
file checks that claim against a straightforward rescan oracle on
randomized seeded pools, with the fused kernel and without it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import pytest

from repro.core.closeness import METRIC_NAMES, make_metric
from repro.core.pairwise import _pairwise_cluster, pairwise_cluster
from repro.core.units import AllocationUnit
from repro.sim.rng import SeededRng

from conftest import make_directory, make_unit
from naive_cram import Unpacked


def _brute_force_cluster(
    units: Sequence[AllocationUnit],
    cluster_count: int,
    directory,
    metric_name: str,
) -> List[AllocationUnit]:
    """Reference implementation: full O(C²) rescan before every merge.

    Scans rows in ascending index order with strict ``>`` (ties go to
    the earliest pair), merges into the lower index, pops the higher —
    the exact selection rule ``pairwise_cluster`` documents.
    """
    metric = make_metric(metric_name)
    kernel = Unpacked()
    clusters = list(units)
    while len(clusters) > cluster_count and len(clusters) > 1:
        best_i, best_j, best_value = -1, -1, -1.0
        for i, mine in enumerate(clusters):
            for j, theirs in enumerate(clusters):
                if j == i:
                    continue
                value = metric(kernel, mine.profile, theirs.profile)
                if value > best_value:
                    best_i, best_j, best_value = i, j, value
        merged = AllocationUnit.merged(
            [clusters[best_i], clusters[best_j]], directory, kernel
        )
        lo, hi = min(best_i, best_j), max(best_i, best_j)
        clusters[lo] = merged
        clusters.pop(hi)
    return clusters


def _signature(clusters: Sequence[AllocationUnit]) -> List[Tuple[str, ...]]:
    """Order-preserving member-id signature of a cluster list."""
    return [tuple(sorted(cluster.member_ids)) for cluster in clusters]


def _random_units(seed: int, count: int, directory) -> List[AllocationUnit]:
    rng = SeededRng(seed, "pairwise-cache")
    units = []
    advs = list(directory)
    for index in range(count):
        bits_by_adv = {}
        # 1–3 publishers per subscription, random bit windows: enough
        # overlap to create ties and zero-closeness pairs.
        for adv in rng.sample(advs, rng.randint(1, 3)):
            width = rng.randint(1, 12)
            start = rng.randint(0, 40)
            bits_by_adv[adv] = range(start, start + width)
        units.append(make_unit(bits_by_adv, directory, sub_id=f"pw{seed}-{index}"))
    return units


def _naive_cluster(units, cluster_count, directory, metric_name):
    """The cached search with nothing packed (the oracle's algebra)."""
    return _pairwise_cluster(
        list(units), cluster_count, directory, make_metric(metric_name), Unpacked()
    )


@pytest.mark.parametrize("metric_name", METRIC_NAMES)
@pytest.mark.parametrize("seed", [11, 47, 2011])
@pytest.mark.parametrize(
    "cluster", [_naive_cluster, pairwise_cluster], ids=["naive", "kernel"]
)
def test_cached_search_matches_brute_force(metric_name, seed, cluster):
    directory = make_directory([f"P{i}" for i in range(5)])
    units = _random_units(seed, count=12, directory=directory)
    # Checking every K pins the entire merge sequence: a single
    # divergent pick would leave a different cluster list at some K.
    for cluster_count in range(len(units) - 1, 0, -2):
        expected = _brute_force_cluster(
            units, cluster_count, directory, metric_name
        )
        actual = cluster(units, cluster_count, directory, metric_name)
        assert _signature(actual) == _signature(expected), (
            f"divergence at K={cluster_count}"
        )


def test_cache_saves_evaluations_vs_rescan():
    """The point of the cache: far fewer metric evaluations than O(C³)."""
    directory = make_directory([f"P{i}" for i in range(5)])
    units = _random_units(7, count=14, directory=directory)
    metric = make_metric("iou")
    pairwise_cluster(units, 2, directory, metric)
    cached_evals = metric.evaluations
    count = len(units)
    rescan_evals = sum(c * (c - 1) for c in range(count, 2, -1))
    assert cached_evals < rescan_evals / 2
