"""GIF-grouping and poset-pruning statistics (paper §IV-C.1/2 claims).

* ``tab-gif``: GIF grouping reduced the paper's 8,000-subscription pool
  by up to 61%.  The same workload recipe (40% identical templates per
  symbol + bucketed inequality thresholds) is measured here across the
  subscription sweep.
* ``tab-pruning``: the poset search cut closeness computations from
  ~5,000,000 to ~280,000 on 3,200 GIFs, and inserting 3,200 GIFs took
  around 2 s.  This bench counts evaluations with and without pruning
  and times poset insertion at the configured scale.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from conftest import BENCH_SCALE, BENCH_SUBS, print_figure
from repro.core.closeness import make_metric
from repro.core.gif import build_gifs, gif_reduction_ratio
from repro.core.kernel import ClosenessKernel
from repro.core.poset import Poset
from repro.core.units import units_from_records
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from profile_oracle import validate_poset  # noqa: E402


def _pool(subs):
    scenario = cluster_homogeneous(subscriptions_per_publisher=subs,
                                   scale=BENCH_SCALE)
    gathered = offline_gather(scenario, seed=2011)
    units = units_from_records(gathered.records, gathered.directory)
    return units, gathered.directory


def _gifs_and_kernel(subs):
    """The GIFs of a pool and the pool's kernel, as CRAM builds its poset."""
    units, directory = _pool(subs)
    kernel = ClosenessKernel.for_pool(directory, [unit.profile for unit in units])
    return build_gifs(units), kernel


def test_tab_gif_reduction(benchmark):
    rows = benchmark.pedantic(
        lambda: [
            {
                "subscriptions": len(units),
                "gifs": len(build_gifs(units)),
                "reduction_pct": round(
                    100 * gif_reduction_ratio(len(units), len(build_gifs(units))), 1
                ),
            }
            for units, _ in (_pool(subs) for subs in BENCH_SUBS)
        ],
        rounds=1,
        iterations=1,
    )
    print_figure("tab-gif: GIF grouping reduction (paper: up to 61%)", rows)
    for row in rows:
        assert 0.2 <= row["reduction_pct"] / 100 <= 0.85


def test_tab_poset_insertion_time(benchmark):
    gifs, kernel = _gifs_and_kernel(BENCH_SUBS[-1])

    def insert_all():
        poset = Poset(kernel)
        for gif in gifs:
            poset.insert(gif)
        return poset

    poset = benchmark(insert_all)
    assert len(poset) == len(gifs)
    validate_poset(poset)


def test_tab_pruning_saves_closeness_evaluations(benchmark):
    """Pruned initial closest-partner search vs exhaustive scan."""
    gifs, kernel = _gifs_and_kernel(BENCH_SUBS[-1])
    poset = Poset(kernel)
    for gif in gifs:
        poset.insert(gif)

    def pruned_search():
        metric = make_metric("ios")
        for gif in gifs:
            poset.closest_partner(gif, metric)
        return metric.evaluations

    pruned = benchmark.pedantic(pruned_search, rounds=1, iterations=1)
    exhaustive_metric = make_metric("ios")
    for gif in gifs:
        for other in gifs:
            if other is not gif:
                exhaustive_metric(kernel, gif.profile, other.profile)
    exhaustive = exhaustive_metric.evaluations
    rows = [{
        "gifs": len(gifs),
        "pruned_evaluations": pruned,
        "exhaustive_evaluations": exhaustive,
        "saving_factor": round(exhaustive / max(1, pruned), 1),
    }]
    print_figure("tab-pruning: closeness evaluations (paper: 5M → 280k ≈ 18x)", rows)
    assert pruned < exhaustive / 2, "pruning must cut the search substantially"
