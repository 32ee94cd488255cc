"""Two readings of a "successful" CRAM merge, measured side by side.

CRAM records each successful clustering scheme and returns the latest
one that does not increase the broker count.  What counts as a
*successful* merge is not settled by the paper's text:

``today``
    The shipped reading: a merge succeeds when the whole pool still
    fits the broker pool.  Later merges may need more brokers than the
    returned scheme; they are committed but can never be returned.
``capped``
    A merge succeeds only when its scheme fits in the brokers of the
    best scheme so far.  A probe above that count is a failed attempt
    (the pair is blacklisted), so every committed merge is returned.
``capped-unclustered``
    The same, with the cap at the unclustered BIN PACKING count.

The capped readings are test-side wrappers around
``_CramState.probe_merge``; ``src/`` ships only today's reading.  For
each plan the script prints the allocated brokers after Phase 3 and
GRAPE, ``validate_deployment``'s predicted publication input rate per
pool broker (``plan_offline``'s ``avg_broker_msg_rate``), the iteration
whose scheme CRAM returned, and the seconds ``Croc.plan`` took.

Run it as a script (all pools by default, several minutes)::

    PYTHONPATH=src python tests/cram_readings.py
    PYTHONPATH=src python tests/cram_readings.py --pool homogeneous-2400

The pools are offline profiles, seeds as listed in :data:`POOLS`:
``cluster_homogeneous(100, 0.6)`` (2,400 subscriptions),
``cluster_homogeneous(100, 1.0)`` (4,000), ``cluster_homogeneous(200,
1.0)`` (8,000) and ``cluster_heterogeneous(200, 1.0)``.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from unittest import mock

from repro.core import allocators
from repro.core.cram import _CramState
from repro.core.croc import Croc
from repro.core.validation import validate_deployment
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_heterogeneous, cluster_homogeneous

#: The budget ``bench_e2e``'s ``plan_offline`` plans with.
FAILURE_BUDGET = 150

READINGS = ("today", "capped", "capped-unclustered")

METRICS = ("cram-intersect", "cram-xor", "cram-ios", "cram-iou")

#: Pool name -> (scenario builder, approaches, seeds).
POOLS: Dict[str, Tuple[Callable[[], Any], Tuple[str, ...], Tuple[int, ...]]] = {
    "homogeneous-2400": (lambda: cluster_homogeneous(100, scale=0.6),
                         METRICS, (1, 2, 3, 2011)),
    "homogeneous-4000": (lambda: cluster_homogeneous(100, scale=1.0),
                         ("cram-ios", "cram-xor"), (2011,)),
    "homogeneous-8000": (lambda: cluster_homogeneous(200, scale=1.0),
                         ("cram-ios", "cram-xor"), (2011,)),
    "heterogeneous": (lambda: cluster_heterogeneous(200, scale=1.0),
                      METRICS, (1, 2, 3)),
    # Small enough for the tier-1 smoke test, and CRAM still merges
    # past the scheme it returns under today's reading.
    "smoke": (lambda: cluster_homogeneous(40, scale=0.25),
              ("cram-xor",), (2011,)),
}


def _capped(cap_of: Callable[[_CramState], int]):
    """``_CramState.probe_merge`` that fails any probe above the cap.

    The wrapped probe runs with ``stop_above`` at the cap, so a pass
    that opens more brokers than the cap stops early and is refused,
    and a pass within the cap is a full pass with an exact count.
    """
    real = _CramState.probe_merge

    def probe_merge(self, merge_units):
        cap = cap_of(self)
        stop_above, self.stop_above = self.stop_above, cap
        try:
            result = real(self, merge_units)
        finally:
            self.stop_above = stop_above
        if result is not None and result.broker_count > cap:
            return None
        return result

    return probe_merge


def _recording_unclustered():
    """``_CramState.allocate_unclustered`` that keeps its broker count."""
    real = _CramState.allocate_unclustered

    def allocate_unclustered(self):
        result = real(self)
        self.unclustered_count = result.broker_count
        return result

    return allocate_unclustered


def _reading(name: str):
    """The patches that make CRAM follow reading ``name``."""
    if name == "today":
        return contextlib.nullcontext()
    stack = contextlib.ExitStack()
    if name == "capped":
        # ``stop_above`` is the best scheme's broker count.
        stack.enter_context(mock.patch.object(
            _CramState, "probe_merge", _capped(lambda state: state.stop_above)))
    elif name == "capped-unclustered":
        stack.enter_context(mock.patch.object(
            _CramState, "allocate_unclustered", _recording_unclustered()))
        stack.enter_context(mock.patch.object(
            _CramState, "probe_merge",
            _capped(lambda state: state.unclustered_count)))
    else:
        raise ValueError(f"unknown reading {name!r}; pick from {READINGS}")
    return stack


def plan(gathered, approach: str, reading: str) -> Dict[str, Any]:
    """One ``Croc.plan`` under ``reading``: its answers and its seconds."""
    croc = Croc(allocators.get(approach, failure_budget=FAILURE_BUDGET))
    with _reading(reading):
        started = time.perf_counter()
        report = croc.plan(gathered)
        seconds = time.perf_counter() - started
    stats = croc.last_allocator.last_stats
    specs = {spec.broker_id: spec for spec in gathered.broker_pool}
    validation = validate_deployment(
        report.deployment, gathered.records, gathered.directory, specs
    )
    predicted = sum(load.input_rate for load in validation.loads.values())
    return {
        "brokers": report.allocated_brokers,
        "predicted_rate": predicted / len(gathered.broker_pool),
        "returned_iteration": stats.returned_iteration,
        "merges_past_best": stats.merges_past_best,
        "violations": len(validation.violations),
        "seconds": seconds,
    }


def measure(pool: str) -> Iterator[Dict[str, Any]]:
    """Every (seed, approach, reading) plan of ``pool``, one row each."""
    build, approaches, seeds = POOLS[pool]
    for seed in seeds:
        gathered = offline_gather(build(), seed=seed)
        for approach in approaches:
            for reading in READINGS:
                row = plan(gathered, approach, reading)
                row.update(pool=pool, subscriptions=len(gathered.records),
                           seed=seed, approach=approach, reading=reading)
                yield row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", action="append", choices=sorted(POOLS))
    args = parser.parse_args(argv)
    pools = args.pool or [name for name in POOLS if name != "smoke"]
    print("pool | subs | seed | approach | reading | brokers | predicted "
          "input msg/s per pool broker | returned iteration | merges past "
          "it | violations | Croc.plan s")
    for pool in pools:
        for row in measure(pool):
            print(
                f"{row['pool']} | {row['subscriptions']} | {row['seed']} | "
                f"{row['approach']} | {row['reading']} | {row['brokers']} | "
                f"{row['predicted_rate']:.2f} | {row['returned_iteration']} | "
                f"{row['merges_past_best']} | {row['violations']} | "
                f"{row['seconds']:.2f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
