"""CRAM with every probe run out: the reference early-stopping probes are exact against.

A CRAM probe whose pass has opened more brokers than the scheme CRAM
will return stops as soon as a first-fit bound proves the rest of the
pool fits (a *cut*); one that will open no more stops as soon as two
bounds prove its exact broker count (a *settle*; both are
``first_fit_runs``'s ``stop_above``).  The claim is that no answer
moves.  This script plans one offline pool twice per approach — once as
shipped, once with :meth:`StandingOrder.first_fit` patched to drop
``stop_above`` so that every pass runs out — and compares every
``CramStats`` counter, the placement digest and the overlay tree digest.

Run it as a script (the default is ``cluster_homogeneous(100,
scale=1.0)``, 4,000 subscriptions, seed 2011, ``cram-ios`` and
``cram-xor``)::

    PYTHONPATH=src python tests/cut_probe_oracle.py
    PYTHONPATH=src python tests/cut_probe_oracle.py --scale 0.6 \\
        --approach cram-intersect --approach cram-iou

It prints one line per approach and exits 1 if any answer differs, if
the shipped run cut no probe, or if no ``cram-ios`` probe settled (then
the comparison proves nothing about that stop).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import sys
import time
from typing import Any, Dict, List, Optional
from unittest import mock

from repro.core import allocators
from repro.core.binpacking import StandingOrder
from repro.core.croc import Croc
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous

#: The budget ``bench_e2e``'s ``plan_offline`` plans with.
FAILURE_BUDGET = 150


def _digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def full_pass(real):
    """``StandingOrder.first_fit`` that ignores ``stop_above``."""

    def first_fit(self, stop_above: Optional[int] = None):
        return real(self)

    return first_fit


def plan(gathered, approach: str, full: bool) -> Dict[str, Any]:
    """One ``Croc.plan``: its answers, its early-stopped probes and its seconds."""
    croc = Croc(allocators.get(approach, failure_budget=FAILURE_BUDGET))
    patch = (
        mock.patch.object(StandingOrder, "first_fit", full_pass(StandingOrder.first_fit))
        if full
        else contextlib.nullcontext()
    )
    with patch:
        started = time.perf_counter()
        report = croc.plan(gathered)
        seconds = time.perf_counter() - started
    deployment = report.deployment
    return {
        "answers": {
            "brokers": report.allocated_brokers,
            "placement": _digest(sorted(deployment.subscription_placement.items())),
            "tree": _digest(sorted(deployment.tree.edges())),
            "stats": dataclasses.asdict(croc.last_allocator.last_stats),
        },
        "cut_passes": croc.last_allocator.last_cut_passes,
        "settled_passes": croc.last_allocator.last_settled_passes,
        "seconds": seconds,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--approach", action="append")
    args = parser.parse_args(argv)
    approaches = args.approach or ["cram-ios", "cram-xor"]
    gathered = offline_gather(cluster_homogeneous(100, scale=args.scale), seed=args.seed)
    print(f"cluster_homogeneous(100, scale={args.scale}), seed {args.seed}: "
          f"{len(gathered.records)} subscriptions")
    failed = False
    for approach in approaches:
        full = plan(gathered, approach, full=True)
        cut = plan(gathered, approach, full=False)
        stats = cut["answers"]["stats"]
        same = cut["answers"] == full["answers"]
        print(
            f"{approach}: {'same answers' if same else 'ANSWERS DIFFER'}; "
            f"{stats['iterations']} iterations, returned iteration "
            f"{stats['returned_iteration']}, {stats['merges_past_best']} merges past it; "
            f"{cut['cut_passes']} of {stats['binpack_runs']} passes cut "
            f"({cut['cut_passes'] / stats['binpack_runs']:.0%}), "
            f"{cut['settled_passes']} settled "
            f"({cut['settled_passes'] / stats['binpack_runs']:.0%}); "
            f"Croc.plan {full['seconds']:.2f} s full, {cut['seconds']:.2f} s shipped"
        )
        if not same:
            for key in ("brokers", "placement", "tree", "stats"):
                if cut["answers"][key] != full["answers"][key]:
                    print(f"  {key}: full {full['answers'][key]} != cut {cut['answers'][key]}")
            failed = True
        if cut["cut_passes"] == 0:
            print(f"  {approach}: no probe was cut; the comparison proves nothing")
            failed = True
        if approach == "cram-ios" and cut["settled_passes"] == 0:
            print(f"  {approach}: no probe settled; the comparison proves nothing")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
