"""Pinned answers of CRAM's allocation path.

Every value below was recorded at ``84420bb``, before a BIN PACKING
pass stopped building broker bins for the probes that only need its
verdict and before ``_CramState.best_pair`` took the best pair off a
lazy heap instead of scanning every partner entry.  That change claims
to move no answer, so each value must hold unchanged:

* ``Croc.plan`` of ``cram-ios``, ``cram-xor`` and one-shot
  ``fij-trade`` on a small offline pool: the placement digest, the
  overlay tree digest and every ``CramStats`` counter;
* the same for ``cram-ios`` on a pool of 10 kB/s brokers, where dozens
  of probes fail (their pass ends on a unit that fits nowhere);
* a pool that does not fit at all: the base pass fails, and the unit it
  failed on is pinned by its member subscriptions.

On top of ``cbcaf9b`` every gathered pool became packable and
``CramStats`` lost ``kernel_used`` and ``kernel_declined_pools``; those
two keys dropped out of the pins and no value changed.

Later ``CramStats`` gained ``returned_iteration`` and
``merges_past_best``, and CRAM's probes began to stop early once a
first-fit bound proves they cannot become the returned scheme.  The two
keys joined the pins; no other value changed.

When the kernel stopped memoizing pair counts, ``CramStats`` lost
``kernel_fused_evaluations`` and ``kernel_memo_hits`` (their sum was
``closeness_evaluations``); those two keys dropped out of the pins and
no value changed.

The kernel-vs-naive suite cannot see a change in the order CRAM tries
pairs in — ``tests/naive_cram.py`` shares ``best_pair`` — so the
``CramStats`` counters here are what pins it.

Print the current values with::

    PYTHONPATH=src python tests/test_cram_path_pins.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict

import pytest

from repro.core import allocators
from repro.core.cram import CramAllocator
from repro.core.croc import Croc
from repro.core.units import units_from_records
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_homogeneous

SEED = 2011
FAILURE_BUDGET = 150

#: name -> (approach, broker bandwidth in kB/s); 600 subscriptions on 48
#: brokers each.  At 10 kB/s 47 of cram-ios's 366 probes fail.
CASES = {
    "cram-ios": ("cram-ios", 60.0),
    "cram-xor": ("cram-xor", 60.0),
    "fij-trade": ("fij-trade", 60.0),
    "cram-ios-tight": ("cram-ios", 10.0),
}

#: At 4 kB/s the unclustered BIN PACKING pass already fails.
NO_FIT_BANDWIDTH = 4.0

#: One-shot ``fij-trade`` delegates to ``cram-ios`` and answers as it does.
_CRAM_IOS = {
    "brokers": 5, "placement": "e1aefb711cb1dcf4", "tree": "42e1adefc969ca48",
    "stats": {"subscriptions": 600, "initial_units": 600, "initial_gifs": 239,
              "final_units": 78, "iterations": 271, "merges": 271,
              "failures": 0, "closeness_evaluations": 16837,
              "returned_iteration": 271, "merges_past_best": 0,
              "initial_search_evaluations": 7147, "binpack_runs": 348},
}

PINS: Dict[str, Dict[str, Any]] = {
    "cram-ios": _CRAM_IOS,
    "cram-ios-tight": {
        "brokers": 30, "placement": "aed83993f1bd7dd6", "tree": "7dfd748b38596fa4",
        "stats": {"subscriptions": 600, "initial_units": 600, "initial_gifs": 239,
              "final_units": 92, "iterations": 290, "merges": 257,
              "failures": 33, "closeness_evaluations": 18630,
              "returned_iteration": 216, "merges_past_best": 63,
              "initial_search_evaluations": 7147, "binpack_runs": 367},
    },
    "cram-xor": {
        "brokers": 6, "placement": "09845496a73f45e2", "tree": "0b3a5cc747b413e8",
        "stats": {"subscriptions": 600, "initial_units": 600, "initial_gifs": 239,
              "final_units": 6, "iterations": 306, "merges": 291,
              "failures": 15, "closeness_evaluations": 219399,
              "returned_iteration": 289, "merges_past_best": 2,
              "initial_search_evaluations": 56940, "binpack_runs": 388},
    },
    "fij-trade": _CRAM_IOS,
}

NO_FIT_PIN: Dict[str, Any] = {
    "success": False, "failed_members": ["sub-GE-4"], "brokers": 48,
    "stats": {"subscriptions": 600, "initial_units": 600, "initial_gifs": 0,
              "final_units": 0, "iterations": 0, "merges": 0,
              "failures": 0, "closeness_evaluations": 0,
              "returned_iteration": 0, "merges_past_best": 0,
              "initial_search_evaluations": 0, "binpack_runs": 1},
}


def _digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _gathered(bandwidth: float):
    return offline_gather(
        cluster_homogeneous(25, scale=0.6, broker_bandwidth_kbps=bandwidth),
        seed=SEED,
    )


def planned(case: str) -> Dict[str, Any]:
    """The pinned facts of one ``Croc.plan``."""
    approach, bandwidth = CASES[case]
    croc = Croc(allocators.get(approach, failure_budget=FAILURE_BUDGET))
    report = croc.plan(_gathered(bandwidth))
    deployment = report.deployment
    return {
        "brokers": report.allocated_brokers,
        "placement": _digest(sorted(deployment.subscription_placement.items())),
        "tree": _digest(sorted(deployment.tree.edges())),
        "stats": dataclasses.asdict(croc.last_allocator.last_stats),
    }


def no_fit() -> Dict[str, Any]:
    """The failed base pass of a pool that does not fit."""
    gathered = _gathered(NO_FIT_BANDWIDTH)
    cram = CramAllocator(metric="ios", failure_budget=FAILURE_BUDGET)
    result = cram.allocate(
        units_from_records(gathered.records, gathered.directory),
        gathered.broker_pool, gathered.directory,
    )
    return {
        "success": result.success,
        "failed_members": list(result.failed_unit.member_ids),
        "brokers": result.broker_count,
        "stats": dataclasses.asdict(cram.last_stats),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_is_pinned(case):
    assert planned(case) == PINS[case]


def test_a_pool_that_does_not_fit_is_pinned():
    assert no_fit() == NO_FIT_PIN


if __name__ == "__main__":
    print("PINS =", json.dumps({case: planned(case) for case in sorted(CASES)},
                               indent=4, sort_keys=True))
    print("NO_FIT_PIN =", json.dumps(no_fit(), indent=4, sort_keys=True))
