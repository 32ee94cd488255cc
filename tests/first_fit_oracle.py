"""First fit unit by unit over ``BitVector`` dicts: the reference the packed pass is exact against.

Every bin in ``src/`` holds its per-publisher union as one packed
integer (:class:`repro.core.capacity.BrokerBin`), and FBF, BIN PACKING
and CRAM's probes place units with ``first_fit_runs``.  This is the
representation that replaced, kept as the oracle: :class:`OracleBin`
walks each unit's per-publisher ``BitVector`` dict, unions it into the
bin's own dict and re-derives every rate term from cardinalities, and
:func:`first_fit` offers the units one at a time to every bin in
descending-capacity order.  It shares the unit, spec and result types
with production, and nothing of the packing, the runs of twins or the
early stop.  Its observed-window rule is its own copy on purpose.

Run it as a script to plan two offline pools at paper scale with FBF
and BIN PACKING, once as shipped and once with this oracle patched in
for the first fit and for Phase 3's takeover and best-fit bins::

    PYTHONPATH=src python tests/first_fit_oracle.py

It prints one line per case and exits 1 if the broker count, the
Phase-2 bins, the placement or the tree differ, or if the oracle built
no bin in Phase 2, or none in Phase 3 over all cases (then the
comparison proves nothing).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
import time
from typing import Any, Dict
from unittest import mock

from repro.core import allocators
from repro.core.capacity import AllocationResult, sorted_broker_pool
from repro.core.croc import Croc
from repro.core.units import approx_le
from repro.workloads.offline import offline_gather
from repro.workloads.scenarios import cluster_heterogeneous, cluster_homogeneous


class OracleBin:
    """A broker bin whose union is a per-publisher dict of ``BitVector``."""

    def __init__(self, spec, directory):
        self.spec = spec
        self.directory = directory
        self.units = []
        self.used_bandwidth = 0.0
        self.subscription_count = 0
        self.input_rate = 0.0
        self.vectors = {}
        self.cardinalities = {}

    @property
    def utilization(self):
        if self.spec.total_output_bandwidth <= 0:
            return 1.0 if self.used_bandwidth > 0 else 0.0
        return min(1.0, self.used_bandwidth / self.spec.total_output_bandwidth)

    def is_empty(self):
        return not self.units

    def rate_increase(self, unit):
        """Input rate of the publications ``unit`` needs that the bin
        does not receive yet, publisher by publisher."""
        increase = 0.0
        for adv_id, vector in unit.profile.items():
            if not vector:
                continue
            publisher = self.directory.get(adv_id)
            if publisher is None:
                continue
            current = self.vectors.get(adv_id)
            if current is None:
                new_cardinality = vector.cardinality
                old_cardinality = 0
            else:
                new_cardinality = current.union(vector).cardinality
                old_cardinality = self.cardinalities[adv_id]
            if new_cardinality == old_cardinality:
                continue
            window = publisher.last_message_id - vector.first_id + 1
            window = max(1, min(vector.capacity, window))
            fraction = (new_cardinality - old_cardinality) / window
            increase += min(1.0, fraction) * publisher.publication_rate
        return increase

    def can_accept(self, unit):
        """Paper §IV-A: output bandwidth left, input rate within the
        broker's maximum matching rate."""
        if not approx_le(
            self.used_bandwidth + unit.delivery_bandwidth,
            self.spec.total_output_bandwidth,
        ):
            return False
        function = self.spec.delay_function
        delay = function.base + function.per_subscription * (
            self.subscription_count + unit.subscription_count
        )
        max_rate = math.inf if delay <= 0 else 1.0 / delay
        return approx_le(self.input_rate + self.rate_increase(unit), max_rate)

    def add(self, unit):
        self.input_rate += self.rate_increase(unit)
        for adv_id, vector in unit.profile.items():
            if not vector:
                continue
            current = self.vectors.get(adv_id)
            merged = vector.copy() if current is None else current.union(vector)
            self.vectors[adv_id] = merged
            self.cardinalities[adv_id] = merged.cardinality
        self.units.append(unit)
        self.used_bandwidth += unit.delivery_bandwidth
        self.subscription_count += unit.subscription_count


def first_fit(ordered_units, pool, directory):
    """Each unit, in order, onto the first broker that accepts it."""
    bins = [OracleBin(spec, directory) for spec in sorted_broker_pool(pool)]
    for unit in ordered_units:
        for bin_ in bins:
            if bin_.can_accept(unit):
                bin_.add(unit)
                break
        else:
            return AllocationResult(bins, success=False, failed_unit=unit)
    return AllocationResult(bins, success=True)


def binpacking(units, pool, directory):
    """BIN PACKING: first fit in decreasing bandwidth, ties by unit ID."""
    ordered = sorted(units, key=lambda unit: (-unit.delivery_bandwidth, unit.unit_id))
    return first_fit(ordered, pool, directory)


# ----------------------------------------------------------------------
# Paper-scale comparison
# ----------------------------------------------------------------------

#: ``(label, scenario)`` pairs planned by :func:`main`.
CASES = (
    ("cluster_homogeneous(100, scale=1.0)", lambda: cluster_homogeneous(100, scale=1.0)),
    ("cluster_heterogeneous(200, scale=0.5)", lambda: cluster_heterogeneous(200, scale=0.5)),
)


def _digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


@contextlib.contextmanager
def oracle_patched(directory):
    """FBF, BIN PACKING and Phase 3's bins on the oracle (yields the
    list of the Phase-3 bins built)."""
    phase3_bins = []

    def phase3_bin(spec, kernel):
        phase3_bins.append(OracleBin(spec, directory))
        return phase3_bins[-1]

    with mock.patch("repro.core.fbf.first_fit", first_fit), \
            mock.patch("repro.core.binpacking.first_fit", first_fit), \
            mock.patch("repro.core.overlay_builder.BrokerBin", phase3_bin):
        yield phase3_bins


def plan(gathered, approach: str, oracle: bool) -> Dict[str, Any]:
    """One ``Croc.plan``: its answers, its seconds and, on the oracle,
    how many oracle bins Phase 2 returned and Phase 3 built."""
    croc = Croc(allocators.get(approach))
    patch = oracle_patched(gathered.directory) if oracle else contextlib.nullcontext([])
    with patch as phase3_bins:
        started = time.perf_counter()
        report = croc.plan(gathered)
        seconds = time.perf_counter() - started
    deployment = report.deployment
    bins = report.allocation.bins
    return {
        "answers": {
            "brokers": report.allocated_brokers,
            "bins": _digest([
                (bin_.spec.broker_id, [unit.member_ids for unit in bin_.units],
                 bin_.used_bandwidth, bin_.input_rate, bin_.subscription_count)
                for bin_ in bins
            ]),
            "placement": _digest(sorted(deployment.subscription_placement.items())),
            "tree": _digest(sorted(deployment.tree.edges())),
        },
        "oracle_bins": (sum(isinstance(bin_, OracleBin) for bin_ in bins), len(phase3_bins)),
        "seconds": seconds,
    }


def main() -> int:
    seed = 2011
    failed = False
    phase3_total = 0
    for label, scenario in CASES:
        gathered = offline_gather(scenario(), seed=seed)
        for approach in ("fbf", "binpacking"):
            shipped = plan(gathered, approach, oracle=False)
            oracle = plan(gathered, approach, oracle=True)
            same = shipped["answers"] == oracle["answers"]
            phase2_bins, phase3_bins = oracle["oracle_bins"]
            print(
                f"{label}, seed {seed}, {len(gathered.records)} subscriptions, {approach}: "
                f"{'same answers' if same else 'ANSWERS DIFFER'}; "
                f"{shipped['answers']['brokers']} brokers; oracle bins: {phase2_bins} "
                f"returned by Phase 2, {phase3_bins} built by Phase 3; Croc.plan "
                f"{shipped['seconds']:.2f} s shipped, {oracle['seconds']:.2f} s oracle"
            )
            if not same:
                for key, value in shipped["answers"].items():
                    if oracle["answers"][key] != value:
                        print(f"  {key}: shipped {value} != oracle {oracle['answers'][key]}")
                failed = True
            if not phase2_bins:
                print("  the oracle did not run; the comparison proves nothing")
                failed = True
            phase3_total += phase3_bins
    if not phase3_total:
        print("Phase 3 built no oracle bin; its passes went unchecked")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
