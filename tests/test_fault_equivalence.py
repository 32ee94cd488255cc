"""Empty-fault-plan bit-identity (kernel-equivalence style).

Installing a :class:`~repro.sim.faults.FaultPlan` with no events and
zeroed degradation knobs must be a strict no-op: allocations, metrics,
and evaluation counters stay bit-identical to a run with no injector
at all.  This is the contract that lets every fault-tolerance code
path ship inside the hot transport loop without re-baselining the
paper's tables.

``as_row()`` is deliberately not compared wholesale: it includes
``computation_s``, a wall-clock measurement that differs between any
two runs.  Everything derived from the simulation itself must match
exactly.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.sim.faults import FaultPlan
from repro.workloads.scenarios import cluster_homogeneous

from per_delivery_oracle import networks_built

SEED = 2011


def _scenario():
    return cluster_homogeneous(
        subscriptions_per_publisher=8, scale=0.1, measurement_time=10.0
    )


def _run(approach, fault_plan):
    runner = ExperimentRunner(_scenario(), seed=SEED, fault_plan=fault_plan)
    with networks_built() as built:
        result = runner.run(approach)
    assert built[0].watch.checked  # delivery conservation at every boundary
    return result


@pytest.mark.parametrize("approach", ["fbf", "binpacking", "cram-ios", "automatic"])
def test_empty_plan_is_bit_identical(approach):
    bare = _run(approach, None)
    instrumented = _run(approach, FaultPlan())
    assert instrumented.summary == bare.summary
    assert instrumented.baseline_summary == bare.baseline_summary
    assert instrumented.allocated_brokers == bare.allocated_brokers


def test_empty_plan_reports_no_faults():
    result = _run("cram-ios", FaultPlan())
    row = result.summary.fault_row()
    assert row["delivery_rate"] == 1.0
    assert row["broker_crashes"] == 0
    assert row["publications_lost"] == 0
    assert row["degraded_plans"] == 0
    assert row["rollbacks"] == 0


def test_from_spec_none_is_bit_identical_too():
    bare = _run("cram-ios", None)
    instrumented = _run("cram-ios", FaultPlan.from_spec("none"))
    assert instrumented.summary == bare.summary
