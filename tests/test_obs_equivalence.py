"""Attached/detached bit-identity of the observability layer.

The obs contract extends the kernel and fault precedents: running with
a recorder attached (spans + counters + timeline sampling, which chunks
``network.run``) must leave every deterministic output — allocations,
metrics rows, sweep results — bit-identical to a detached run, under a
fault plan and under ``jobs=2`` alike.  The recorded snapshot itself
must also be deterministic once wall time is excluded.
"""

from __future__ import annotations

from repro import obs
from repro.experiments.parallel import CellSpec, execute_cells, run_spec
from repro.experiments.runner import ExperimentRunner
from repro.experiments.sweeps import homogeneous_scenarios, sweep_specs
from repro.sim.faults import FaultPlan

from test_parallel_equivalence import comparable, tiny_homo

FAULT_PLAN = FaultPlan(
    crash_fraction=0.25, crash_start=4.0, downtime=5.0,
    loss_rate=0.01, jitter=0.001, seed=5,
)


def observed(spec: CellSpec) -> CellSpec:
    return CellSpec(
        scenario=spec.scenario, approach=spec.approach, seed=spec.seed,
        cram_failure_budget=spec.cram_failure_budget,
        fault_plan=spec.fault_plan, observe=True,
    )


def deterministic_snapshot(result) -> dict:
    """The recorder snapshot with wall time dropped, reprs pinned."""
    assert result.obs is not None
    spans = [
        {key: repr(value) for key, value in span.items() if key != "wall_s"}
        for span in result.obs["spans"]
    ]
    counters = {name: repr(value) for name, value in result.obs["counters"].items()}
    samples = [repr(sample) for sample in result.obs["samples"]]
    return {"spans": spans, "counters": counters, "samples": samples}


class TestAttachedDetachedIdentity:
    def test_single_cell_attached_equals_detached(self):
        scenario = tiny_homo()[0]
        for approach in ("manual", "binpacking", "cram-ios"):
            spec = CellSpec(scenario=scenario, approach=approach, seed=11)
            detached = run_spec(spec)
            attached = run_spec(observed(spec))
            assert comparable(detached) == comparable(attached), approach
            assert detached.obs is None
            assert attached.obs is not None
        # One CRAM run, recorded as one clustering span.
        names = [span["name"] for span in attached.obs["spans"]]
        assert names.count("cram.clustering") == 1

    def test_attached_under_fault_plan(self):
        scenario = tiny_homo(4)[0]
        for approach in ("manual", "binpacking"):
            spec = CellSpec(
                scenario=scenario, approach=approach, seed=3,
                fault_plan=FAULT_PLAN,
            )
            detached = run_spec(spec)
            attached = run_spec(observed(spec))
            assert comparable(detached) == comparable(attached), approach
        # The plan actually fired, or this test is vacuous.
        assert attached.summary.broker_crashes > 0
        assert attached.obs["counters"]["faults.crashes"] > 0

    def test_attached_jobs2_equals_detached_serial(self):
        specs = sweep_specs(tiny_homo(), ("manual", "binpacking", "cram-ios"),
                            seed=11, fault_plan=FAULT_PLAN)
        detached = execute_cells(specs, jobs=1)
        attached = execute_cells([observed(spec) for spec in specs], jobs=2)
        for spec, base, obs_result in zip(specs, detached, attached):
            assert comparable(base) == comparable(obs_result), spec.label
            assert obs_result.obs is not None

    def test_snapshot_itself_is_deterministic(self):
        """Same cell, serial vs jobs=2: identical spans/counters/samples
        (wall time excluded), so exports merge reproducibly."""
        specs = [observed(spec) for spec in sweep_specs(
            tiny_homo(4), ("manual", "cram-ios"), seed=7,
        )]
        serial = execute_cells(specs, jobs=1)
        par = execute_cells(specs, jobs=2)
        for spec, a, b in zip(specs, serial, par):
            assert deterministic_snapshot(a) == deterministic_snapshot(b), spec.label

    def test_manual_recorder_attach_matches_unobserved(self):
        """The library path (obs.attached around a runner) is identical
        to the spec-driven path and to no observation at all."""
        scenario = tiny_homo(4)[0]
        baseline = ExperimentRunner(scenario, seed=9).run("binpacking")
        with obs.attached(obs.Recorder()) as recorder:
            result = ExperimentRunner(scenario, seed=9).run("binpacking")
        assert comparable(baseline) == comparable(result)
        snapshot = recorder.snapshot()
        assert snapshot["spans"] and snapshot["samples"]
        assert snapshot["counters"]["engine.events_processed"] > 0

    def test_detached_leaves_no_recorder_behind(self):
        scenario = tiny_homo(3)[0]
        run_spec(CellSpec(scenario=scenario, approach="manual", seed=1,
                          observe=True))
        assert obs.active() is None
