"""Serial/parallel bit-identity of the sweep executor.

The determinism contract of :mod:`repro.experiments.parallel`: a sweep
executed with ``jobs=N`` returns exactly the serial sweep's results —
same rows, same metric floats (compared via ``repr``), same evaluation
counters — for any N, with or without a fault plan.

``computation_seconds`` is the one exception: it is a wall-clock
*measurement* of the allocator run, not a simulation output, so it is
excluded from the comparison.
"""

from __future__ import annotations

import concurrent.futures

import pytest

from repro.experiments.parallel import (
    CellSpec,
    execute_cells,
    resolve_jobs,
    usable_cpus,
)
from repro.experiments.sweeps import (
    heterogeneous_scenarios,
    homogeneous_scenarios,
    sweep,
    sweep_specs,
)
from repro.sim.faults import FaultPlan


def comparable(result) -> dict:
    """Everything the bit-identity contract covers, reprs for floats."""
    row = result.as_row()
    row.pop("computation_s")  # wall-clock measurement, not simulation output
    return {
        "row": {key: repr(value) for key, value in row.items()},
        "summary": repr(result.summary),
        "baseline": repr(result.baseline_summary),
        "pool_size": result.pool_size,
        "allocated_brokers": result.allocated_brokers,
        "extra": {key: repr(value) for key, value in result.extra.items()},
        "cram_stats": repr(result.cram_stats),
    }


def tiny_homo(subs: int = 5):
    return homogeneous_scenarios(
        subs_sweep=(subs,), scale=0.08, measurement_time=6.0
    )


class TestBitIdentity:
    def test_sweep_jobs4_equals_serial(self):
        scenarios = tiny_homo() + heterogeneous_scenarios(
            ns_sweep=(8,), scale=0.08, measurement_time=6.0
        )
        approaches = ("manual", "binpacking", "cram-ios")
        serial = sweep(scenarios, approaches, seed=11)
        par = sweep(scenarios, approaches, seed=11, jobs=4)
        assert set(serial) == set(par)
        for key in serial:
            assert comparable(serial[key]) == comparable(par[key]), key

    def test_sweep_with_fault_plan_equals_serial(self):
        plan = FaultPlan(
            crash_fraction=0.25, crash_start=4.0, downtime=5.0,
            loss_rate=0.01, jitter=0.001, seed=5,
        )
        scenarios = tiny_homo(4)
        approaches = ("manual", "binpacking")
        serial = sweep(scenarios, approaches, seed=3, fault_plan=plan)
        par = sweep(scenarios, approaches, seed=3, fault_plan=plan, jobs=2)
        for key in serial:
            assert comparable(serial[key]) == comparable(par[key]), key
        # The plan actually did something, or this test is vacuous.
        summary = serial[(scenarios[0].name, "manual")].summary
        assert summary.broker_crashes > 0

    def test_progress_labels_match_serial_order(self):
        scenarios = tiny_homo(3)
        serial_labels: list = []
        parallel_labels: list = []
        sweep(scenarios, ("manual", "binpacking"), seed=2,
              progress=serial_labels.append)
        sweep(scenarios, ("manual", "binpacking"), seed=2,
              progress=parallel_labels.append, jobs=2)
        assert serial_labels == parallel_labels


class TestExecutorMechanics:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == usable_cpus()
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_single_cell_runs_in_process(self):
        specs = sweep_specs(tiny_homo(3), ("manual",), seed=1)
        assert len(specs) == 1
        [result] = execute_cells(specs, jobs=8)
        assert result.approach == "manual"

    def test_return_exceptions_keeps_going(self):
        scenarios = tiny_homo(3)
        specs = [
            CellSpec(scenario=scenarios[0], approach="manual", seed=1),
            CellSpec(scenario=scenarios[0], approach="no-such-approach", seed=1),
            CellSpec(scenario=scenarios[0], approach="binpacking", seed=1),
        ]
        results = execute_cells(specs, jobs=1, return_exceptions=True)
        assert results[0].approach == "manual"
        assert isinstance(results[1], ValueError)
        assert results[2].approach == "binpacking"

        parallel_results = execute_cells(specs, jobs=2, return_exceptions=True)
        assert parallel_results[0].approach == "manual"
        assert isinstance(parallel_results[1], ValueError)
        assert parallel_results[2].approach == "binpacking"

    def test_first_failure_raises_without_return_exceptions(self):
        scenarios = tiny_homo(3)
        specs = [CellSpec(scenario=scenarios[0], approach="no-such", seed=1)]
        with pytest.raises(ValueError):
            execute_cells(specs, jobs=1)

    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch):
        def broken_pool(*_args, **_kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", broken_pool)
        scenarios = tiny_homo(3)
        specs = sweep_specs(scenarios, ("manual", "binpacking"), seed=4)
        labels: list = []
        results = execute_cells(specs, jobs=4, progress=labels.append)
        assert [r.approach for r in results] == ["manual", "binpacking"]
        assert any("pool unavailable" in label for label in labels)
        serial = execute_cells(specs, jobs=1)
        for fallback, reference in zip(results, serial):
            assert comparable(fallback) == comparable(reference)
