"""Parallel sweep executor & engine fast-path benchmarks (paper-external).

Two measurements back the perf work in :mod:`repro.experiments.parallel`
and :mod:`repro.sim.engine`:

* **Sweep speedup** — a fixed 12-cell (4 scenarios × 3 approaches)
  matrix runs serially and with ``jobs=4``; the suite always asserts
  bit-identical rows (``computation_s`` excluded — it is a wall-clock
  measurement) and records the wall-clock speedup.  The ``>= 1.8x``
  floor is only asserted when at least 4 usable CPUs exist, so the
  gate is live on CI runners; with fewer, four workers time-slicing
  the cores measure nothing about the pool and the row records
  ``"skipped": "usable_cpus < 4"`` instead of a ratio.
* **Engine events/sec** — the current event loop against an in-file
  replica of the pre-fast-path loop, on two engine-isolating
  workloads: a pre-scheduled drain with timestamp ties (exercises
  same-timestamp batching) and a cancel-heavy timer churn (exercises
  cancelled-event compaction).  Best-of-3 per engine; each workload
  must hold a >= 1.05x ratio.

Both figures land in ``BENCH_parallel.json`` with the core count and
gate status, so a trajectory reader can tell a real regression from a
starved runner.
"""

from __future__ import annotations

import heapq
import time

from conftest import BENCH_SEED, pool_speedup, record_bench, print_figure
from repro.experiments.parallel import execute_cells, usable_cpus
from repro.experiments.sweeps import homogeneous_scenarios, sweep_specs
from repro.sim.engine import Simulator

# ----------------------------------------------------------------------
# Sweep speedup: serial vs --jobs 4 on a 12-cell matrix
# ----------------------------------------------------------------------

#: Fixed sizes (not the REPRO_BENCH_* knobs): the speedup floor below
#: is calibrated so pool start-up stays small against ~6 s of serial
#: work, and must not drift with the figure-suite scale.
PAR_SUBS = (6, 10, 14, 18)
PAR_SCALE = 0.2
PAR_MEASUREMENT_TIME = 30.0
PAR_APPROACHES = ("manual", "binpacking", "cram-ios")
PAR_JOBS = 4

#: Minimum speedup demanded of jobs=4 — asserted only with >= 4 CPUs.
SPEEDUP_FLOOR = 1.8


def _comparable_rows(results):
    """The bit-identity view of a result list (reprs pin float bits)."""
    rows = []
    for result in results:
        row = result.as_row()
        row.pop("computation_s")  # wall-clock measurement, not simulation output
        rows.append({key: repr(value) for key, value in row.items()})
    return rows


def test_sweep_speedup_and_bit_identity(benchmark):
    scenarios = homogeneous_scenarios(
        subs_sweep=PAR_SUBS, scale=PAR_SCALE,
        measurement_time=PAR_MEASUREMENT_TIME,
    )
    specs = sweep_specs(scenarios, PAR_APPROACHES, seed=BENCH_SEED)
    assert len(specs) == 12

    start = time.perf_counter()
    serial = execute_cells(specs, jobs=1)
    serial_s = time.perf_counter() - start

    def parallel_run():
        return execute_cells(specs, jobs=PAR_JOBS)

    start = time.perf_counter()
    parallel = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    parallel_s = time.perf_counter() - start

    # Bit-identity holds on every machine, regardless of core count.
    assert _comparable_rows(serial) == _comparable_rows(parallel)

    cores = usable_cpus()
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    gate_active = cores >= PAR_JOBS
    measured = pool_speedup(round(speedup, 3), PAR_JOBS, cores)
    print_figure(
        "parallel: 12-cell sweep, serial vs jobs=4",
        [{
            "cells": len(specs),
            "jobs": PAR_JOBS,
            "usable_cpus": cores,
            "serial_s": round(serial_s, 3),
            "parallel_s": round(parallel_s, 3),
            **measured,
            "floor": SPEEDUP_FLOOR if gate_active else None,
        }],
    )
    record_bench(
        "parallel", [],
        sweep_speedup={
            **measured,
            "usable_cpus": cores,
            "floor": SPEEDUP_FLOOR,
            "floor_asserted": gate_active,
        },
    )
    if gate_active:
        assert speedup >= SPEEDUP_FLOOR, (
            f"jobs={PAR_JOBS} speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor on a {cores}-CPU machine"
        )


# ----------------------------------------------------------------------
# Engine events/sec: current loop vs the pre-fast-path loop
# ----------------------------------------------------------------------


class LegacySimulator(Simulator):
    """The event loop as it stood before same-timestamp batching and
    cancelled-event compaction — a faithful replica of the old
    ``Simulator.run`` so the ratio isolates the loop change itself.
    """

    def run(self, until=None, max_events=None):  # noqa: D102 - replica
        executed = 0
        try:
            while self._heap:
                # Both workloads below queue cancellable events only.
                event_time, _seq, event, _args = self._heap[0]
                if until is not None and event_time > until:
                    break
                heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self._now = event_time
                event.callback()
                self._events_processed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    break
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until


def _noop():
    return None


def drain_ties_workload(sim_class, groups=4000, ties=8):
    """Pre-scheduled no-op drain with heavy timestamp ties (the shape
    of clustered arrivals under a fixed link latency)."""
    sim = sim_class()
    for group in range(groups):
        at = group * 0.001
        for _ in range(ties):
            sim.schedule_at(at, _noop)
    events = groups * ties
    start = time.perf_counter()
    sim.run()
    return events, time.perf_counter() - start


def timer_churn_workload(sim_class, timers=4096, live_chain=20000):
    """Cancel-heavy churn: a pile of far-future timers is cancelled up
    front (BIR aggregation / retry-deadline shape), then a self-
    rescheduling chain pays the per-event heap cost of whatever
    corpses the engine still carries."""
    sim = sim_class()
    pending = [sim.schedule_at(1.0e6 + i, _noop) for i in range(timers)]
    for index, event in enumerate(pending):
        if index % 64:  # leave a sparse survivor set
            event.cancel()

    remaining = [live_chain]

    def step():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, step)

    sim.schedule(0.001, step)
    start = time.perf_counter()
    sim.run(until=0.001 * (live_chain + 2))
    return live_chain, time.perf_counter() - start


def _best_rate(workload, sim_class, rounds=3):
    best = 0.0
    for _ in range(rounds):
        events, elapsed = workload(sim_class)
        best = max(best, events / elapsed if elapsed > 0 else float("inf"))
    return best


def test_engine_events_per_second(benchmark):
    workloads = (
        ("drain-ties", drain_ties_workload),
        ("timer-churn", timer_churn_workload),
    )

    def measure():
        rows = []
        for name, workload in workloads:
            new_rate = _best_rate(workload, Simulator)
            legacy_rate = _best_rate(workload, LegacySimulator)
            rows.append({
                "workload": name,
                "events_per_s": round(new_rate),
                "legacy_events_per_s": round(legacy_rate),
                "ratio": round(new_rate / legacy_rate, 3),
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_figure("parallel: engine events/sec, fast-path vs legacy loop", rows)
    for row in rows:
        assert row["ratio"] >= 1.05, (
            f"{row['workload']}: fast-path loop only {row['ratio']}x of the "
            "legacy loop (floor 1.05x)"
        )
