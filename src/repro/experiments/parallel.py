"""Deterministic process-pool execution of independent sweep cells.

The paper's evaluation is a matrix of (scenario × approach) cells.
Every cell is an isolated simulation: it builds its own network, seeds
its own RNG streams from ``(seed, scenario.name, …)``, and touches no
shared mutable state — so the matrix is embarrassingly parallel.  This
module fans cells out to a pool of **spawned** worker processes and
merges the results in submission order, with three guarantees:

* **Bit-identity** — a cell's result is a pure function of its
  :class:`CellSpec`, so ``execute_cells(specs, jobs=N)`` returns
  exactly the rows, metric floats, and evaluation counters of the
  serial path for every ``N`` (pinned by
  ``tests/test_parallel_equivalence.py``).  The one exception is
  ``computation_seconds``, a wall-clock *measurement* of the allocator
  run, which is not part of the determinism contract.
* **Spawn-safety** — workers start from a fresh interpreter (no
  inherited fork state) and re-import :mod:`repro`; a cell ships its
  approach as a *name*, which the worker resolves through the same
  closed table (:mod:`repro.core.allocators`) the parent would.
* **Graceful fallback** — ``jobs <= 1``, a single cell, or a platform
  where the pool cannot start all run serially in-process, same code
  path as :func:`repro.experiments.sweeps.run_cell`.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Union

from repro.core.config import RunConfig
from repro.experiments.runner import ExperimentResult, ExperimentRunner
from repro.obs import recorder as obs
from repro.sim.faults import FaultPlan
from repro.workloads.scenarios import Scenario

if TYPE_CHECKING:  # pragma: no cover - type-only (the pool loads on first use)
    from concurrent.futures import Future


@dataclass(frozen=True)
class CellSpec:
    """One picklable (scenario, approach, seed, fault_plan) cell.

    Carries everything a worker needs to reproduce the cell from
    scratch; equal specs produce bit-identical results in any process.
    """

    scenario: Scenario
    approach: str
    seed: int = 2011
    cram_failure_budget: Optional[int] = 150
    fault_plan: Optional[FaultPlan] = None
    #: Attach a fresh :class:`repro.obs.Recorder` for this cell and
    #: ship its snapshot back on ``result.obs``.  Does not change the
    #: deterministic outputs (pinned by ``tests/test_obs_equivalence``).
    observe: bool = False
    #: The online-reallocation spec for this cell.
    #: ``RunConfig`` is frozen and picklable, so a spec carries the
    #: exact configuration into spawned workers.  ``None`` = all
    #: defaults.
    config: Optional[RunConfig] = None

    @property
    def label(self) -> str:
        """The progress label, matching the serial sweep's format."""
        return f"{self.scenario.name} / {self.approach}"


def run_spec(spec: CellSpec) -> ExperimentResult:
    """Execute one cell.  The worker-side entry point — and the serial
    path: both funnel through here so they cannot drift apart."""
    runner = ExperimentRunner(
        spec.scenario,
        seed=spec.seed,
        cram_failure_budget=spec.cram_failure_budget,
        fault_plan=spec.fault_plan,
        config=spec.config,
    )
    if not spec.observe:
        return runner.run(spec.approach)
    with obs.attached(obs.Recorder()) as recorder:
        result = runner.run(spec.approach)
    result.obs = recorder.snapshot()
    return result


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``--jobs`` value: ``0`` means one per CPU.

    Uses the scheduler affinity mask where available (containers and
    CI runners often expose fewer usable cores than ``cpu_count``).
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return usable_cpus()
    return jobs


def usable_cpus() -> int:
    """CPUs this process may actually run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)


def _profile_path(profile_dir: str, spec: CellSpec) -> str:
    """``DIR/<scenario>__<approach>.pstats``, filesystem-sanitized."""
    stem = re.sub(
        r"[^A-Za-z0-9._-]+", "-", f"{spec.scenario.name}__{spec.approach}"
    )
    return os.path.join(profile_dir, f"{stem}.pstats")


def _run_one(spec: CellSpec, profile_dir: Optional[str]) -> ExperimentResult:
    """One cell, optionally under cProfile.

    The profile wraps the whole of :func:`run_spec` — network build,
    allocation, measurement — and is dumped even when the cell raises,
    so a crashing configuration still leaves its hot-path evidence.
    Profiling measures wall time but never feeds results, so profiled
    runs stay bit-identical to bare ones.
    """
    if profile_dir is None:
        return run_spec(spec)
    import cProfile

    profile = cProfile.Profile()
    try:
        return profile.runcall(run_spec, spec)
    finally:
        profile.dump_stats(_profile_path(profile_dir, spec))


def _run_serial(
    specs: Sequence[CellSpec],
    progress: Optional[Callable[[str], None]],
    return_exceptions: bool,
    profile_dir: Optional[str] = None,
) -> List[Union[ExperimentResult, BaseException]]:
    results: List[Union[ExperimentResult, BaseException]] = []
    for spec in specs:
        if progress is not None:
            progress(spec.label)
        if return_exceptions:
            try:
                results.append(_run_one(spec, profile_dir))
            except Exception as exc:
                results.append(exc)
        else:
            results.append(_run_one(spec, profile_dir))
    return results


def execute_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    return_exceptions: bool = False,
    profile_dir: Optional[str] = None,
) -> List[Union[ExperimentResult, BaseException]]:
    """Run every cell and return results in submission order.

    Parameters
    ----------
    specs:
        The cells, in the order their results should be returned.
    jobs:
        Worker process count; ``0`` = one per usable CPU, ``<= 1``
        runs serially in-process.
    progress:
        Optional callback receiving each cell's label.  Serial mode
        calls it just before the cell runs; parallel mode calls it as
        results are collected, in the same deterministic order.
    return_exceptions:
        When set, a failing cell contributes its exception object in
        place of a result instead of aborting the whole sweep (the
        CLI's keep-going semantics).  Otherwise the first failure
        propagates.
    profile_dir:
        Dump one cProfile ``.pstats`` file per cell into this
        directory (``<scenario>__<approach>.pstats``).  Forces serial
        execution — a meaningful profile needs the cell alone on the
        interpreter, and worker processes could not ship profiler
        state back.  Results stay bit-identical.
    """
    jobs = resolve_jobs(jobs)
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
        if jobs > 1 and progress is not None:
            progress(f"[profile] profiling forces serial execution (jobs={jobs} ignored)")
        return _run_serial(specs, progress, return_exceptions, profile_dir)
    if jobs <= 1 or len(specs) <= 1:
        return _run_serial(specs, progress, return_exceptions)

    # Imported here, not at module level: only a parallel sweep needs
    # the pool, and it would add about a fifth to ``import repro``.
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    from multiprocessing import get_context

    try:
        # spawn, not fork: workers must re-import repro from scratch so
        # results cannot depend on inherited parent-process state.
        context = get_context("spawn")
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(specs)), mp_context=context
        )
    except (OSError, ValueError, ImportError) as exc:
        # Pool unavailable (no spawn support, process limits, …):
        # degrade to the serial path rather than failing the sweep.
        if progress is not None:
            progress(f"[parallel] pool unavailable ({exc}); running serially")
        return _run_serial(specs, progress, return_exceptions)

    results: List[Union[ExperimentResult, BaseException]] = []
    try:
        with pool:
            futures: List[Future] = [pool.submit(run_spec, spec) for spec in specs]
            for spec, future in zip(specs, futures):
                if progress is not None:
                    progress(spec.label)
                try:
                    result: Union[ExperimentResult, BaseException] = future.result()
                except BrokenExecutor:
                    raise  # the pool itself died — handled below
                except Exception as exc:
                    if not return_exceptions:
                        raise
                    result = exc
                results.append(result)
    except BrokenExecutor as exc:
        # Workers could not start or were killed (sandboxes, rlimits,
        # OOM): cells are pure, so rerunning the whole batch serially
        # yields the identical result set.
        if progress is not None:
            progress(f"[parallel] worker pool broke ({exc}); rerunning serially")
        return _run_serial(specs, progress, return_exceptions)
    return results
