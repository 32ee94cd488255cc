"""Figure/table sweeps as reusable functions.

Each function regenerates one of the paper's figures at a caller-chosen
scale and returns plain row dictionaries, so the same code backs the
benchmark harness, the command-line interface, and ad-hoc notebook use.

The multi-objective surface lives here too: :class:`ParetoFront` ranks
approaches by non-dominated {allocated_brokers, joules, mean_delay,
delivery_rate} vectors (the single-winner tables answer "who has the
fewest brokers?"; the front answers "who is not strictly beaten?").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, cast

from repro.core.config import RunConfig
from repro.core.floats import approx_eq, approx_le
from repro.experiments.parallel import CellSpec, execute_cells, run_spec
from repro.experiments.runner import ExperimentResult
from repro.sim.faults import FaultPlan
from repro.workloads.scenarios import (
    Scenario,
    cluster_heterogeneous,
    cluster_homogeneous,
    scinet,
)

MetricKey = str


def run_cell(
    scenario: Scenario,
    approach: str,
    seed: int = 2011,
    cram_failure_budget: Optional[int] = 150,
    fault_plan: Optional[FaultPlan] = None,
    config: Optional[RunConfig] = None,
) -> ExperimentResult:
    """One (scenario, approach) measurement."""
    return run_spec(CellSpec(
        scenario=scenario, approach=approach, seed=seed,
        cram_failure_budget=cram_failure_budget, fault_plan=fault_plan,
        config=config,
    ))


def sweep_specs(
    scenarios: Sequence[Scenario],
    approaches: Sequence[str],
    seed: int = 2011,
    fault_plan: Optional[FaultPlan] = None,
    observe: bool = False,
    config: Optional[RunConfig] = None,
) -> List[CellSpec]:
    """The matrix's cells, in the canonical scenario-major order."""
    return [
        CellSpec(scenario=scenario, approach=approach, seed=seed,
                 fault_plan=fault_plan, observe=observe, config=config)
        for scenario in scenarios
        for approach in approaches
    ]


def sweep(
    scenarios: Sequence[Scenario],
    approaches: Sequence[str],
    seed: int = 2011,
    progress: Optional[Callable[[str], None]] = None,
    fault_plan: Optional[FaultPlan] = None,
    jobs: int = 1,
    observe: bool = False,
    config: Optional[RunConfig] = None,
    profile_dir: Optional[str] = None,
) -> Dict[Tuple[str, str], ExperimentResult]:
    """Run the full (scenario × approach) matrix.

    ``jobs`` fans the independent cells out to a process pool
    (``0`` = one worker per usable CPU); results are merged in the
    serial order and are bit-identical to ``jobs=1`` — see
    :mod:`repro.experiments.parallel` for the determinism contract.
    ``observe`` attaches a per-cell recorder (``result.obs``);
    ``config`` threads one :class:`~repro.core.config.RunConfig` into
    every cell; ``profile_dir`` dumps a cProfile ``.pstats`` per cell
    (forces serial execution).
    """
    specs = sweep_specs(scenarios, approaches, seed=seed, fault_plan=fault_plan,
                        observe=observe, config=config)
    cells = execute_cells(specs, jobs=jobs, progress=progress,
                          profile_dir=profile_dir)
    return {
        (spec.scenario.name, spec.approach): cast(ExperimentResult, result)
        for spec, result in zip(specs, cells)
    }


def figure_rows(
    results: Dict[Tuple[str, str], ExperimentResult],
    scenarios: Sequence[Scenario],
    approaches: Sequence[str],
    metric: MetricKey,
    x_label: str = "total_subscriptions",
) -> List[dict]:
    """Pivot a sweep into one row per scenario, one column per approach."""
    rows = []
    for scenario in scenarios:
        row = {x_label: scenario.total_subscriptions}
        for approach in approaches:
            result = results[(scenario.name, approach)]
            row[approach] = result.as_row()[metric]
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# The paper's figures
# ----------------------------------------------------------------------

def homogeneous_scenarios(
    subs_sweep: Iterable[int] = (50, 100, 150, 200),
    scale: float = 1.0,
    measurement_time: float = 40.0,
) -> List[Scenario]:
    return [
        cluster_homogeneous(
            subscriptions_per_publisher=subs,
            scale=scale,
            measurement_time=measurement_time,
        )
        for subs in subs_sweep
    ]


def heterogeneous_scenarios(
    ns_sweep: Iterable[int] = (50, 100, 150, 200),
    scale: float = 1.0,
    measurement_time: float = 40.0,
) -> List[Scenario]:
    return [
        cluster_heterogeneous(ns=ns, scale=scale, measurement_time=measurement_time)
        for ns in ns_sweep
    ]


def scinet_scenarios(
    scale: float = 1.0, measurement_time: float = 30.0
) -> List[Scenario]:
    return [
        scinet(brokers=brokers, scale=scale, measurement_time=measurement_time)
        for brokers in (400, 1000)
    ]


FIGURES: Dict[str, MetricKey] = {
    "message-rate": "avg_broker_message_rate",
    "brokers": "allocated_brokers",
    "delay": "mean_delivery_delay_ms",
    "hops": "mean_hop_count",
    "msg-rate-reduction": "msg_rate_reduction_pct",
    "broker-reduction": "broker_reduction_pct",
    "computation": "computation_s",
}


# ----------------------------------------------------------------------
# Multi-objective Pareto front
# ----------------------------------------------------------------------

#: The green trade-off space: ``(metric key, maximize?)`` per
#: objective.  Brokers, joules, and delay are minimized; delivery rate
#: is maximized.
PARETO_OBJECTIVES: Tuple[Tuple[str, bool], ...] = (
    ("allocated_brokers", False),
    ("joules", False),
    ("mean_delay_ms", False),
    ("delivery_rate", True),
)


@dataclass(frozen=True)
class ParetoEntry:
    """One (scenario, approach) point in objective space.

    ``rank`` is its non-dominated-sorting depth within its scenario:
    1 = on the front, 2 = on the front once rank-1 points are removed,
    and so on.
    """

    cell: str
    scenario: str
    approach: str
    vector: Tuple[float, ...]
    rank: int


def dominates(
    first: Sequence[float],
    second: Sequence[float],
    objectives: Tuple[Tuple[str, bool], ...] = PARETO_OBJECTIVES,
) -> bool:
    """Pareto dominance with float slack.

    ``first`` dominates ``second`` when it is no worse on every
    objective (within :data:`~repro.core.floats.EPSILON`) and strictly
    better on at least one.  Approximately equal vectors never dominate
    each other, so ties share a rank instead of ordering arbitrarily.
    """
    strictly_better = False
    for index, (_key, maximize) in enumerate(objectives):
        a, b = first[index], second[index]
        no_worse = approx_le(b, a) if maximize else approx_le(a, b)
        if not no_worse:
            return False
        if not approx_eq(a, b):
            strictly_better = True
    return strictly_better


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated sorting of (scenario, approach) metric vectors.

    Dominance is only compared *within* a scenario (vectors from
    different workloads are not comparable); entries are ordered by
    (scenario, rank, approach), so the result is independent of input
    order (pinned by ``tests/test_energy_properties.py``).
    """

    objectives: Tuple[Tuple[str, bool], ...]
    entries: Tuple[ParetoEntry, ...]

    @classmethod
    def from_vectors(
        cls,
        items: Sequence[Tuple[str, str, str, Mapping[str, float]]],
        objectives: Tuple[Tuple[str, bool], ...] = PARETO_OBJECTIVES,
    ) -> "ParetoFront":
        """Build from ``(cell, scenario, approach, metrics)`` tuples."""
        points = sorted(
            (
                (
                    scenario,
                    approach,
                    cell,
                    tuple(float(metrics[key]) for key, _max in objectives),
                )
                for cell, scenario, approach, metrics in items
            ),
        )
        by_scenario: Dict[str, List[Tuple[str, str, Tuple[float, ...]]]] = {}
        for scenario, approach, cell, vector in points:
            by_scenario.setdefault(scenario, []).append(
                (approach, cell, vector)
            )
        entries: List[ParetoEntry] = []
        for scenario in sorted(by_scenario):
            remaining = list(by_scenario[scenario])
            rank = 0
            while remaining:
                rank += 1
                front = [
                    point
                    for point in remaining
                    if not any(
                        dominates(other[2], point[2], objectives)
                        for other in remaining
                        if other is not point
                    )
                ]
                if not front:  # pragma: no cover - dominance is a strict
                    break      # partial order, so a front always exists
                for approach, cell, vector in front:
                    entries.append(
                        ParetoEntry(
                            cell=cell,
                            scenario=scenario,
                            approach=approach,
                            vector=vector,
                            rank=rank,
                        )
                    )
                remaining = [p for p in remaining if p not in front]
        return cls(objectives=tuple(objectives), entries=tuple(entries))

    def front(self) -> Tuple[ParetoEntry, ...]:
        """The rank-1 (non-dominated) entries."""
        return tuple(entry for entry in self.entries if entry.rank == 1)

    def rank_of(self, scenario: str, approach: str) -> int:
        """The rank of one cell (raises for unknown cells)."""
        for entry in self.entries:
            if entry.scenario == scenario and entry.approach == approach:
                return entry.rank
        raise KeyError(f"no pareto entry for {scenario}/{approach}")

    def rows(self) -> List[dict]:
        """Flat rows for the report tables, one per entry."""
        rows = []
        for entry in self.entries:
            row: Dict[str, object] = {
                "scenario": entry.scenario,
                "approach": entry.approach,
            }
            for index, (key, _max) in enumerate(self.objectives):
                value = entry.vector[index]
                row[key] = (
                    int(value) if key == "allocated_brokers"
                    else round(value, 4)
                )
            row["rank"] = entry.rank
            row["front"] = "*" if entry.rank == 1 else ""
            rows.append(row)
        return rows


def pareto_front(
    results: Mapping[Tuple[str, str], ExperimentResult],
    objectives: Tuple[Tuple[str, bool], ...] = PARETO_OBJECTIVES,
) -> ParetoFront:
    """Extract the front from a sweep, joules under the default spec."""
    items = []
    for (scenario_name, approach), result in results.items():
        metrics = {
            "allocated_brokers": float(result.allocated_brokers),
            "joules": result.energy().joules,
            "mean_delay_ms": result.summary.mean_delivery_delay * 1000.0,
            "delivery_rate": result.summary.delivery_rate,
        }
        items.append(
            (f"{scenario_name}/{approach}", scenario_name, approach, metrics)
        )
    return ParetoFront.from_vectors(items, objectives)
