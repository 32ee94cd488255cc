"""Deterministic per-broker energy model over the virtual clock.

The paper's green metric is *allocated broker count*; this module makes
the claim dimensional.  A frozen :class:`EnergySpec` prices each broker
with an energy-proportional model (idle floor plus a utilization-scaled
active band, per-message matching cost, per-kB transmission cost — the
shape used by the messaging-system energy study in PAPERS.md), and
:func:`account_window` folds one measurement window's counters into a
:class:`EnergyReport`.

Everything here is pure arithmetic over an already-measured
:class:`WindowUsage` snapshot, so energy is a reading of a finished
result (``ExperimentResult.energy()``, ``CycleReport.energy()``), not
an option of the run that produced it.

Float comparisons route through :mod:`repro.core.floats` (reprolint's
``float-equality`` rule).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Tuple

from repro.core.floats import approx_zero

#: Defaults loosely follow the enterprise-broker measurements cited in
#: PAPERS.md (arXiv 2506.10693): a substantial idle floor with a
#: roughly linear utilization band on top, plus small per-unit matching
#: and transmission costs.
DEFAULT_IDLE_WATTS = 60.0
DEFAULT_ACTIVE_WATTS = 90.0
DEFAULT_MATCHING_JOULES = 0.05
DEFAULT_TRANSMISSION_JOULES_PER_KB = 0.02
DEFAULT_CRASHED_WATTS = 0.0


@dataclass(frozen=True)
class EnergySpec:
    """Config-driven broker power model (all knobs are per broker).

    ``idle_watts`` is drawn for every allocated, non-crashed broker for
    the whole window; ``active_watts`` is the *extra* draw at 100%
    output-bandwidth utilization, scaled linearly; ``matching_joules``
    prices each routed broker message; ``transmission_joules_per_kb``
    prices output bytes; ``crashed_watts`` is drawn while a broker is
    down (0 models fail-stop power-off).
    """

    idle_watts: float = DEFAULT_IDLE_WATTS
    active_watts: float = DEFAULT_ACTIVE_WATTS
    matching_joules: float = DEFAULT_MATCHING_JOULES
    transmission_joules_per_kb: float = DEFAULT_TRANSMISSION_JOULES_PER_KB
    crashed_watts: float = DEFAULT_CRASHED_WATTS

    def __post_init__(self) -> None:
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"EnergySpec.{spec_field.name} must be a non-negative "
                    f"number, got {value!r}"
                )


@dataclass(frozen=True)
class WindowUsage:
    """One measurement window's counters, as the energy model sees them.

    Produced by :meth:`repro.pubsub.metrics.MetricsSummary.energy_usage`
    — a pure projection of already-collected metrics, never a live view
    of the simulator.  Per-broker maps may omit brokers (treated as 0).
    """

    duration_s: float
    pool_size: int
    active_brokers: Tuple[str, ...]
    messages: Mapping[str, float]
    bytes_out_kb: Mapping[str, float]
    utilization: Mapping[str, float]
    downtime_s: Mapping[str, float]
    deliveries: int = 0
    mean_delay_s: float = 0.0
    delivery_rate: float = 1.0
    migration_gap_s: float = 0.0


@dataclass(frozen=True)
class BrokerEnergy:
    """One broker's itemized joules over one window."""

    broker_id: str
    idle_joules: float
    active_joules: float
    matching_joules: float
    transmission_joules: float
    crashed_joules: float
    downtime_s: float

    @property
    def joules(self) -> float:
        return (
            self.idle_joules
            + self.active_joules
            + self.matching_joules
            + self.transmission_joules
            + self.crashed_joules
        )


@dataclass(frozen=True)
class EnergyReport:
    """Itemized energy for one measurement window."""

    spec: EnergySpec
    duration_s: float
    pool_size: int
    brokers: Tuple[BrokerEnergy, ...]
    deliveries: int = 0
    mean_delay_s: float = 0.0
    delivery_rate: float = 1.0
    migration_gap_s: float = 0.0

    @property
    def allocated_brokers(self) -> int:
        return len(self.brokers)

    @property
    def joules(self) -> float:
        return sum(broker.joules for broker in self.brokers)

    @property
    def idle_joules(self) -> float:
        return sum(broker.idle_joules for broker in self.brokers)

    @property
    def active_joules(self) -> float:
        return sum(broker.active_joules for broker in self.brokers)

    @property
    def matching_joules(self) -> float:
        return sum(broker.matching_joules for broker in self.brokers)

    @property
    def transmission_joules(self) -> float:
        return sum(broker.transmission_joules for broker in self.brokers)

    @property
    def crashed_joules(self) -> float:
        return sum(broker.crashed_joules for broker in self.brokers)

    @property
    def downtime_s(self) -> float:
        return sum(broker.downtime_s for broker in self.brokers)

    @property
    def joules_per_delivery(self) -> float:
        """Joules per delivered publication; 0.0 when nothing delivered.

        Never negative: all spec knobs and counters are non-negative.
        """
        if self.deliveries <= 0:
            return 0.0
        return self.joules / self.deliveries

    @property
    def mean_watts(self) -> float:
        if approx_zero(self.duration_s):
            return 0.0
        return self.joules / self.duration_s

    def as_row(self) -> Dict[str, float]:
        """Flat dict for the report tables."""
        return {
            "allocated_brokers": self.allocated_brokers,
            "joules": round(self.joules, 4),
            "joules_per_delivery": round(self.joules_per_delivery, 6),
            "mean_watts": round(self.mean_watts, 4),
            "downtime_s": round(self.downtime_s, 4),
        }

    def export_record(
        self, cell: str, scenario: str, approach: str
    ) -> Dict[str, object]:
        """An ``energy`` record for the repro-obs JSONL export."""
        return {
            "record": "energy",
            "cell": cell,
            "scenario": scenario,
            "approach": approach,
            "allocated_brokers": self.allocated_brokers,
            "duration_s": round(self.duration_s, 6),
            "joules": round(self.joules, 6),
            "idle_joules": round(self.idle_joules, 6),
            "active_joules": round(self.active_joules, 6),
            "matching_joules": round(self.matching_joules, 6),
            "transmission_joules": round(self.transmission_joules, 6),
            "crashed_joules": round(self.crashed_joules, 6),
            "downtime_s": round(self.downtime_s, 6),
            "migration_gap_s": round(self.migration_gap_s, 6),
            "deliveries": self.deliveries,
            "joules_per_delivery": round(self.joules_per_delivery, 9),
            "mean_delay_ms": round(self.mean_delay_s * 1000.0, 6),
            "delivery_rate": round(self.delivery_rate, 6),
        }


def account_window(spec: EnergySpec, usage: WindowUsage) -> EnergyReport:
    """Price one measurement window under ``spec``.

    Per allocated broker ``b`` with uptime ``up_b = duration - down_b``
    and output-bandwidth utilization ``util_b``::

        E_b = idle_watts * up_b
            + active_watts * util_b * up_b
            + matching_joules * messages_b
            + tx_joules_per_kb * bytes_out_kb_b
            + crashed_watts * down_b

    Deallocated pool brokers are powered off (zero joules) — the
    paper's green claim priced in joules.  Pure arithmetic: the
    per-broker iteration follows the deployment-ordered
    ``usage.active_brokers`` tuple, so output order is deterministic.
    """
    brokers: List[BrokerEnergy] = []
    for broker_id in usage.active_brokers:
        down = min(max(usage.downtime_s.get(broker_id, 0.0), 0.0),
                   usage.duration_s)
        up = usage.duration_s - down
        util = min(max(usage.utilization.get(broker_id, 0.0), 0.0), 1.0)
        brokers.append(
            BrokerEnergy(
                broker_id=broker_id,
                idle_joules=spec.idle_watts * up,
                active_joules=spec.active_watts * util * up,
                matching_joules=(
                    spec.matching_joules * usage.messages.get(broker_id, 0.0)
                ),
                transmission_joules=(
                    spec.transmission_joules_per_kb
                    * usage.bytes_out_kb.get(broker_id, 0.0)
                ),
                crashed_joules=spec.crashed_watts * down,
                downtime_s=down,
            )
        )
    return EnergyReport(
        spec=spec,
        duration_s=usage.duration_s,
        pool_size=usage.pool_size,
        brokers=tuple(brokers),
        deliveries=usage.deliveries,
        mean_delay_s=usage.mean_delay_s,
        delivery_rate=usage.delivery_rate,
        migration_gap_s=usage.migration_gap_s,
    )
