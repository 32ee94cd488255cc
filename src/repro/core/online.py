"""Online incremental reallocation between full CROC cycles.

The paper's CROC pipeline re-solves the whole three-phase allocation on
every reconfiguration cycle — energy proportional to pool size, not to
drift.  This module adds the incremental middle ground: between full
cycles, a load estimator (see :mod:`repro.sim.estimator`) predicts
per-broker output load, and the ``fij_trade`` planner plans individual
subscription moves that pull overloaded brokers back under a
utilization ceiling without redeploying the overlay.

``fij_trade`` is named after the trading scheme of the incremental-
reconfiguration literature: every (overloaded source, underloaded
target, subscription) triple is scored by the predicted
squared-utilization improvement ``f_ij``, and the best-scoring trade
executes first.

A hysteresis band keeps the plans stable: only brokers **above**
:data:`UTIL_HIGH` shed load, only brokers **below** :data:`UTIL_LOW`
accept it, and a move may neither push the target over
:data:`UTIL_HIGH` nor leave it worse off than the source was.  Brokers
inside the band neither give nor take, so a static workload converges
to an empty plan and subscriptions never ping-pong (pinned by
``tests/test_online.py``).

Everything here is pure data in, pure data out — broker loads and
per-subscription loads as floats, a :class:`MigrationPlan` back.  The
layering contract keeps :mod:`repro.core` below the simulator, so the
estimator feeding and the migration *execution* live in
:mod:`repro.experiments.continuous`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.floats import EPSILON, approx_le

#: Recognized strategy names (underscore canonical form).
STRATEGIES: Tuple[str, ...] = ("fij_trade",)

#: The hysteresis band: brokers above ``UTIL_HIGH`` shed subscriptions,
#: brokers below ``UTIL_LOW`` accept them.
UTIL_HIGH = 0.75
UTIL_LOW = 0.45

#: Migration ceiling per online step.
MAX_MOVES = 4


@dataclass(frozen=True)
class OnlineSpec:
    """The online reallocation schedule.

    Frozen and built from primitives so a spec rides inside a pickled
    ``CellSpec`` to spawn-pool workers unchanged.

    Parameters
    ----------
    strategy:
        The migration planner; ``fij_trade`` is the only one.
    steps:
        Online migration steps interleaved before each full CROC cycle.
    drift_threshold:
        Skip the *full* CROC cycle while the estimator's predicted
        drift since the last full reconfiguration stays below this
        relative bound (0 disables skipping).
    gap:
        Virtual seconds a migrated subscriber spends detached — the
        honest delivery gap each migration batch pays.
    """

    strategy: str = "fij_trade"
    steps: int = 2
    drift_threshold: float = 0.0
    gap: float = 0.05

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown online strategy {self.strategy!r}; pick from {STRATEGIES}"
            )
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.drift_threshold < 0.0:
            raise ValueError(
                f"drift_threshold must be >= 0, got {self.drift_threshold}"
            )
        if self.gap < 0.0:
            raise ValueError(f"gap must be >= 0, got {self.gap}")


@dataclass(frozen=True)
class BrokerLoad:
    """One broker's predicted load against its output capacity.

    ``load`` and ``capacity`` share a unit (the scheduler feeds output
    kB/s against the capacity model's ``total_output_bandwidth``).
    """

    broker_id: str
    capacity: float
    load: float

    def __post_init__(self) -> None:
        if self.capacity <= 0.0:
            raise ValueError(
                f"broker {self.broker_id!r} capacity must be > 0, got {self.capacity}"
            )

    @property
    def utilization(self) -> float:
        return self.load / self.capacity


@dataclass(frozen=True)
class SubscriptionLoad:
    """One subscription's share of its current broker's load."""

    sub_id: str
    broker_id: str
    load: float


@dataclass(frozen=True)
class Migration:
    """One planned subscription move, with its predicted payoff.

    ``predicted_delta`` is the planner's score for the move: the drop
    in summed squared utilization of the (source, target) pair.
    """

    sub_id: str
    source: str
    target: str
    load: float
    predicted_delta: float


@dataclass(frozen=True)
class MigrationPlan:
    """An ordered batch of migrations produced by one planning step."""

    moves: Tuple[Migration, ...] = ()

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)


def _above(value: float, bound: float) -> bool:
    """Strictly above with float slack (the overload test)."""
    return not approx_le(value, bound)


def _score(util_source: float, util_source_after: float,
           util_target: float, util_target_after: float) -> float:
    """Drop in summed squared utilization of the affected pair."""
    before = util_source * util_source + util_target * util_target
    after = (
        util_source_after * util_source_after
        + util_target_after * util_target_after
    )
    return before - after


def fij_trade(
    brokers: Sequence[BrokerLoad],
    subscriptions: Sequence[SubscriptionLoad],
) -> MigrationPlan:
    """Pairwise trades scored by predicted load delta (``f_ij``).

    Every (overloaded source, underloaded target, subscription) triple
    is scored by the predicted drop in the pair's summed squared
    utilization; the highest-scoring trade executes, the loads update,
    and scoring repeats until the ceiling clears, the score turns
    non-positive, or :data:`MAX_MOVES` is reached.
    """
    capacities = {broker.broker_id: broker.capacity for broker in brokers}
    loads = {broker.broker_id: broker.load for broker in brokers}
    by_broker: Dict[str, List[SubscriptionLoad]] = {
        broker.broker_id: [] for broker in brokers
    }
    for sub in sorted(subscriptions, key=lambda s: (s.load, s.sub_id)):
        bucket = by_broker.get(sub.broker_id)
        if bucket is not None and sub.load > EPSILON:
            bucket.append(sub)
    moves: List[Migration] = []
    moved: set = set()
    while len(moves) < MAX_MOVES:
        best: Optional[Migration] = None
        best_key: Tuple[float, str, str, str] = (0.0, "", "", "")
        # Brokers above the ceiling, worst first (id tie-break).
        overloaded = sorted(
            (broker_id for broker_id in capacities
             if _above(loads[broker_id] / capacities[broker_id], UTIL_HIGH)),
            key=lambda b: (-(loads[b] / capacities[b]), b),
        )
        for source in overloaded:
            util_source = loads[source] / capacities[source]
            for sub in by_broker[source]:
                if sub.sub_id in moved:
                    continue
                util_source_after = (
                    loads[source] - sub.load
                ) / capacities[source]
                for target in sorted(capacities):
                    if target == source:
                        continue
                    util_target = loads[target] / capacities[target]
                    if not util_target < UTIL_LOW:
                        continue
                    util_target_after = (
                        loads[target] + sub.load
                    ) / capacities[target]
                    if _above(util_target_after, UTIL_HIGH):
                        continue
                    if not util_target_after < util_source:
                        continue
                    score = _score(
                        util_source, util_source_after,
                        util_target, util_target_after,
                    )
                    if score <= EPSILON:
                        continue
                    key = (-score, source, target, sub.sub_id)
                    if best is None or key < best_key:
                        best = Migration(
                            sub_id=sub.sub_id,
                            source=source,
                            target=target,
                            load=sub.load,
                            predicted_delta=score,
                        )
                        best_key = key
        if best is None:
            break
        moves.append(best)
        moved.add(best.sub_id)
        loads[best.source] -= best.load
        loads[best.target] += best.load
        by_broker[best.source] = [
            sub
            for sub in by_broker[best.source]
            if sub.sub_id != best.sub_id
        ]
    return MigrationPlan(tuple(moves))
