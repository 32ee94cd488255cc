"""Online incremental reallocation between full CROC cycles.

The paper's CROC pipeline re-solves the whole three-phase allocation on
every reconfiguration cycle — energy proportional to pool size, not to
drift.  This module adds the incremental middle ground: between full
cycles, a load estimator (see :mod:`repro.sim.estimator`) predicts
per-broker output load, and a *migration strategy* plans individual
subscription moves that pull overloaded brokers back under a
utilization ceiling without redeploying the overlay.

Two deterministic strategies are provided, named after the harvesting
and trading schemes of the incremental-reconfiguration literature:

``inc_trade``
    Harvest: for the worst overloaded broker, hand one subscription to
    the *best-off* (most headroom, currently underloaded) broker.
``fij_trade``
    Pairwise trades: every (overloaded source, underloaded target,
    subscription) triple is scored by the predicted squared-utilization
    improvement ``f_ij``; the best-scoring trade executes first.

Both strategies share a hysteresis band: only brokers **above**
``util_high`` shed load, only brokers **below** ``util_low`` accept it,
and a move may neither push the target over ``util_high`` nor leave it
worse off than the source was.  Brokers inside the band neither give
nor take, so a static workload converges to an empty plan and
subscriptions never ping-pong (pinned by ``tests/test_online.py``).

Everything here is pure data in, pure data out — broker loads and
per-subscription loads as floats, a :class:`MigrationPlan` back.  The
layering contract keeps :mod:`repro.core` below the simulator, so the
estimator feeding and the migration *execution* live in
:mod:`repro.experiments.continuous`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.floats import EPSILON, approx_le

#: Recognized strategy names (underscore canonical form).
STRATEGIES: Tuple[str, ...] = ("inc_trade", "fij_trade")


@dataclass(frozen=True)
class OnlineSpec:
    """Tuning knobs for the online reallocation schedule.

    Frozen and built from primitives so a spec rides inside a pickled
    ``CellSpec`` to spawn-pool workers unchanged.

    Parameters
    ----------
    strategy:
        ``inc_trade`` or ``fij_trade``.
    steps:
        Online migration steps interleaved before each full CROC cycle.
    util_high / util_low:
        The hysteresis band: brokers above ``util_high`` shed
        subscriptions, brokers below ``util_low`` accept them.
    drift_threshold:
        Skip the *full* CROC cycle while the estimator's predicted
        drift since the last full reconfiguration stays below this
        relative bound (0 disables skipping).
    max_moves:
        Migration ceiling per online step.
    window / horizon:
        Estimator sliding-window length and prediction look-ahead
        (virtual seconds).
    gap:
        Virtual seconds a migrated subscriber spends detached — the
        honest delivery gap each migration batch pays.
    autoscale / target_util:
        Enable the drift-gated pool autoscaler
        (:class:`repro.experiments.continuous.PoolAutoscaler`): size the
        allocated broker set so predicted load lands at ``target_util``
        of summed capacity, forcing a full CROC cycle whenever the
        target count disagrees with the current allocation.
    """

    strategy: str = "inc_trade"
    steps: int = 2
    util_high: float = 0.75
    util_low: float = 0.45
    drift_threshold: float = 0.0
    max_moves: int = 4
    window: int = 8
    horizon: float = 0.0
    gap: float = 0.05
    autoscale: bool = False
    target_util: float = 0.6

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown online strategy {self.strategy!r}; pick from {STRATEGIES}"
            )
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 < self.util_low < self.util_high:
            raise ValueError(
                "utilization band requires 0 < util_low < util_high, got "
                f"low={self.util_low}, high={self.util_high}"
            )
        if self.drift_threshold < 0.0:
            raise ValueError(
                f"drift_threshold must be >= 0, got {self.drift_threshold}"
            )
        if self.max_moves < 1:
            raise ValueError(f"max_moves must be >= 1, got {self.max_moves}")
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.horizon < 0.0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if self.gap < 0.0:
            raise ValueError(f"gap must be >= 0, got {self.gap}")
        if not 0.0 < self.target_util <= 1.0:
            raise ValueError(
                f"target_util must be in (0, 1], got {self.target_util}"
            )

    _SPEC_KEYS = ("strategy", "steps", "high", "low", "drift", "moves",
                  "window", "horizon", "gap", "autoscale", "target")

    @classmethod
    def from_spec(cls, spec: str) -> Optional["OnlineSpec"]:
        """Parse a compact ``key=value[,key=value...]`` online spec.

        Keys: ``strategy`` (``inc_trade``/``fij_trade``, hyphens
        accepted), ``steps``, ``high``/``low`` (the utilization band),
        ``drift`` (skip-full-cycle threshold), ``moves`` (per-step
        migration cap), ``window``/``horizon`` (estimator), ``gap``
        (migration detach time).  A bare strategy name is accepted as
        shorthand; an empty spec or ``none`` yields ``None`` (online
        reallocation disabled).

        >>> OnlineSpec.from_spec("fij_trade,steps=3,high=0.8").steps
        3
        """
        text = spec.strip()
        if not text or text.lower() == "none":
            return None
        values: Dict[str, Any] = {}
        for part in text.split(","):
            part = part.strip()
            if "=" not in part:
                # Bare word shorthand for the strategy.
                values["strategy"] = part.lower().replace("-", "_")
                continue
            key, _, raw = part.partition("=")
            key = key.strip().lower()
            raw = raw.strip()
            if key not in cls._SPEC_KEYS:
                raise ValueError(
                    f"unknown online spec key {key!r} "
                    f"(known: {', '.join(cls._SPEC_KEYS)})"
                )
            if key == "strategy":
                values["strategy"] = raw.lower().replace("-", "_")
                continue
            try:
                value = int(raw) if key in ("steps", "moves", "window") else float(raw)
            except ValueError as exc:
                raise ValueError(f"online spec {key}={raw!r} is not numeric") from exc
            if key == "steps":
                values["steps"] = int(value)
            elif key == "high":
                values["util_high"] = float(value)
            elif key == "low":
                values["util_low"] = float(value)
            elif key == "drift":
                values["drift_threshold"] = float(value)
            elif key == "moves":
                values["max_moves"] = int(value)
            elif key == "window":
                values["window"] = int(value)
            elif key == "horizon":
                values["horizon"] = float(value)
            elif key == "autoscale":
                values["autoscale"] = bool(int(value))
            elif key == "target":
                values["target_util"] = float(value)
            else:
                values["gap"] = float(value)
        return cls(**values)


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

    ``predicted_delta`` is the strategy's score for the move: the drop
    in summed squared utilization of the (source, target) pair.
    """

    sub_id: str
    source: str
    target: str
    load: float
    predicted_delta: float


@dataclass(frozen=True)
class MigrationPlan:
    """An ordered batch of migrations produced by one strategy step."""

    strategy: str
    moves: Tuple[Migration, ...] = ()

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    @property
    def is_empty(self) -> bool:
        return not self.moves

    @property
    def total_load(self) -> float:
        """Summed load of every migrated subscription."""
        return sum(move.load for move in self.moves)

    def subscription_ids(self) -> Tuple[str, ...]:
        return tuple(move.sub_id for move in self.moves)

    def as_row(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "moves": len(self.moves),
            "total_load": round(self.total_load, 4),
            "predicted_delta": round(
                sum(move.predicted_delta for move in self.moves), 6
            ),
        }


def _above(value: float, bound: float) -> bool:
    """Strictly above with float slack (the overload test)."""
    return not approx_le(value, bound)


class _TradeStrategy:
    """Shared mechanics: the hysteresis band and the planning state."""

    name = ""

    def __init__(self, spec: OnlineSpec):
        self.spec = spec

    # -- state preparation ------------------------------------------------
    def _prepare(
        self,
        brokers: Sequence[BrokerLoad],
        subscriptions: Sequence[SubscriptionLoad],
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, List[SubscriptionLoad]]]:
        capacities = {broker.broker_id: broker.capacity for broker in brokers}
        loads = {broker.broker_id: broker.load for broker in brokers}
        by_broker: Dict[str, List[SubscriptionLoad]] = {
            broker.broker_id: [] for broker in brokers
        }
        for sub in sorted(subscriptions, key=lambda s: (s.load, s.sub_id)):
            bucket = by_broker.get(sub.broker_id)
            if bucket is not None and sub.load > EPSILON:
                bucket.append(sub)
        return capacities, loads, by_broker

    def _overloaded(
        self, loads: Mapping[str, float], capacities: Mapping[str, float]
    ) -> List[str]:
        """Brokers above the ceiling, worst first (id tie-break)."""
        over = [
            broker_id
            for broker_id in capacities
            if _above(loads[broker_id] / capacities[broker_id], self.spec.util_high)
        ]
        return sorted(
            over, key=lambda b: (-(loads[b] / capacities[b]), b)
        )

    def _score(self, util_source: float, util_source_after: float,
               util_target: float, util_target_after: float) -> float:
        """Drop in summed squared utilization of the affected pair."""
        before = util_source * util_source + util_target * util_target
        after = (
            util_source_after * util_source_after
            + util_target_after * util_target_after
        )
        return before - after

    def plan(
        self,
        brokers: Sequence[BrokerLoad],
        subscriptions: Sequence[SubscriptionLoad],
    ) -> MigrationPlan:
        raise NotImplementedError


class IncTrade(_TradeStrategy):
    """Harvest: worst overloaded broker feeds the best-off broker.

    Each move picks the currently worst source, the underloaded broker
    with the most absolute headroom, and the smallest subscription that
    clears the source's excess (falling back to the largest that fits).
    """

    name = "inc_trade"

    def plan(
        self,
        brokers: Sequence[BrokerLoad],
        subscriptions: Sequence[SubscriptionLoad],
    ) -> MigrationPlan:
        spec = self.spec
        capacities, loads, by_broker = self._prepare(brokers, subscriptions)
        moves: List[Migration] = []
        moved: set = set()
        while len(moves) < spec.max_moves:
            move = self._next_move(capacities, loads, by_broker, moved)
            if move is None:
                break
            moves.append(move)
            moved.add(move.sub_id)
            loads[move.source] -= move.load
            loads[move.target] += move.load
            by_broker[move.source] = [
                sub for sub in by_broker[move.source] if sub.sub_id != move.sub_id
            ]
        return MigrationPlan(strategy=self.name, moves=tuple(moves))

    def _next_move(self, capacities, loads, by_broker, moved) -> Optional[Migration]:
        spec = self.spec
        for source in self._overloaded(loads, capacities):
            util_source = loads[source] / capacities[source]
            excess = (util_source - spec.util_high) * capacities[source]
            candidates = [
                sub for sub in by_broker[source] if sub.sub_id not in moved
            ]
            if not candidates:
                continue
            # Best-off target: most absolute headroom below the ceiling,
            # among brokers currently under the low-water mark.
            target = None
            headroom = 0.0
            for broker_id in sorted(capacities):
                if broker_id == source:
                    continue
                util = loads[broker_id] / capacities[broker_id]
                if not util < spec.util_low:
                    continue
                room = (spec.util_high - util) * capacities[broker_id]
                if room > headroom + EPSILON:
                    target = broker_id
                    headroom = room
            if target is None:
                continue
            # Smallest subscription that clears the excess, else the
            # largest one that still fits the target's headroom.
            fitting = [sub for sub in candidates if approx_le(sub.load, headroom)]
            if not fitting:
                continue
            pick = next(
                (sub for sub in fitting if sub.load >= excess - EPSILON),
                fitting[-1],
            )
            util_target = loads[target] / capacities[target]
            util_source_after = (loads[source] - pick.load) / capacities[source]
            util_target_after = (loads[target] + pick.load) / capacities[target]
            if not util_target_after < util_source:
                # The move would leave the target worse off than the
                # source was — harvesting stops paying here.
                continue
            return Migration(
                sub_id=pick.sub_id,
                source=source,
                target=target,
                load=pick.load,
                predicted_delta=self._score(
                    util_source, util_source_after, util_target, util_target_after
                ),
            )
        return None


class FijTrade(_TradeStrategy):
    """Pairwise trades scored by predicted load delta (``f_ij``).

    Every (overloaded source, underloaded target, subscription) triple
    is scored by the predicted drop in the pair's summed squared
    utilization; the highest-scoring trade executes, the loads update,
    and scoring repeats until the ceiling clears, the score turns
    non-positive, or ``max_moves`` is reached.
    """

    name = "fij_trade"

    def plan(
        self,
        brokers: Sequence[BrokerLoad],
        subscriptions: Sequence[SubscriptionLoad],
    ) -> MigrationPlan:
        spec = self.spec
        capacities, loads, by_broker = self._prepare(brokers, subscriptions)
        moves: List[Migration] = []
        moved: set = set()
        while len(moves) < spec.max_moves:
            best: Optional[Migration] = None
            best_key: Tuple[float, str, str, str] = (0.0, "", "", "")
            for source in self._overloaded(loads, capacities):
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
                        if not util_target < spec.util_low:
                            continue
                        util_target_after = (
                            loads[target] + sub.load
                        ) / capacities[target]
                        if _above(util_target_after, spec.util_high):
                            continue
                        if not util_target_after < util_source:
                            continue
                        score = self._score(
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
        return MigrationPlan(strategy=self.name, moves=tuple(moves))


def make_strategy(spec: OnlineSpec) -> _TradeStrategy:
    """Instantiate the strategy named by ``spec.strategy``."""
    if spec.strategy == "inc_trade":
        return IncTrade(spec)
    if spec.strategy == "fij_trade":
        return FijTrade(spec)
    raise ValueError(
        f"unknown online strategy {spec.strategy!r}; pick from {STRATEGIES}"
    )
