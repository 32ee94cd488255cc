"""Continuous operation: periodic reconfiguration under workload drift.

The paper reconfigures once, from a profiled steady state.  In a real
deployment the workload drifts — publishers speed up or slow down,
subscribers come and go — and the natural extension (the paper's
closing direction) is to re-run CROC periodically.  This module
implements that control loop plus a drifting-workload driver, so the
question "does periodic reconfiguration track the workload?" becomes a
measurable experiment (see ``examples/adaptive_reconfiguration.py``).

Each cycle: let the CBCs re-profile the current traffic, run the full
3-phase reconfiguration, measure the steady state, and record how many
brokers the system needed *this* cycle.

With an :class:`~repro.core.online.OnlineSpec` the loop runs a *mixed*
schedule instead: the profiling phase is cut into ``steps + 1`` equal
slices, and after each of the first ``steps`` slices the
:class:`OnlineScheduler` feeds the window's per-broker output rates to
a fitted :class:`~repro.sim.estimator.BrokerLoadEstimator` and executes
at most :data:`~repro.core.online.MAX_MOVES` individual subscription
migrations planned by :func:`~repro.core.online.fij_trade`.  When the
estimator's drift against the post-reconfiguration baseline stays
under ``drift_threshold`` the expensive full CROC run is skipped for
that cycle — the online steps alone track the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.croc import Croc, ReconfigurationError
from repro.core.energy import EnergyReport, EnergySpec, account_window
from repro.core.floats import EPSILON
from repro.core.online import (
    BrokerLoad,
    Migration,
    OnlineSpec,
    SubscriptionLoad,
    fij_trade,
)
from repro.obs import recorder as obs
from repro.pubsub.message import CONTROL_MESSAGE_KB, Unsubscription
from repro.pubsub.metrics import MetricsSummary
from repro.pubsub.network import PubSubNetwork
from repro.sim.estimator import BrokerLoadEstimator


@dataclass(frozen=True)
class CycleReport:
    """Outcome of one profile → reconfigure → measure cycle.

    Frozen: reports are historical records, shared across report tables
    and benchmarks; mutating one after the fact would silently skew
    every consumer (same convention as the obs-layer snapshots).
    """

    cycle: int
    virtual_time: float
    allocated_brokers: int
    summary: MetricsSummary
    subscriptions_profiled: int
    reconfigured: bool
    skipped_reason: str = ""
    degraded: bool = False
    rolled_back: bool = False
    #: Mixed-schedule outcome: online steps executed this cycle, the
    #: subscriptions they moved, the summed virtual seconds their
    #: owners spent detached, and the estimator drift vs the baseline
    #: captured at the last applied full reconfiguration.
    online_steps: int = 0
    subscriptions_moved: int = 0
    migration_gap_s: float = 0.0
    drift: float = 0.0

    def energy(self, spec: EnergySpec = EnergySpec()) -> EnergyReport:
        """This cycle's measurement window priced under ``spec``."""
        return account_window(spec, self.summary.energy_usage())

    def as_row(self) -> dict:
        return {
            "cycle": self.cycle,
            "t": round(self.virtual_time, 1),
            "allocated_brokers": self.allocated_brokers,
            "avg_broker_message_rate": round(
                self.summary.avg_broker_message_rate, 3
            ),
            "deliveries": self.summary.delivery_count,
            "delivery_rate": round(self.summary.delivery_rate, 4),
            "reconfigured": self.reconfigured,
            "degraded": self.degraded,
            "rolled_back": self.rolled_back,
            "online_steps": self.online_steps,
            "subscriptions_moved": self.subscriptions_moved,
            "migration_gap_s": round(self.migration_gap_s, 4),
            "drift": round(self.drift, 4),
        }


class OnlineScheduler:
    """Estimator-driven migration stepper for the mixed schedule.

    Owns the per-network state the ``fij_trade`` planner needs: a
    :class:`BrokerLoadEstimator` fed with per-broker output rates
    (kB/s over the current metrics window, the same load unit Phase 2
    budgets against ``total_output_bandwidth``), cumulative delivery
    counts used to attribute broker load to individual subscriptions,
    and the baseline load vector the drift check compares against.

    Everything here is deterministic: brokers and subscribers are
    visited in sorted id order, load attribution is pure arithmetic on
    counters that are identical with or without an obs recorder, and
    migration execution advances only virtual time.
    """

    def __init__(self, network: PubSubNetwork, spec: OnlineSpec):
        self.network = network
        self.spec = spec
        self.estimator = BrokerLoadEstimator()
        self.baseline: Dict[str, float] = {}
        self._capacity = {
            broker.broker_id: broker.total_output_bandwidth
            for broker in network.broker_pool()
        }
        self._last_delivered: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def observe_window(self) -> Dict[str, float]:
        """Feed the current window's per-broker kB/s to the estimator."""
        metrics = self.network.metrics
        duration = self.network.sim.now - metrics.window_start
        if duration <= EPSILON:
            return {}
        loads = {
            broker_id: self.network.metrics.bytes_out_total(broker_id) / duration
            for broker_id in sorted(self.network.brokers)
        }
        self.estimator.observe_loads(self.network.sim.now, loads)
        return loads

    def broker_loads(self) -> List[BrokerLoad]:
        """Predicted loads for the brokers migrations may target.

        Restricted to brokers that are in the active deployment and not
        currently crashed — attaching a subscriber to a broker outside
        the overlay would strand its subscriptions.
        """
        loads: List[BrokerLoad] = []
        for broker_id in sorted(self.network.active_brokers):
            if self.network.broker_is_down(broker_id):
                continue
            capacity = self._capacity.get(broker_id, 0.0)
            if capacity <= 0:
                continue
            loads.append(
                BrokerLoad(broker_id, capacity, self.estimator.predict(broker_id))
            )
        return loads

    def subscription_loads(
        self, loads: Dict[str, float]
    ) -> List[SubscriptionLoad]:
        """Attribute each broker's load to its attached subscriptions.

        A broker's window load is split across its attached subscribers
        in proportion to their delivery-count deltas since the previous
        sample (uniformly when nobody received anything), then split
        equally across each subscriber's subscriptions.  Approximate by
        design: the planner only needs a consistent relative ranking
        of "how much would moving this subscription shift".
        """
        by_broker: Dict[str, List] = {}
        for client_id in sorted(self.network.subscribers):
            subscriber = self.network.subscribers[client_id]
            if subscriber.broker_id is None or subscriber.departed:
                continue
            if not subscriber.subscriptions:
                continue
            by_broker.setdefault(subscriber.broker_id, []).append(subscriber)
        result: List[SubscriptionLoad] = []
        for broker_id in sorted(by_broker):
            clients = by_broker[broker_id]
            load = loads.get(broker_id, 0.0)
            deltas = {
                client.client_id: max(
                    0,
                    client.delivered
                    - self._last_delivered.get(client.client_id, 0),
                )
                for client in clients
            }
            total = sum(deltas.values())
            for client in clients:
                if total > 0:
                    share = load * deltas[client.client_id] / total
                else:
                    share = load / len(clients)
                per_sub = share / len(client.subscriptions)
                for subscription in client.subscriptions:
                    result.append(
                        SubscriptionLoad(subscription.sub_id, broker_id, per_sub)
                    )
        for client_id in sorted(self.network.subscribers):
            subscriber = self.network.subscribers[client_id]
            self._last_delivered[client_id] = subscriber.delivered
        return result

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> Tuple[int, float]:
        """One online step: sample, plan, execute.

        Returns the subscriptions actually moved and the summed detach
        gap (both may be less than planned when a move went stale — its
        subscriber churned away or its target broker crashed between
        planning and execution).
        """
        loads = self.observe_window()
        if not loads:
            return 0, 0.0
        brokers = self.broker_loads()
        subscriptions = self.subscription_loads(loads)
        if not brokers or not subscriptions:
            return 0, 0.0
        return self._execute(fij_trade(brokers, subscriptions))

    def _execute(self, plan: Sequence[Migration]) -> Tuple[int, float]:
        """Apply a plan at client granularity.

        Subscriptions live on clients; moving one means moving its
        whole subscriber (retract at the source, detach, a ``gap`` of
        virtual time in flight, re-attach at the target — the client
        re-issues every subscription on attach).  Stale moves are
        skipped, never retargeted: the next step replans from fresh
        samples anyway.
        """
        network = self.network
        active = set(network.active_brokers)
        movers: List[Tuple] = []
        taken = set()
        for move in plan:
            client_id = network.subscriber_for(move.sub_id)
            if client_id is None or client_id in taken:
                continue
            subscriber = network.subscribers.get(client_id)
            if subscriber is None or subscriber.departed:
                continue
            if subscriber.broker_id != move.source:
                continue
            if move.target not in active or network.broker_is_down(move.target):
                continue
            taken.add(client_id)
            movers.append((subscriber, move.target))
        if not movers:
            return 0, 0.0
        moved_subscriptions = 0
        with obs.span("cycle.migrate", moves=len(movers)):
            for subscriber, _target in movers:
                for subscription in list(subscriber.subscriptions):
                    network.client_send(
                        subscriber.client_id,
                        subscriber.broker_id,
                        Unsubscription(subscription.sub_id, subscriber.client_id),
                        CONTROL_MESSAGE_KB,
                    )
                network.brokers[subscriber.broker_id].detach_client(
                    subscriber.client_id
                )
                subscriber.detached()
                moved_subscriptions += len(subscriber.subscriptions)
            if self.spec.gap > 0:
                network.run(self.spec.gap)
            for subscriber, target in movers:
                network.brokers[target].attach_client(subscriber.client_id)
                subscriber.attached(network, target)
        gap_seconds = self.spec.gap * len(movers)
        network.metrics.on_migration(moved_subscriptions, gap_seconds)
        obs.add("online.migrations", moved_subscriptions)
        obs.add("online.migration_gap_s", gap_seconds)
        return moved_subscriptions, gap_seconds

    # ------------------------------------------------------------------
    # Drift vs the post-reconfiguration baseline
    # ------------------------------------------------------------------
    def drift(self) -> float:
        """Max relative deviation of predicted loads from the baseline."""
        return self.estimator.drift(self.baseline)

    def rebase(self) -> None:
        """Capture the current predictions as the new drift baseline."""
        self.baseline = self.estimator.predicted_loads()


class ContinuousReconfigurator:
    """Periodic CROC control loop.

    Parameters
    ----------
    croc:
        The coordinator to re-run each cycle.
    profiling_time / measurement_time:
        Virtual seconds per cycle spent re-filling bit vectors and
        measuring the reconfigured system.
    on_cycle_start:
        Optional hook, called with the cycle index before profiling —
        the drift driver (rate changes, churn) plugs in here.
    online:
        Optional :class:`OnlineSpec` enabling the mixed schedule:
        ``online.steps`` estimator-driven migration steps inside each
        profiling phase, and a drift-gated skip of the full CROC run.
        ``None`` (the default) reproduces the periodic-full-CROC loop
        bit for bit.
    """

    def __init__(
        self,
        croc: Croc,
        profiling_time: float = 60.0,
        measurement_time: float = 30.0,
        on_cycle_start: Optional[Callable[[int], None]] = None,
        online: Optional[OnlineSpec] = None,
    ):
        self.croc = croc
        self.profiling_time = profiling_time
        self.measurement_time = measurement_time
        self.on_cycle_start = on_cycle_start
        self.online = online
        self._scheduler: Optional[OnlineScheduler] = None
        self.reports: List[CycleReport] = []

    @property
    def scheduler(self) -> Optional[OnlineScheduler]:
        """The live :class:`OnlineScheduler` (``None`` until first run)."""
        return self._scheduler

    def _scheduler_for(self, network: PubSubNetwork) -> Optional[OnlineScheduler]:
        if self.online is None:
            return None
        if self._scheduler is None or self._scheduler.network is not network:
            self._scheduler = OnlineScheduler(network, self.online)
        return self._scheduler

    def run(self, network: PubSubNetwork, cycles: int) -> List[CycleReport]:
        """Execute ``cycles`` reconfiguration cycles on a live network."""
        pool = network.broker_pool()
        bandwidths = {spec.broker_id: spec.total_output_bandwidth for spec in pool}
        scheduler = self._scheduler_for(network)
        for cycle in range(cycles):
            if self.on_cycle_start is not None:
                self.on_cycle_start(cycle)
            with obs.span("cycle", index=cycle) as cycle_span:
                online_steps = 0
                moved = 0
                gap_s = 0.0
                drift_value = 0.0
                if scheduler is None:
                    with obs.span("cycle.profile"):
                        network.run(self.profiling_time)
                else:
                    # Mixed schedule: steps+1 equal slices; each of the
                    # first `steps` ends with an online migration step,
                    # and the final slice lets traffic settle so the
                    # CROC gather (if it runs) sees post-migration
                    # routing.
                    slice_time = self.profiling_time / (self.online.steps + 1)
                    for step in range(self.online.steps):
                        network.metrics.reset_window()
                        with obs.span("cycle.online_step", index=step):
                            network.run(slice_time)
                            step_moved, step_gap = scheduler.step()
                        online_steps += 1
                        moved += step_moved
                        gap_s += step_gap
                    network.metrics.reset_window()
                    with obs.span("cycle.profile"):
                        network.run(slice_time)
                    scheduler.observe_window()
                    drift_value = scheduler.drift()
                reconfigured = True
                skipped = ""
                subscriptions = 0
                degraded = False
                rolled_back = False
                skip_full = (
                    scheduler is not None
                    and scheduler.baseline
                    and self.online.drift_threshold > 0
                    and drift_value <= self.online.drift_threshold
                )
                if skip_full:
                    reconfigured = False
                    skipped = (
                        f"drift {drift_value:.4f} within threshold "
                        f"{self.online.drift_threshold}"
                    )
                else:
                    try:
                        report = self.croc.reconfigure(network)
                        subscriptions = report.gather.subscription_count
                        degraded = report.gather.degraded
                        if not report.applied:
                            # Aborted / rolled back mid-apply; the previous
                            # deployment keeps serving traffic.
                            reconfigured = False
                            rolled_back = True
                            skipped = report.rollback_reason
                        elif scheduler is not None:
                            # A fresh full allocation is the reference the
                            # next cycles drift against.
                            scheduler.rebase()
                    except ReconfigurationError as exc:
                        # Keep the current deployment; record why.
                        reconfigured = False
                        skipped = str(exc)
                network.metrics.reset_window()
                with obs.span("cycle.measure"):
                    network.run(self.measurement_time)
                summary = network.metrics.summary(
                    len(pool), network.active_brokers, bandwidths
                )
                cycle_span.set(reconfigured=reconfigured, rolled_back=rolled_back)
            self.reports.append(
                CycleReport(
                    cycle=cycle,
                    virtual_time=network.sim.now,
                    allocated_brokers=len(network.active_brokers),
                    summary=summary,
                    subscriptions_profiled=subscriptions,
                    reconfigured=reconfigured,
                    skipped_reason=skipped,
                    degraded=degraded,
                    rolled_back=rolled_back,
                    online_steps=online_steps,
                    subscriptions_moved=moved,
                    migration_gap_s=gap_s,
                    drift=drift_value,
                )
            )
        return self.reports


class SubscriberChurn:
    """A drift driver that detaches and re-attaches subscribers.

    Each cycle, a random ``leave_fraction`` of the currently attached
    subscribers unsubscribe and detach, and a random subset of the
    previously departed rejoin at a random *active* broker with their
    original subscriptions.  The next CROC run then sees a genuinely
    different subscription pool — the churn scenario the paper's
    one-shot evaluation leaves open.
    """

    def __init__(self, network: PubSubNetwork, rng,
                 leave_fraction: float = 0.2, rejoin_fraction: float = 0.5):
        if not 0.0 <= leave_fraction <= 1.0:
            raise ValueError("leave_fraction must be within [0, 1]")
        if not 0.0 <= rejoin_fraction <= 1.0:
            raise ValueError("rejoin_fraction must be within [0, 1]")
        self._network = network
        self._rng = rng
        self.leave_fraction = leave_fraction
        self.rejoin_fraction = rejoin_fraction
        self._departed: List[str] = []
        self.left_total = 0
        self.rejoined_total = 0

    def __call__(self, cycle: int) -> None:
        network = self._network
        # Rejoin first so a cycle never empties the system.
        rejoining = [
            client_id
            for client_id in list(self._departed)
            if self._rng.random() < self.rejoin_fraction
        ]
        active = network.active_brokers
        for client_id in rejoining:
            self._departed.remove(client_id)
            subscriber = network.subscribers[client_id]
            broker_id = self._rng.choice(active)
            network.brokers[broker_id].attach_client(client_id)
            subscriber.attached(network, broker_id)
            self.rejoined_total += 1
        attached = [
            subscriber
            for subscriber in network.subscribers.values()
            if subscriber.broker_id is not None
        ]
        leavers = [
            subscriber
            for subscriber in attached
            if self._rng.random() < self.leave_fraction
        ]
        if len(leavers) >= len(attached):
            leavers = leavers[:-1]  # always keep at least one subscriber
        for subscriber in leavers:
            for subscription in list(subscriber.subscriptions):
                # Retract in the overlay but keep the subscription object
                # so the client can re-issue it when rejoining.
                network.client_send(
                    subscriber.client_id,
                    subscriber.broker_id,
                    Unsubscription(subscription.sub_id, subscriber.client_id),
                    CONTROL_MESSAGE_KB,
                )
            network.brokers[subscriber.broker_id].detach_client(
                subscriber.client_id
            )
            subscriber.detached()
            subscriber.departed = True
            self._departed.append(subscriber.client_id)
            self.left_total += 1


class RateDrift:
    """A drift driver that scales publisher rates each cycle.

    ``factors[i % len(factors)]`` multiplies every publisher's *base*
    rate in cycle ``i`` — e.g. ``(1.0, 2.0, 0.5)`` models a market-open
    burst followed by a quiet period.  Rates take effect at the next
    publication the client schedules.
    """

    def __init__(self, network: PubSubNetwork, factors=(1.0, 2.0, 0.5)):
        self._network = network
        self._factors = tuple(factors)
        self._base_rates = {
            client_id: publisher.rate
            for client_id, publisher in network.publishers.items()
        }

    def __call__(self, cycle: int) -> None:
        factor = self._factors[cycle % len(self._factors)]
        for client_id, publisher in self._network.publishers.items():
            publisher.rate = self._base_rates[client_id] * factor
