"""Measurement instrumentation for the simulated overlay.

Collects, per measurement window: per-broker message counts (in/out)
and output bytes, end-to-end delivery delays, and publication hop
counts.  The experiment runner resets the window after each
reconfiguration so reported numbers describe steady state only.

Two averages of broker message rate are reported, matching the
discussion in DESIGN.md: ``avg_broker_message_rate`` divides total
broker traffic by the *full broker pool* (deallocated brokers count as
idle — this is the paper's headline green-computing metric), while
``avg_active_broker_message_rate`` divides by the brokers actually
allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.energy import WindowUsage


@dataclass
class BrokerCounters:
    """Per-broker, per-window traffic counters."""

    messages_in: int = 0
    messages_out: int = 0
    bytes_out_kb: float = 0.0
    publications_in: int = 0
    publications_out: int = 0
    deliveries: int = 0

    @property
    def messages_total(self) -> int:
        return self.messages_in + self.messages_out


@dataclass
class MetricsSummary:
    """Steady-state measurements over one window.

    The availability block (``messages_lost`` … ``rollbacks``) is fed
    by the fault-injection layer (:mod:`repro.pubsub.faults`) and the
    robust CROC gather; without faults every counter is zero and
    ``delivery_rate`` is 1.0.  Loss counters are per-window; the
    control-plane lifecycle counters (crashes, recoveries, gather
    retries, degraded plans, rollbacks) are cumulative because the
    events they count happen *between* measurement windows.
    """

    duration: float
    pool_size: int
    active_brokers: int
    total_broker_messages: int
    delivery_count: int
    mean_delivery_delay: float
    mean_hop_count: float
    max_delivery_delay: float
    avg_broker_message_rate: float
    avg_active_broker_message_rate: float
    mean_utilization: float
    max_utilization: float
    per_broker_rates: Dict[str, float] = field(default_factory=dict)
    messages_lost: int = 0
    publications_lost: int = 0
    broker_crashes: int = 0
    broker_recoveries: int = 0
    gather_retries: int = 0
    degraded_plans: int = 0
    rollbacks: int = 0
    #: Online-reallocation disruption (cumulative, like the other
    #: control-plane counters): subscriptions moved between brokers and
    #: the summed virtual seconds their owners spent detached.
    subscriptions_migrated: int = 0
    migration_gap_s: float = 0.0
    #: Per-broker detail backing the energy model (``energy_usage``):
    #: the allocated broker ids in deployment order, their per-window
    #: output kB / bandwidth utilization, and virtual seconds each
    #: spent crashed *within this window* (clamped at the window edge,
    #: so a broker down across a reset is charged in both windows).
    active_broker_ids: Tuple[str, ...] = ()
    per_broker_bytes_out_kb: Dict[str, float] = field(default_factory=dict)
    per_broker_utilization: Dict[str, float] = field(default_factory=dict)
    per_broker_downtime_s: Dict[str, float] = field(default_factory=dict)

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction of publication traffic, vs fault drops.

        ``delivered / (delivered + publications_lost)`` — a lower-bound
        proxy for availability: a publication dropped in transit may
        have fanned out to several subscribers, but each dropped copy
        counts once.  1.0 when nothing was lost.
        """
        total = self.delivery_count + self.publications_lost
        if total <= 0:
            return 1.0
        return self.delivery_count / total

    def as_row(self) -> Dict[str, float]:
        """Flat dict for the report tables."""
        return {
            "active_brokers": self.active_brokers,
            "avg_broker_message_rate": round(self.avg_broker_message_rate, 4),
            "avg_active_broker_message_rate": round(
                self.avg_active_broker_message_rate, 4
            ),
            "mean_delivery_delay_ms": round(self.mean_delivery_delay * 1000.0, 4),
            "mean_hop_count": round(self.mean_hop_count, 4),
            "deliveries": self.delivery_count,
            "mean_utilization": round(self.mean_utilization, 4),
            "delivery_rate": round(self.delivery_rate, 4),
        }

    def fault_row(self) -> Dict[str, float]:
        """The availability counters as a flat dict (fault benches)."""
        return {
            "delivery_rate": round(self.delivery_rate, 4),
            "publications_lost": self.publications_lost,
            "messages_lost": self.messages_lost,
            "broker_crashes": self.broker_crashes,
            "broker_recoveries": self.broker_recoveries,
            "gather_retries": self.gather_retries,
            "degraded_plans": self.degraded_plans,
            "rollbacks": self.rollbacks,
            "broker_downtime_s": round(
                sum(self.per_broker_downtime_s.values()), 4
            ),
        }

    def energy_usage(self) -> WindowUsage:
        """This window's counters projected for the energy model.

        A pure copy of already-measured numbers — building it never
        touches the simulator, so energy is read from a finished
        summary (``ExperimentResult.energy()``).  Per-broker message
        counts are reconstructed as ``rate * duration`` (the summary
        stores rates); the round trip is deterministic.
        """
        return WindowUsage(
            duration_s=self.duration,
            pool_size=self.pool_size,
            active_brokers=self.active_broker_ids,
            messages={
                broker_id: rate * self.duration
                for broker_id, rate in self.per_broker_rates.items()
            },
            bytes_out_kb=dict(self.per_broker_bytes_out_kb),
            utilization=dict(self.per_broker_utilization),
            downtime_s=dict(self.per_broker_downtime_s),
            deliveries=self.delivery_count,
            mean_delay_s=self.mean_delivery_delay,
            delivery_rate=self.delivery_rate,
            migration_gap_s=self.migration_gap_s,
        )


def _nothing() -> None:
    """Default ``before_read``: a collector with no network behind it."""


class MetricsCollector:
    """Counters shared by every broker in one network."""

    def __init__(self, sim):
        self._sim = sim
        #: Run before every read of the delivery sums.  The network
        #: installs its ``settle_deliveries`` here, so a reader sees every
        #: delivery that has arrived by ``sim.now`` however the clock was
        #: driven there.
        self.before_read: Callable[[], None] = _nothing
        self._counters: Dict[str, BrokerCounters] = {}
        self._window_start = 0.0
        self._delay_sum = 0.0
        self._delay_max = 0.0
        self._hop_sum = 0
        self._delivery_count = 0
        # Per-window fault losses.
        self._messages_lost = 0
        self._publications_lost = 0
        self._deliveries_lost = 0  # the client-bound share of the above
        # Cumulative control-plane lifecycle counters (reconfiguration
        # happens between windows, so these survive reset_window).
        self._broker_crashes = 0
        self._broker_recoveries = 0
        # Per-window crash downtime: completed intervals accumulate in
        # _downtime_s; _down_since holds the open interval per crashed
        # broker, re-pinned to the window start on reset so a broker
        # down across windows is charged in each.
        self._down_since: Dict[str, float] = {}
        self._downtime_s: Dict[str, float] = {}
        self._gather_retries = 0
        self._degraded_plans = 0
        self._rollbacks = 0
        self._subscriptions_migrated = 0
        self._migration_gap_s = 0.0

    # ------------------------------------------------------------------
    # Event hooks (called by brokers)
    # ------------------------------------------------------------------
    def counters(self, broker_id: str) -> BrokerCounters:
        counters = self._counters.get(broker_id)
        if counters is None:
            counters = BrokerCounters()
            self._counters[broker_id] = counters
        return counters

    def on_receive(self, broker_id: str, is_publication: bool) -> None:
        # ``counters()`` inlined (a per-hop path); the entry is created
        # at the same first touch, so the table keeps its order.
        counters = self._counters.get(broker_id)
        if counters is None:
            counters = self._counters[broker_id] = BrokerCounters()
        counters.messages_in += 1
        if is_publication:
            counters.publications_in += 1

    def on_send(self, broker_id: str, size_kb: float) -> None:
        """A broker sent one control message."""
        counters = self.counters(broker_id)
        counters.messages_out += 1
        counters.bytes_out_kb += size_kb

    def on_publication_sent(self, broker_id: str, size_kb: float, copies: int,
                            deliveries: int) -> None:
        """A broker put ``copies`` of one publication on its output lane,
        ``deliveries`` of them toward local subscribers.

        Counted at send, before any loss draw.  The output kB are added
        one copy at a time: the float total must not depend on how a
        broker's sends are grouped into calls.
        """
        counters = self._counters.get(broker_id)  # ``counters()`` inlined
        if counters is None:
            counters = self._counters[broker_id] = BrokerCounters()
        counters.messages_out += copies
        counters.publications_out += copies
        counters.deliveries += deliveries
        total = counters.bytes_out_kb
        for _ in range(copies):
            total += size_kb
        counters.bytes_out_kb = total

    def record_deliveries(self, delays: Sequence[float], hops: int) -> None:
        """Add completed deliveries: their delays, in arrival order (the
        float sum depends on it), and their summed hop counts."""
        delay_sum = self._delay_sum
        delay_max = self._delay_max
        for delay in delays:
            delay_sum += delay
            if delay > delay_max:
                delay_max = delay
        self._delay_sum = delay_sum
        self._delay_max = delay_max
        self._delivery_count += len(delays)
        self._hop_sum += hops

    # ------------------------------------------------------------------
    # Fault / availability hooks (fault injector and robust gather)
    # ------------------------------------------------------------------
    def on_fault_drop(self, is_publication: bool, to_client: bool = False) -> None:
        """A message was dropped by the fault layer (crash, link, loss)."""
        self._messages_lost += 1
        if is_publication:
            self._publications_lost += 1
            if to_client:
                self._deliveries_lost += 1

    def on_broker_crash(self, broker_id: Optional[str] = None) -> None:
        """A broker crashed now; start its open downtime interval.

        ``self._sim.now`` may legitimately be 0.0 (a crash at t=0), so
        the open interval is tracked by key presence in
        ``_down_since`` — never by truthiness of the timestamp.
        """
        self._broker_crashes += 1
        if broker_id is not None and broker_id not in self._down_since:
            self._down_since[broker_id] = self._sim.now

    def on_broker_recovery(self, broker_id: Optional[str] = None) -> None:
        self._broker_recoveries += 1
        if broker_id is not None and broker_id in self._down_since:
            since = self._down_since.pop(broker_id)
            interval = self._sim.now - max(since, self._window_start)
            if interval > 0.0:
                self._downtime_s[broker_id] = (
                    self._downtime_s.get(broker_id, 0.0) + interval
                )

    def on_gather_retry(self) -> None:
        """A CROC gather attempt timed out and is being retried."""
        self._gather_retries += 1

    def on_degraded_plan(self) -> None:
        """CROC planned from a partial gather (silent/cached brokers)."""
        self._degraded_plans += 1

    def on_rollback(self) -> None:
        """A reconfiguration was aborted or rolled back mid-apply."""
        self._rollbacks += 1

    def on_migration(self, subscriptions: int, gap_seconds: float) -> None:
        """An online step migrated ``subscriptions`` between brokers.

        ``gap_seconds`` is the summed virtual time the affected
        subscribers spent detached (their delivery gap).  Cumulative,
        like the other control-plane lifecycle counters — migrations
        happen between measurement windows.
        """
        self._subscriptions_migrated += subscriptions
        self._migration_gap_s += gap_seconds

    # ------------------------------------------------------------------
    # Read-only views (observability; see :mod:`repro.obs.collect`)
    # ------------------------------------------------------------------
    def messages_total(self, broker_id: str) -> int:
        """In+out messages for ``broker_id`` this window (0 if unseen).

        Unlike :meth:`counters` this never creates an entry, so timeline
        sampling cannot perturb the per-broker table the summary is
        built from.
        """
        counters = self._counters.get(broker_id)
        return counters.messages_total if counters is not None else 0

    def bytes_out_total(self, broker_id: str) -> float:
        """Output kB for ``broker_id`` this window (0.0 if unseen).

        Same never-creates-an-entry contract as :meth:`messages_total`,
        so the online scheduler's load sampling cannot perturb the
        per-broker table the summary is built from.
        """
        counters = self._counters.get(broker_id)
        return counters.bytes_out_kb if counters is not None else 0.0

    @property
    def delivery_count(self) -> int:
        self.before_read()
        return self._delivery_count

    @property
    def messages_lost(self) -> int:
        return self._messages_lost

    @property
    def publications_lost(self) -> int:
        return self._publications_lost

    @property
    def deliveries_lost(self) -> int:
        """Publications dropped on the last hop, broker to subscriber."""
        return self._deliveries_lost

    @property
    def broker_crashes(self) -> int:
        return self._broker_crashes

    @property
    def broker_recoveries(self) -> int:
        return self._broker_recoveries

    @property
    def gather_retries(self) -> int:
        return self._gather_retries

    @property
    def degraded_plans(self) -> int:
        return self._degraded_plans

    @property
    def rollbacks(self) -> int:
        return self._rollbacks

    @property
    def subscriptions_migrated(self) -> int:
        return self._subscriptions_migrated

    @property
    def migration_gap_s(self) -> float:
        return self._migration_gap_s

    @property
    def broker_downtime_s(self) -> float:
        """Summed per-window crash downtime (completed + open intervals)."""
        total = sum(self._downtime_s.values())
        for since in self._down_since.values():
            open_interval = self._sim.now - max(since, self._window_start)
            if open_interval > 0.0:
                total += open_interval
        return total

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def reset_window(self) -> None:
        """Start a fresh measurement window at the current time."""
        self.before_read()  # arrived deliveries belong to the closing window
        self._counters.clear()
        self._window_start = self._sim.now
        self._delay_sum = 0.0
        self._delay_max = 0.0
        self._hop_sum = 0
        self._delivery_count = 0
        self._messages_lost = 0
        self._publications_lost = 0
        self._deliveries_lost = 0
        # Downtime is per-window: drop completed intervals and re-pin
        # still-down brokers to the new window start, so their open
        # interval is charged within this window only.  (Clearing
        # _down_since here instead would be the t=0-crash bug: a broker
        # that crashed before the first reset would report zero
        # downtime forever.)
        self._downtime_s.clear()
        for broker_id in sorted(self._down_since):
            self._down_since[broker_id] = self._window_start

    @property
    def window_start(self) -> float:
        return self._window_start

    def summary(
        self,
        pool_size: int,
        active_brokers: List[str],
        bandwidth_by_broker: Optional[Dict[str, float]] = None,
    ) -> MetricsSummary:
        """Summarize the current window."""
        self.before_read()
        duration = max(self._sim.now - self._window_start, 1e-9)
        total_messages = sum(
            counters.messages_total for counters in self._counters.values()
        )
        per_broker_rates = {
            broker_id: counters.messages_total / duration
            for broker_id, counters in self._counters.items()
        }
        active = [broker for broker in active_brokers if broker in self._counters]
        active_rate = (
            sum(per_broker_rates[broker] for broker in active) / len(active)
            if active
            else 0.0
        )
        utilizations: List[float] = []
        per_broker_utilization: Dict[str, float] = {}
        if bandwidth_by_broker:
            for broker_id in active_brokers:
                capacity = bandwidth_by_broker.get(broker_id, 0.0)
                if capacity <= 0:
                    continue
                counters = self._counters.get(broker_id)
                used = counters.bytes_out_kb / duration if counters else 0.0
                utilization = min(1.0, used / capacity)
                utilizations.append(utilization)
                per_broker_utilization[broker_id] = utilization
        per_broker_bytes = {
            broker_id: counters.bytes_out_kb
            for broker_id, counters in self._counters.items()
        }
        # Per-window downtime: completed intervals plus the open one of
        # each still-down broker, clamped to this window.
        per_broker_downtime = dict(self._downtime_s)
        for broker_id, since in self._down_since.items():
            open_interval = self._sim.now - max(since, self._window_start)
            if open_interval > 0.0:
                per_broker_downtime[broker_id] = (
                    per_broker_downtime.get(broker_id, 0.0) + open_interval
                )
        return MetricsSummary(
            duration=duration,
            pool_size=pool_size,
            active_brokers=len(active_brokers),
            total_broker_messages=total_messages,
            delivery_count=self._delivery_count,
            mean_delivery_delay=(
                self._delay_sum / self._delivery_count if self._delivery_count else 0.0
            ),
            mean_hop_count=(
                self._hop_sum / self._delivery_count if self._delivery_count else 0.0
            ),
            max_delivery_delay=self._delay_max,
            avg_broker_message_rate=(
                total_messages / duration / pool_size if pool_size else 0.0
            ),
            avg_active_broker_message_rate=active_rate,
            mean_utilization=(
                sum(utilizations) / len(utilizations) if utilizations else 0.0
            ),
            max_utilization=max(utilizations, default=0.0),
            per_broker_rates=per_broker_rates,
            messages_lost=self._messages_lost,
            publications_lost=self._publications_lost,
            broker_crashes=self._broker_crashes,
            broker_recoveries=self._broker_recoveries,
            gather_retries=self._gather_retries,
            degraded_plans=self._degraded_plans,
            rollbacks=self._rollbacks,
            subscriptions_migrated=self._subscriptions_migrated,
            migration_gap_s=self._migration_gap_s,
            active_broker_ids=tuple(active_brokers),
            per_broker_bytes_out_kb=per_broker_bytes,
            per_broker_utilization=per_broker_utilization,
            per_broker_downtime_s=per_broker_downtime,
        )
