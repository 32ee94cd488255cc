"""Execution of fault plans on a live simulated network.

The :class:`FaultInjector` owns the runtime fault state of one
:class:`~repro.pubsub.network.PubSubNetwork`: which brokers are
currently down, which links are cut, and the seeded per-transmission
loss/jitter stream.  The network consults it on every message hop; the
injector never touches messages itself, so with an empty
:class:`~repro.sim.faults.FaultPlan` the data path is bit-identical to
an uninstrumented network.

Fault semantics
---------------
* **Crash** — the broker process dies: its routing state (SRT, known
  subscriptions, pending BIR aggregations, CBC profiles) is wiped, and
  every message addressed to it, queued inside it, or injected by its
  local clients is dropped and counted.  Physical wiring and client
  attachments survive — they belong to the data center, not the
  process.
* **Recover** — the broker returns as a *blank* process: reachable
  again, but with no routing state until the next reconfiguration
  replays control traffic through it.
* **Link down/up** — all broker-to-broker traffic over the link is
  dropped while it is cut.
* **Loss / jitter** — every transmission independently risks a seeded
  drop and receives a seeded extra latency, modelling a congested or
  lossy fabric.

All drops are reported to the network's
:class:`~repro.pubsub.metrics.MetricsCollector`, where they feed the
availability counters (``publications_lost``, ``delivery_rate``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, Optional, Set

from repro.sim.faults import CRASH, LINK_DOWN, LINK_UP, RECOVER, FaultEvent, FaultPlan
from repro.sim.rng import SeededRng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pubsub.network import PubSubNetwork


class FaultInjector:
    """Schedules a :class:`FaultPlan` on a network's virtual clock."""

    def __init__(self, network: "PubSubNetwork", plan: FaultPlan, seed: int = 0):
        self._network = network
        self.plan = plan
        self._transit_rng = SeededRng(seed, "faults", "transit")
        self._transit_draw = self._transit_rng.stream.random
        self.down_brokers: Set[str] = set()
        self.down_links: Set[FrozenSet[str]] = set()
        self.schedule: List[FaultEvent] = []
        self.crashes = 0
        self.recoveries = 0
        self.drops = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Materialize the plan and schedule every event.

        Called once by :meth:`PubSubNetwork.install_faults`.  Unknown
        broker targets are rejected immediately — a typo in a fault
        plan should fail loudly, not silently inject nothing.
        """
        self.schedule = self.plan.schedule_for(sorted(self._network.brokers))
        sim = self._network.sim
        for event in self.schedule:
            unknown = [b for b in event.target if b not in self._network.brokers]
            if unknown:
                raise ValueError(
                    f"fault plan targets unknown broker(s) {unknown} "
                    f"(event {event.kind} at t={event.time})"
                )
            sim.call_at(event.time, self._apply, event)

    def _apply(self, event: FaultEvent) -> None:
        if event.kind == CRASH:
            self.crash_now(event.target[0])
        elif event.kind == RECOVER:
            self.recover_now(event.target[0])
        elif event.kind == LINK_DOWN:
            self.down_links.add(frozenset(event.target))
        elif event.kind == LINK_UP:
            self.down_links.discard(frozenset(event.target))

    # ------------------------------------------------------------------
    # Direct injection (used by the scheduler and by interactive drivers)
    # ------------------------------------------------------------------
    def crash_now(self, broker_id: str) -> None:
        """Kill a broker process immediately.  Idempotent while down."""
        if broker_id in self.down_brokers:
            return
        broker = self._network.brokers[broker_id]
        # The process dies with all its state; the physical wiring and
        # the clients pointing at this node survive the crash.
        neighbors = set(broker.neighbors)
        clients = set(broker.local_clients)
        broker.reset()
        broker.neighbors.update(neighbors)
        broker.local_clients.update(clients)
        self.down_brokers.add(broker_id)
        self.crashes += 1
        self._network.metrics.on_broker_crash(broker_id)

    def recover_now(self, broker_id: str) -> None:
        """Bring a crashed broker back as a blank process."""
        if broker_id not in self.down_brokers:
            return
        self.down_brokers.discard(broker_id)
        self.recoveries += 1
        self._network.metrics.on_broker_recovery(broker_id)

    # ------------------------------------------------------------------
    # Per-hop queries (called by the network on every transmission)
    # ------------------------------------------------------------------
    def broker_down(self, broker_id: str) -> bool:
        return broker_id in self.down_brokers

    def link_down(self, first: str, second: str) -> bool:
        return bool(self.down_links) and frozenset((first, second)) in self.down_links

    def transit(self) -> Optional[float]:
        """One transmission's seeded fate: ``None`` if it is lost, else
        the extra latency it picks up.

        The loss draw comes first and a lost transmission draws no
        jitter; a knob that is off never touches the RNG.
        """
        plan = self.plan
        if plan.loss_rate > 0.0 and self._transit_draw() < plan.loss_rate:
            self.drops += 1
            return None
        if plan.jitter <= 0.0:
            return 0.0
        # ``uniform(0.0, jitter)`` is ``0.0 + (jitter - 0.0) * random()``:
        # the same draw and, bit for bit, the same float.
        return plan.jitter * self._transit_draw()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(down={sorted(self.down_brokers)}, "
            f"links_down={len(self.down_links)}, crashes={self.crashes})"
        )
