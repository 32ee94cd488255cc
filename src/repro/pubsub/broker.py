"""The content-based broker: routing, matching delay, bandwidth limiter.

Routing follows the filter-based scheme of PADRES/SIENA:

* **Advertisements** flood the overlay; each broker remembers the
  neighbor an advertisement arrived from (its *last hop*).
* **Subscriptions** are routed hop-by-hop along the reverse paths of
  every overlapping advertisement, leaving `(subscription, source)`
  entries in the Subscription Routing Table (SRT) as they travel.
  Arrival order is immaterial: a broker re-forwards known
  subscriptions when a new overlapping advertisement shows up.
* **Publications** are matched at every broker against the SRT and
  forwarded to each distinct matching destination (neighbor broker or
  local client), never back toward the sender.

Two resource models shape the virtual-time behaviour, mirroring the
quantities CROC reasons about:

* a single-server queue whose service time is the broker's *matching
  delay function* (linear in the SRT size), and
* an output-bandwidth limiter: outgoing messages serialize at
  ``size / total_output_bandwidth`` seconds each — the knob the paper
  throttles to create its heterogeneous scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.capacity import BrokerSpec
from repro.pubsub.cbc import CrocBackendComponent
from repro.pubsub.delay_estimation import DelayModelEstimator
from repro.pubsub.matching import (
    BROKER,
    CLIENT,
    Destination,
    MatchingIndex,
    overlaps,
    subscription_covers,
)
from repro.pubsub.message import (
    Advertisement,
    BrokerInformationAnswer,
    BrokerInformationRequest,
    BrokerReport,
    CONTROL_MESSAGE_KB,
    Publication,
    Subscription,
    Unsubscription,
)

# CLIENT / BROKER / Destination live in repro.pubsub.matching (the SRT
# partitions destinations by kind) and are re-exported here, where the
# rest of the codebase has always imported them from.
__all__ = ["BROKER", "CLIENT", "Broker", "Destination"]


@dataclass
class _PendingBir:
    """Aggregation state for one in-flight BIR (paper §III-A).

    ``timer`` is the aggregation deadline event: if a downstream
    subtree never answers (crashed broker, cut link), the broker
    answers with whatever reports it has rather than stalling CROC's
    gather forever.
    """

    requester: Destination
    pending: Set[str]
    reports: Dict[str, BrokerReport]
    timer: Optional[Any] = None


class Broker:
    """One broker process in the simulated overlay."""

    def __init__(self, spec: BrokerSpec, network, profile_capacity: int,
                 covering_enabled: bool = False):
        self.spec = spec
        self.broker_id = spec.broker_id
        self._network = network
        self._sim = network.sim
        self._metrics = network.metrics
        self.cbc = CrocBackendComponent(spec.broker_id, profile_capacity)
        self.covering_enabled = covering_enabled
        self.neighbors: Set[str] = set()
        self.local_clients: Set[str] = set()
        self._advertisements: Dict[str, Tuple[Advertisement, Destination]] = {}
        self._srt = MatchingIndex()
        self._known_subscriptions: Dict[str, Tuple[Subscription, Destination]] = {}
        self._forwarded_subs: Set[Tuple[str, str]] = set()  # (sub_id, neighbor)
        #: neighbor -> {suppressed sub_id -> covering sub_id} (covering only)
        self._suppressed: Dict[str, Dict[str, str]] = {}
        self.delay_estimator = DelayModelEstimator()
        self._cpu_free_at = 0.0
        #: Service time of the last queued message and the SRT size it
        #: was computed for (see :meth:`_matched_at`).
        self._service_size = -1
        self._service = 0.0
        self._out_free_at = 0.0
        self._ctl_free_at = 0.0
        self._pending_bir: Dict[int, _PendingBir] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def add_neighbor(self, broker_id: str) -> None:
        self.neighbors.add(broker_id)

    def remove_neighbor(self, broker_id: str) -> None:
        self.neighbors.discard(broker_id)

    def attach_client(self, client_id: str) -> None:
        self.local_clients.add(client_id)

    def detach_client(self, client_id: str) -> None:
        self.local_clients.discard(client_id)

    def reset(self) -> None:
        """Return to a clean state, as the paper re-instantiates brokers."""
        self.neighbors.clear()
        self.local_clients.clear()
        self._advertisements.clear()
        # Carry the probe-cache tallies across the rebuild: they are
        # observability counters for the broker's whole lifetime, not
        # matching state.
        fresh = MatchingIndex()
        fresh.probe_cache_hits = self._srt.probe_cache_hits
        fresh.probe_cache_misses = self._srt.probe_cache_misses
        self._srt = fresh
        self._known_subscriptions.clear()
        self._forwarded_subs.clear()
        self._suppressed.clear()
        self._pending_bir.clear()
        self._cpu_free_at = 0.0
        self._out_free_at = 0.0
        self._ctl_free_at = 0.0
        self.delay_estimator.reset()
        self.cbc.reset()

    @property
    def srt_size(self) -> int:
        return self._srt.size

    @property
    def probe_cache_hits(self) -> int:
        """Matching probe-cache hits (read by :mod:`repro.obs`)."""
        return self._srt.probe_cache_hits

    @property
    def probe_cache_misses(self) -> int:
        """Matching probe-cache misses (read by :mod:`repro.obs`)."""
        return self._srt.probe_cache_misses

    # ------------------------------------------------------------------
    # Receive path: queue behind the matching CPU
    # ------------------------------------------------------------------
    def receive(self, message: Any, source: Destination) -> None:
        """Accept a message from a neighbor or local client."""
        if isinstance(message, Publication):
            self.receive_publication(message, source)
            return
        self._metrics.on_receive(self.broker_id, False)
        self._sim.call_at(self._matched_at(), self._process, message, source)

    def receive_publication(self, publication: Publication,
                            source: Destination) -> None:
        """Accept a publication; its handler runs once the CPU is done.

        Broker-to-broker forwards arrive here directly
        (:meth:`PubSubNetwork.forward`), with no type dispatch.
        """
        tracer = self._network.tracer
        if tracer is not None:
            tracer.record(self._sim.now, "receive", self.broker_id,
                          publication.adv_id, publication.message_id,
                          detail=f"from {source[1]}")
        self._metrics.on_receive(self.broker_id, True)
        self._sim.call_at(self._matched_at(), self._handle_publication,
                          publication, source)

    def _matched_at(self) -> float:
        """Queue one message behind the matching CPU; when it is done.

        The service time is the delay function at the current SRT size.
        It is recomputed only when the size differs from the last
        message's: the cache is keyed on the size alone, so SRT writes
        and :meth:`reset` (a fresh, empty table) invalidate it by
        construction.
        """
        table_size = self._srt.size
        if table_size != self._service_size:
            self._service_size = table_size
            self._service = self.spec.delay_function.delay(table_size)
        service = self._service
        self.delay_estimator.record(table_size, service)
        now = self._sim.now
        free_at = self._cpu_free_at
        done = (free_at if free_at > now else now) + service
        self._cpu_free_at = done
        return done

    def _process(self, message: Any, source: Destination) -> None:
        """Handle a control message once the CPU is done with it."""
        if self._network.broker_is_down(self.broker_id):
            # The process died while this message sat in the CPU queue.
            self._metrics.on_fault_drop(False)
            return
        if isinstance(message, Subscription):
            self._handle_subscription(message, source)
        elif isinstance(message, Advertisement):
            self._handle_advertisement(message, source)
        elif isinstance(message, Unsubscription):
            self._handle_unsubscription(message)
        elif isinstance(message, BrokerInformationRequest):
            self._handle_bir(message, source)
        elif isinstance(message, BrokerInformationAnswer):
            self._handle_bia(message, source)
        else:  # pragma: no cover - defensive
            raise TypeError(f"broker cannot process {type(message).__name__}")

    # ------------------------------------------------------------------
    # Transmit path: queue behind the output link
    # ------------------------------------------------------------------
    def _transmit(self, destination: Destination, message: Any, size_kb: float) -> None:
        """Serialize a control message and hand it off to the network.

        Control messages (subscriptions, advertisements, BIR/BIA,
        unsubscriptions) use a prioritized side lane with its own
        budget, so a saturated data plane cannot starve the
        reconfiguration protocol — the standard control/data separation
        of production brokers.  Publications share the one FIFO output
        queue (the bandwidth limiter) of :meth:`_handle_publication`.
        """
        bandwidth = self.spec.total_output_bandwidth
        serialization = size_kb / bandwidth if bandwidth > 0 else 0.0
        start = max(self._sim.now, self._ctl_free_at)
        sent = start + serialization
        self._ctl_free_at = sent
        self._metrics.on_send(self.broker_id, size_kb)
        self._network.deliver(self.broker_id, destination, message, sent)

    # ------------------------------------------------------------------
    # Publications
    # ------------------------------------------------------------------
    def _handle_publication(self, publication: Publication, source: Destination) -> None:
        """Match, then put one copy per destination on the output lane.

        Client copies go first, in match order, then broker forwards in
        broker-id order; each copy serializes behind the last.  The
        bookkeeping is done once for the whole publication: one CBC
        call, one metrics call, one hop copy shared by every forward.
        """
        network = self._network
        faults = network.faults
        if faults is not None and faults.broker_down(self.broker_id):
            # The process died while this publication sat in the CPU queue.
            self._metrics.on_fault_drop(True)
            return
        now = self._sim.now
        if source[0] == CLIENT:
            self.cbc.on_local_publication(publication, now)
        clients, forwarded_brokers = self._srt.matching_routes(publication, source)
        if not clients and not forwarded_brokers:
            return
        size_kb = publication.size_kb
        bandwidth = self.spec.total_output_bandwidth
        serialization = size_kb / bandwidth if bandwidth > 0 else 0.0
        free_at = self._out_free_at
        delivered: List[str] = []
        if clients:
            # Client fan-out: a delivery schedules nothing, so it is
            # logged with its final arrival time instead of becoming an
            # event.  Loss and jitter are drawn here, at send time, by
            # the same FaultInjector.transit call a hop makes.
            local = self.local_clients
            latency = network.link_latency
            log = network.delivery_log
            for subscription, destination in clients:
                client_id = destination[1]
                if client_id not in local:
                    continue
                delivered.append(subscription.sub_id)
                start = free_at if free_at > now else now
                free_at = start + serialization
                arrival = free_at + latency
                if faults is not None:
                    extra = faults.transit()
                    if extra is None:
                        self._metrics.on_fault_drop(True, to_client=True)
                        continue
                    arrival += extra
                log.append((arrival, client_id, publication))
            if delivered:
                self.cbc.record_deliveries(publication, delivered)
            if len(log) >= network.settle_at:
                network.settle_deliveries()
        if forwarded_brokers:
            tracer = network.tracer
            forward = network.forward
            hopped = publication.hopped()
            targets = (forwarded_brokers if len(forwarded_brokers) == 1
                       else sorted(forwarded_brokers))
            for broker_id in targets:
                if tracer is not None:
                    tracer.record(now, "forward", self.broker_id,
                                  publication.adv_id, publication.message_id,
                                  detail=f"-> {broker_id}")
                start = free_at if free_at > now else now
                free_at = start + serialization
                forward(self.broker_id, broker_id, hopped, free_at)
        self._out_free_at = free_at
        copies = len(delivered) + len(forwarded_brokers)
        if copies:
            # This may create the broker's counters entry for the window.
            # Nothing above creates one for another broker, so the table
            # order (which per_broker_rates and energy follow) is the
            # order of first sends.
            self._metrics.on_publication_sent(self.broker_id, size_kb, copies,
                                              len(delivered))

    # ------------------------------------------------------------------
    # Advertisements
    # ------------------------------------------------------------------
    def _handle_advertisement(self, advertisement: Advertisement, source: Destination) -> None:
        if advertisement.adv_id in self._advertisements:
            return  # flood dedupe
        self._advertisements[advertisement.adv_id] = (advertisement, source)
        for neighbor in sorted(self.neighbors):
            if source != (BROKER, neighbor):
                self._transmit((BROKER, neighbor), advertisement, CONTROL_MESSAGE_KB)
        # Late advertisement: pull already-known overlapping subscriptions
        # toward it so arrival order does not matter.
        if source[0] == BROKER:
            last_hop = source[1]
            for sub_id, (subscription, sub_source) in self._known_subscriptions.items():
                if sub_source == (BROKER, last_hop):
                    continue
                if overlaps(subscription, advertisement):
                    self._forward_subscription(subscription, last_hop)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def _handle_subscription(self, subscription: Subscription, source: Destination) -> None:
        key = subscription.sub_id
        if key in self._known_subscriptions:
            return
        self._known_subscriptions[key] = (subscription, source)
        self._srt.add(subscription, source)
        if source[0] == CLIENT:
            self.cbc.register_subscription(subscription)
        for adv, adv_source in self._advertisements.values():
            if adv_source[0] != BROKER:
                continue  # advertiser is local: publications start here
            last_hop = adv_source[1]
            if source == (BROKER, last_hop):
                continue
            if overlaps(subscription, adv):
                self._forward_subscription(subscription, last_hop)

    def _forward_subscription(self, subscription: Subscription, neighbor: str) -> None:
        """Send a subscription one hop toward an advertisement, once.

        With covering enabled (SIENA/PADRES-style), the subscription is
        *suppressed* if a previously forwarded subscription already
        covers it on that link: the upstream broker will route every
        matching publication this way regardless, so the narrower
        filter adds no information.  Suppressions are remembered so a
        retraction of the coverer re-issues them (see
        :meth:`_handle_unsubscription`).
        """
        key = subscription.sub_id
        if (key, neighbor) in self._forwarded_subs:
            return
        if self.covering_enabled:
            suppressed_here = self._suppressed.setdefault(neighbor, {})
            if key in suppressed_here:
                return
            for forwarded_id, forwarded_neighbor in self._forwarded_subs:
                if forwarded_neighbor != neighbor:
                    continue
                coverer, _src = self._known_subscriptions.get(
                    forwarded_id, (None, None)
                )
                if coverer is not None and subscription_covers(coverer, subscription):
                    suppressed_here[key] = forwarded_id
                    return
        self._forwarded_subs.add((key, neighbor))
        self._transmit((BROKER, neighbor), subscription, CONTROL_MESSAGE_KB)

    def _handle_unsubscription(self, unsubscription: Unsubscription) -> None:
        """Retract a subscription and propagate along its routed paths.

        The unsubscription follows exactly the neighbors the original
        subscription was forwarded to, so routing state is cleaned up
        along the whole path and nowhere else.
        """
        sub_id = unsubscription.sub_id
        if sub_id not in self._known_subscriptions:
            return
        self._srt.remove_subscription(sub_id)
        self._known_subscriptions.pop(sub_id, None)
        self.cbc.unregister_subscription(sub_id)
        forwarded_to = [
            neighbor
            for (known_id, neighbor) in self._forwarded_subs
            if known_id == sub_id
        ]
        self._forwarded_subs = {
            (known_id, neighbor)
            for (known_id, neighbor) in self._forwarded_subs
            if known_id != sub_id
        }
        for suppressed_here in self._suppressed.values():
            suppressed_here.pop(sub_id, None)
        for neighbor in sorted(forwarded_to):
            self._transmit((BROKER, neighbor), unsubscription, CONTROL_MESSAGE_KB)
        if self.covering_enabled:
            self._release_suppressed(sub_id, forwarded_to)

    def _release_suppressed(self, retracted_id: str, neighbors) -> None:
        """Re-issue subscriptions whose coverer was just retracted."""
        for neighbor in neighbors:
            suppressed_here = self._suppressed.get(neighbor, {})
            orphans = [
                sub_id
                for sub_id, coverer_id in suppressed_here.items()
                if coverer_id == retracted_id
            ]
            for sub_id in orphans:
                del suppressed_here[sub_id]
                entry = self._known_subscriptions.get(sub_id)
                if entry is None:
                    continue
                self._forward_subscription(entry[0], neighbor)

    # ------------------------------------------------------------------
    # CROC information gathering (BIR flood / BIA aggregation)
    # ------------------------------------------------------------------
    def _handle_bir(self, request: BrokerInformationRequest, source: Destination) -> None:
        downstream = {
            neighbor for neighbor in self.neighbors if (BROKER, neighbor) != source
        }
        state = _PendingBir(requester=source, pending=set(downstream), reports={})
        self._pending_bir[request.request_id] = state
        if not downstream:
            self._answer_bir(request.request_id)
            return
        # A crashed downstream subtree would otherwise stall this
        # aggregation forever; answer with a partial set at the deadline.
        state.timer = self._sim.schedule(
            self._network.bir_timeout, partial(self._bir_deadline, request.request_id)
        )
        for neighbor in sorted(downstream):
            self._transmit((BROKER, neighbor), request, CONTROL_MESSAGE_KB)

    def _handle_bia(self, answer: BrokerInformationAnswer, source: Destination) -> None:
        state = self._pending_bir.get(answer.request_id)
        if state is None:
            return
        if source[0] == BROKER:
            state.pending.discard(source[1])
        state.reports.update(answer.reports)
        if not state.pending:
            self._answer_bir(answer.request_id)

    def _bir_deadline(self, request_id: int) -> None:
        """Aggregation timeout: answer with whatever reports arrived."""
        if request_id in self._pending_bir:
            self._answer_bir(request_id)

    def _answer_bir(self, request_id: int) -> None:
        state = self._pending_bir.pop(request_id)
        if state.timer is not None:
            state.timer.cancel()
        reports = dict(state.reports)
        reports[self.broker_id] = self.cbc.report(
            self.spec, self._sim.now,
            measured_delay=self.delay_estimator.fit(),
        )
        answer = BrokerInformationAnswer(request_id=request_id, reports=reports)
        self._transmit(state.requester, answer, CONTROL_MESSAGE_KB)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Broker({self.broker_id!r}, neighbors={len(self.neighbors)}, "
            f"srt={len(self._srt)})"
        )
