"""The simulated overlay network tying brokers, clients, and links together.

Owns the simulator, the metrics collector, the broker pool, and the
client population, and implements deployment execution: the paper
re-instantiates every broker and re-connects the original clients to
the new instances; :meth:`PubSubNetwork.apply_deployment` does the
equivalent by resetting brokers to a clean state, rewiring the links of
the new tree, and re-attaching every client at its assigned broker.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.bitvector import DEFAULT_CAPACITY
from repro.core.capacity import BrokerSpec
from repro.core.deployment import Deployment
from repro.pubsub.broker import BROKER, Broker, CLIENT, Destination
from repro.pubsub.client import PublisherClient, SubscriberClient
from repro.pubsub.faults import FaultInjector
from repro.pubsub.message import Publication
from repro.pubsub.metrics import MetricsCollector
from repro.sim.engine import Simulator
from repro.sim.faults import FaultPlan

#: One-way link latency inside the data center (seconds).
DEFAULT_LINK_LATENCY = 0.0005

#: Virtual seconds a broker waits for its downstream BIA aggregation
#: before answering a BIR with whatever reports arrived.  This is the
#: per-broker timeout that keeps CROC's gather phase live when a
#: subtree contains a crashed broker.
DEFAULT_BIR_TIMEOUT = 2.0


#: The delivery log is settled from the fan-out loop once it has doubled
#: since the last settle, and never below this many entries — what keeps
#: a long window from holding every publication it delivered alive.
SETTLE_FLOOR = 512

#: One logged client delivery: ``(arrival, client_id, publication)``.
LoggedDelivery = Tuple[float, str, Publication]

_arrival = itemgetter(0)


class PubSubNetwork:
    """A complete simulated publish/subscribe deployment."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        link_latency: float = DEFAULT_LINK_LATENCY,
        profile_capacity: int = DEFAULT_CAPACITY,
        enable_covering: bool = False,
        bir_timeout: float = DEFAULT_BIR_TIMEOUT,
    ):
        self.sim = sim if sim is not None else Simulator()
        self.metrics = MetricsCollector(self.sim)
        self.link_latency = link_latency
        self.profile_capacity = profile_capacity
        self.enable_covering = enable_covering
        self.bir_timeout = bir_timeout
        self.faults: Optional[FaultInjector] = None
        #: Optional :class:`repro.obs.timeline.TimelineSampler`; when
        #: set, :meth:`run` drives the engine through it so run
        #: timelines get sampled (chunked ``sim.run`` calls — the event
        #: order is exactly the unsampled one).
        self.obs_sampler = None
        #: The most recently applied deployment — CROC's rollback target.
        self.last_deployment: Optional[Deployment] = None
        self.brokers: Dict[str, Broker] = {}
        self.publishers: Dict[str, PublisherClient] = {}
        self.subscribers: Dict[str, SubscriberClient] = {}
        #: Fan-out fast path: per-broker bound ``receive`` and
        #: ``receive_publication`` methods and interned source tuples,
        #: reused across the millions of repeat (publisher, broker) hops
        #: instead of re-allocated per message.
        self._receive_of: Dict[str, Any] = {}
        self._receive_publication_of: Dict[str, Any] = {}
        self._broker_sources: Dict[str, Destination] = {}
        self._client_sources: Dict[str, Destination] = {}
        self._subscriber_of_sub: Dict[str, str] = {}
        self._links: set = set()
        self._active_brokers: Optional[List[str]] = None
        self._control_clients: Dict[str, Any] = {}
        #: Optional repro.pubsub.tracing.MessageTracer; brokers and the
        #: network record publication trace events while it is set.
        self.tracer = None
        #: Client deliveries of publications not yet completed.  Handing
        #: a publication to a subscriber schedules nothing, so brokers
        #: append it here with its final arrival time (loss and jitter
        #: are drawn at send time) instead of scheduling an event;
        #: :meth:`settle_deliveries` completes what has arrived.
        self.delivery_log: List[LoggedDelivery] = []
        #: Log length at which the brokers' fan-out loop settles it.
        self.settle_at = SETTLE_FLOOR
        # Every reader of the delivery sums settles first.
        self.metrics.before_read = self.settle_deliveries

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_broker(self, spec: BrokerSpec) -> Broker:
        if spec.broker_id in self.brokers:
            raise ValueError(f"broker {spec.broker_id!r} already exists")
        broker = Broker(spec, self, self.profile_capacity,
                        covering_enabled=self.enable_covering)
        self.brokers[spec.broker_id] = broker
        self._receive_of[spec.broker_id] = broker.receive
        self._receive_publication_of[spec.broker_id] = broker.receive_publication
        self._broker_sources[spec.broker_id] = (BROKER, spec.broker_id)
        return broker

    def connect_brokers(self, first: str, second: str) -> None:
        if first == second:
            raise ValueError("cannot link a broker to itself")
        self.brokers[first].add_neighbor(second)
        self.brokers[second].add_neighbor(first)
        self._links.add(frozenset((first, second)))

    def disconnect_all(self) -> None:
        for broker in self.brokers.values():
            broker.neighbors.clear()
        self._links.clear()

    @property
    def links(self) -> List[Tuple[str, str]]:
        return [tuple(sorted(link)) for link in sorted(self._links, key=sorted)]

    @property
    def active_brokers(self) -> List[str]:
        """Brokers in the current deployment (all, before any deployment)."""
        if self._active_brokers is None:
            return list(self.brokers)
        return list(self._active_brokers)

    def broker_pool(self) -> List[BrokerSpec]:
        return [broker.spec for broker in self.brokers.values()]

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_faults(self, plan: FaultPlan, seed: int = 0) -> FaultInjector:
        """Attach a :class:`FaultInjector` executing ``plan`` to this network.

        Installing an *empty* plan is a strict no-op for the data path
        (pinned by ``tests/test_fault_equivalence.py``).  A network
        accepts at most one injector for its lifetime.
        """
        if self.faults is not None:
            raise ValueError("fault injector already installed on this network")
        injector = FaultInjector(self, plan, seed=seed)
        injector.install()
        self.faults = injector
        return injector

    def broker_is_down(self, broker_id: str) -> bool:
        """True while the fault layer holds ``broker_id`` crashed."""
        return self.faults is not None and self.faults.broker_down(broker_id)

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def register_publisher(self, publisher: PublisherClient) -> None:
        """Make the client known without attaching it to a broker yet."""
        self.publishers[publisher.client_id] = publisher

    def register_subscriber(self, subscriber: SubscriberClient) -> None:
        self.subscribers[subscriber.client_id] = subscriber
        for subscription in subscriber.subscriptions:
            self._subscriber_of_sub[subscription.sub_id] = subscriber.client_id

    def attach_publisher(self, publisher: PublisherClient, broker_id: str) -> None:
        if publisher.client_id in self.publishers and publisher.broker_id is not None:
            raise ValueError(f"publisher {publisher.client_id!r} already attached")
        self.register_publisher(publisher)
        self.brokers[broker_id].attach_client(publisher.client_id)
        publisher.attached(self, broker_id)

    def attach_subscriber(self, subscriber: SubscriberClient, broker_id: str) -> None:
        if subscriber.client_id in self.subscribers and subscriber.broker_id is not None:
            raise ValueError(f"subscriber {subscriber.client_id!r} already attached")
        self.register_subscriber(subscriber)
        self.brokers[broker_id].attach_client(subscriber.client_id)
        subscriber.attached(self, broker_id)

    def subscriber_for(self, sub_id: str) -> Optional[str]:
        """Client id owning ``sub_id`` (``None`` for unknown ids).

        Public read-only view of the subscription→subscriber map, used
        by deployment execution internally and by the online scheduler
        to turn planned subscription moves into client migrations.
        """
        return self._subscriber_of_sub.get(sub_id)

    def detach_all_clients(self) -> None:
        for publisher in self.publishers.values():
            if publisher.broker_id is not None:
                self.brokers[publisher.broker_id].detach_client(publisher.client_id)
                publisher.detached()
        for subscriber in self.subscribers.values():
            if subscriber.broker_id is not None:
                self.brokers[subscriber.broker_id].detach_client(subscriber.client_id)
                subscriber.detached()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def client_send(self, client_id: str, broker_id: str, message: Any,
                    size_kb: float) -> None:
        """A client injects a message at its broker (one link latency)."""
        if self.tracer is not None and isinstance(message, Publication):
            self.tracer.record(self.sim.now, "publish", client_id,
                               message.adv_id, message.message_id,
                               detail=f"-> {broker_id}")
        source = self._client_sources.get(client_id)
        if source is None:
            source = self._client_sources[client_id] = (CLIENT, client_id)
        sim = self.sim
        faults = self.faults
        if faults is None:
            # Fault-free fast path: no broker can be down at arrival, so
            # the down-at-arrival indirection is skipped and the broker's
            # bound receive method is reused directly.
            sim.call_at(sim.now + self.link_latency, self._receive_of[broker_id],
                        message, source)
            return
        extra = None if faults.broker_down(broker_id) else faults.transit()
        if extra is None:
            self.metrics.on_fault_drop(isinstance(message, Publication))
            return
        # Latency and jitter are summed before ``now`` is added: the
        # grouping decides the arrival's float value, and answers follow it.
        sim.call_at(sim.now + (self.link_latency + extra), self._arrive_at_broker,
                    broker_id, message, source, self.brokers[broker_id].epoch)

    def settle_deliveries(self) -> None:
        """Complete every logged delivery that has arrived by ``sim.now``.

        The log is stable-sorted by arrival and append order is schedule
        order, so entries complete exactly as one ``(time, sequence)``
        event per delivery would have fired.  Settling at any moment is
        order-safe: whatever is appended later arrives no earlier than
        ``sim.now`` and sorts behind what is already here.
        """
        log = self.delivery_log
        if log:
            log.sort(key=_arrival)
            done = bisect_right(log, self.sim.now, key=_arrival)
            if done:
                self._complete(log[:done])
                del log[:done]
        self.settle_at = max(SETTLE_FLOOR, 2 * len(log))

    def _complete(self, deliveries: Iterable[LoggedDelivery]) -> None:
        """Hand each publication to its subscriber, stamped with its arrival.

        The delays and hop counts reach the metrics in one call, delays
        in arrival order.
        """
        subscribers = self.subscribers
        tracer = self.tracer
        delays: List[float] = []
        hops = 0
        for arrival, client_id, message in deliveries:
            subscriber = subscribers.get(client_id)
            if subscriber is None:
                continue  # not a registered subscriber
            if tracer is not None:
                tracer.record(arrival, "deliver", client_id,
                              message.adv_id, message.message_id,
                              detail=f"hops={message.hops}")
            delays.append(arrival - message.publish_time)
            hops += message.hops
            subscriber.receive(message, arrival)
        self.metrics.record_deliveries(delays, hops)

    @property
    def deliveries_in_flight(self) -> int:
        """Logged deliveries that have not arrived by ``sim.now``."""
        self.settle_deliveries()
        return len(self.delivery_log)

    def deliver(self, sender_broker: str, destination: Destination, message: Any,
                sent_at: float) -> None:
        """Complete a broker's control transmission after serialization +
        latency.

        Client destinations here are control clients only (the BIA back
        to CROC).  Publications never come this way: broker-to-broker
        copies go through :meth:`forward`, and subscribers are reached
        through the delivery log.
        """
        arrival = sent_at + self.link_latency
        kind, identifier = destination
        faults = self.faults
        if faults is not None:
            cut = kind == BROKER and faults.link_down(sender_broker, identifier)
            extra = None if cut else faults.transit()
            if extra is None:
                self.metrics.on_fault_drop(False)
                return
            arrival += extra
        if kind != BROKER:
            self.sim.call_at(arrival, self._deliver_to_control_client,
                             identifier, message)
        elif faults is not None:
            self.sim.call_at(arrival, self._arrive_at_broker, identifier, message,
                             self._broker_sources[sender_broker],
                             self.brokers[identifier].epoch)
        else:
            self.sim.call_at(arrival, self._receive_of[identifier], message,
                             self._broker_sources[sender_broker])

    def forward(self, sender_broker: str, broker_id: str,
                publication: Publication, sent_at: float) -> None:
        """Complete one publication copy, broker to broker, after
        serialization + latency.

        The per-hop entry of the data plane.  Fault-free, the copy is
        scheduled straight onto the receiver's bound
        ``receive_publication`` with the sender's interned source tuple;
        under a fault plan it takes the same link, loss and jitter
        draws as :meth:`deliver` and the down-at-arrival check.
        """
        arrival = sent_at + self.link_latency
        faults = self.faults
        if faults is None:
            self.sim.call_at(arrival, self._receive_publication_of[broker_id],
                             publication, self._broker_sources[sender_broker])
            return
        extra = None if faults.link_down(sender_broker, broker_id) else faults.transit()
        if extra is None:
            self.metrics.on_fault_drop(True)
            return
        arrival += extra
        self.sim.call_at(arrival, self._arrive_at_broker, broker_id, publication,
                         self._broker_sources[sender_broker],
                         self.brokers[broker_id].epoch)

    def _arrive_at_broker(self, broker_id: str, message: Any,
                          source: Destination, epoch: int) -> None:
        """Hand a message to a broker at its arrival time.

        The checks happen *at arrival*: a broker that is down then, or
        that crashed while the message was on the wire (its epoch moved
        on since the send, even if it has recovered), loses it.
        """
        broker = self.brokers[broker_id]
        if broker.epoch != epoch or self.broker_is_down(broker_id):
            self.metrics.on_fault_drop(isinstance(message, Publication))
            return
        broker.receive(message, source)

    def register_control_client(self, client_id: str, callback) -> None:
        """Register an out-of-band client (e.g. CROC) with a message callback."""
        self._control_clients[client_id] = callback

    def unregister_control_client(self, client_id: str) -> None:
        """Drop a control client; late replies to it are discarded."""
        self._control_clients.pop(client_id, None)

    def _deliver_to_control_client(self, client_id: str, message: Any) -> None:
        control = self._control_clients.get(client_id)
        if control is not None:  # else unregistered: the late reply is discarded
            control(message)

    # ------------------------------------------------------------------
    # Deployment execution
    # ------------------------------------------------------------------
    def apply_deployment(self, deployment: Deployment) -> None:
        """Tear down and redeploy per the given layout (paper §VI-A).

        Clients keep their identity (publishers keep their message-ID
        counters), brokers restart from a clean state, and the new
        overlay is wired from the deployment's tree.  Control traffic
        (advertisements, subscriptions) replays through the new overlay;
        run the simulator briefly afterwards to let it quiesce.

        Traffic of the old overlay is not flushed.  A message still
        queued behind a broker's CPU, or on the wire to it, is handled
        by the reset broker when its turn comes, against whatever
        routing state the replay has rebuilt by then: it is neither
        dropped nor counted lost.  A reset is not a crash, so
        ``Broker.epoch`` stays (DESIGN.md §5, item 10).
        """
        deployment.validate()
        unknown = [
            broker_id
            for broker_id in deployment.tree.brokers
            if broker_id not in self.brokers
        ]
        if unknown:
            raise ValueError(
                f"deployment names brokers not in this network: {sorted(unknown)}"
            )
        self.detach_all_clients()
        for broker in self.brokers.values():
            broker.reset()
        self._links.clear()
        for parent, child in deployment.tree.edges():
            self.connect_brokers(parent, child)
        self._active_brokers = list(deployment.tree.brokers)
        for sub_id, broker_id in deployment.subscription_placement.items():
            client_id = self._subscriber_of_sub.get(sub_id)
            if client_id is None:
                continue
            subscriber = self.subscribers[client_id]
            if subscriber.departed:
                continue
            if subscriber.broker_id is None:
                self.brokers[broker_id].attach_client(client_id)
                subscriber.attached(self, broker_id)
        # Any subscriber not named by the plan (e.g. its subscriptions
        # recorded no traffic) falls back to the root.
        for subscriber in self.subscribers.values():
            if subscriber.departed:
                continue
            if subscriber.broker_id is None:
                root = deployment.tree.root
                self.brokers[root].attach_client(subscriber.client_id)
                subscriber.attached(self, root)
        for publisher in self.publishers.values():
            broker_id = deployment.publisher_placement.get(
                publisher.adv_id, deployment.tree.root
            )
            self.brokers[broker_id].attach_client(publisher.client_id)
            publisher.attached(self, broker_id)
        self.last_deployment = deployment

    def run(self, duration: float) -> None:
        """Advance virtual time by ``duration`` seconds."""
        until = self.sim.now + duration
        if self.obs_sampler is not None:
            self.obs_sampler.run(until)
        else:
            self.sim.run(until=until)
        self.settle_deliveries()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PubSubNetwork(brokers={len(self.brokers)}, "
            f"publishers={len(self.publishers)}, "
            f"subscribers={len(self.subscribers)})"
        )
