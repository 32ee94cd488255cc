"""CBC — the CROC Back-end Component embedded in every broker.

The CBC profiles the broker's local subscribers (one bit vector per
publisher per subscription) and its local publishers (measured
publication rate, bandwidth, last message ID), and assembles the
broker's BIA report when CROC floods a BIR (paper §III).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.core.bitvector import DEFAULT_CAPACITY
from repro.core.capacity import BrokerSpec
from repro.core.profiles import PublisherProfile, SubscriptionProfile
from repro.core.units import SubscriptionRecord
from repro.pubsub.message import BrokerReport, Publication, Subscription


@dataclass
class _PublisherStats:
    """Measured behaviour of one locally attached publisher."""

    adv_id: str
    first_seen: float
    message_count: int = 0
    bytes_kb: float = 0.0
    last_message_id: int = 0

    def profile(self, now: float) -> PublisherProfile:
        elapsed = max(now - self.first_seen, 1e-9)
        return PublisherProfile(
            adv_id=self.adv_id,
            publication_rate=self.message_count / elapsed,
            bandwidth=self.bytes_kb / elapsed,
            last_message_id=self.last_message_id,
        )


class CrocBackendComponent:
    """Per-broker profiling and BIA assembly."""

    def __init__(self, broker_id: str, profile_capacity: int = DEFAULT_CAPACITY):
        self.broker_id = broker_id
        self.profile_capacity = profile_capacity
        self._subscriptions: Dict[str, Subscription] = {}
        self._subscriber_of: Dict[str, str] = {}
        self._profiles: Dict[str, SubscriptionProfile] = {}
        self._publishers: Dict[str, _PublisherStats] = {}

    # ------------------------------------------------------------------
    # Profiling hooks (called by the broker)
    # ------------------------------------------------------------------
    def register_subscription(self, subscription: Subscription) -> None:
        self._subscriptions[subscription.sub_id] = subscription
        self._subscriber_of[subscription.sub_id] = subscription.subscriber_id
        self._profiles.setdefault(
            subscription.sub_id, SubscriptionProfile(capacity=self.profile_capacity)
        )

    def unregister_subscription(self, sub_id: str) -> None:
        self._subscriptions.pop(sub_id, None)
        self._subscriber_of.pop(sub_id, None)
        self._profiles.pop(sub_id, None)

    def record_deliveries(self, publication: Publication,
                          sub_ids: Iterable[str]) -> None:
        """Record one publication into each matched subscription's profile."""
        profiles = self._profiles
        adv_id = publication.adv_id
        message_id = publication.message_id
        for sub_id in sub_ids:
            profile = profiles.get(sub_id)
            if profile is not None:
                profile.record(adv_id, message_id)

    def on_local_publication(self, publication: Publication, now: float) -> None:
        """Update the measured profile of a locally attached publisher."""
        stats = self._publishers.get(publication.adv_id)
        if stats is None:
            stats = _PublisherStats(adv_id=publication.adv_id, first_seen=now)
            self._publishers[publication.adv_id] = stats
        stats.message_count += 1
        stats.bytes_kb += publication.size_kb
        if publication.message_id > stats.last_message_id:
            stats.last_message_id = publication.message_id

    def forget_publisher(self, adv_id: str) -> None:
        self._publishers.pop(adv_id, None)

    # ------------------------------------------------------------------
    # BIA assembly
    # ------------------------------------------------------------------
    def report(self, spec: BrokerSpec, now: float,
               measured_delay=None) -> BrokerReport:
        """This broker's contribution to the aggregated BIA.

        ``measured_delay`` is the broker's fitted matching-delay
        function (see :mod:`repro.pubsub.delay_estimation`); the
        configured spec stays authoritative for allocation, and the
        measurement rides along for operators and tests.
        """
        publishers = [stats.profile(now) for stats in self._publishers.values()]
        directory = {profile.adv_id: profile for profile in publishers}
        subscriptions: List[SubscriptionRecord] = []
        for sub_id, profile in self._profiles.items():
            snapshot = profile.copy()
            snapshot.synchronize(directory)
            subscriptions.append(
                SubscriptionRecord(
                    sub_id=sub_id,
                    subscriber_id=self._subscriber_of.get(sub_id, ""),
                    profile=snapshot,
                    home_broker=self.broker_id,
                )
            )
        return BrokerReport(
            broker_id=self.broker_id,
            url=spec.url or self.broker_id,
            spec=spec,
            subscriptions=subscriptions,
            publishers=publishers,
            measured_delay=measured_delay,
        )

    def reset(self) -> None:
        """Forget all profiling state (used at reconfiguration)."""
        self._subscriptions.clear()
        self._subscriber_of.clear()
        self._profiles.clear()
        self._publishers.clear()
