"""Subscription and publisher profiles (paper Section III-B).

A *subscription profile* holds one bit vector per publisher the
subscription has received traffic from.  A *publisher profile* carries
the publisher's advertisement ID, publication rate, bandwidth
consumption, and last message ID.  Together they let CROC estimate,
without any distributional assumption, the message rate and output
bandwidth a subscription will impose on whichever broker it is
assigned to.

The paper's estimation example is kept as a doctest: a subscription
with 10 of 100 bits set against a 50 msg/s, 50 kB/s publisher induces
5 msg/s and 5 kB/s.

>>> pub = PublisherProfile("AdvA", publication_rate=50.0, bandwidth=50.0,
...                        last_message_id=99)
>>> profile = SubscriptionProfile(capacity=100)
>>> for pub_id in range(10):
...     _ = profile.record("AdvA", pub_id)
>>> directory = {"AdvA": pub}
>>> round(profile.estimated_rate(directory), 6)
5.0
>>> round(profile.estimated_bandwidth(directory), 6)
5.0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.core.bitvector import DEFAULT_CAPACITY, BitVector

# Imported from the implementation module rather than repro.core.units
# (the usual import point) because units.py imports this module.
from repro.core.floats import approx_zero


@dataclass
class PublisherProfile:
    """Load description of one publisher (paper §III-B).

    Attributes
    ----------
    adv_id:
        Globally unique advertisement ID stamped into every publication;
        identifies the publisher of each message.
    publication_rate:
        Messages per second.
    bandwidth:
        Output bandwidth consumption in kB/s.
    last_message_id:
        ID of the most recent publication; used to synchronize the
        message-ID counters of all bit vectors for this publisher.
    """

    adv_id: str
    publication_rate: float
    bandwidth: float
    last_message_id: int = 0

    def __post_init__(self) -> None:
        if self.publication_rate < 0:
            raise ValueError("publication_rate must be non-negative")
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be non-negative")

    @property
    def message_size(self) -> float:
        """Average message size in kB (bandwidth / rate)."""
        if approx_zero(self.publication_rate):
            return 0.0
        return self.bandwidth / self.publication_rate

    def observed_window(self, first_id: int, capacity: int) -> int:
        """Publication slots a vector of ``capacity`` bits starting at
        ``first_id`` had a chance to see (at least one)."""
        return max(1, min(capacity, self.last_message_id - first_id + 1))

    def record_publication(self, message_id: int, size_kb: Optional[float] = None) -> None:
        """Advance the last-seen message ID (monotonically)."""
        if message_id > self.last_message_id:
            self.last_message_id = message_id


PublisherDirectory = Mapping[str, PublisherProfile]


class SubscriptionProfile:
    """The set of bit vectors describing one subscription's traffic.

    One :class:`~repro.core.bitvector.BitVector` per publisher
    (advertisement ID) the subscription received publications from.
    """

    __slots__ = ("_capacity", "_vectors", "_card", "_sig")

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self._capacity = capacity
        self._vectors: Dict[str, BitVector] = {}
        self._card: Optional[int] = None
        self._sig: Optional[Tuple[Tuple[str, Tuple[int, int]], ...]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def record(self, adv_id: str, pub_id: int) -> bool:
        """Record receipt of publication ``pub_id`` from ``adv_id``."""
        vector = self._vectors.get(adv_id)
        if vector is None:
            vector = BitVector(capacity=self._capacity)
            self._vectors[adv_id] = vector
        self._card = None
        self._sig = None
        return vector.set(pub_id)

    def synchronize(self, directory: PublisherDirectory) -> None:
        """Align every vector's window to its publisher's last message."""
        self._card = None
        self._sig = None
        for adv_id, vector in self._vectors.items():
            publisher = directory.get(adv_id)
            if publisher is not None:
                vector.synchronize(publisher.last_message_id)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def vector(self, adv_id: str) -> Optional[BitVector]:
        return self._vectors.get(adv_id)

    def adv_ids(self) -> Iterator[str]:
        return iter(self._vectors)

    def items(self) -> Iterator[Tuple[str, BitVector]]:
        return iter(self._vectors.items())

    def __len__(self) -> int:
        """Number of publishers this profile has traffic from."""
        return len(self._vectors)

    def __bool__(self) -> bool:
        return any(vector for vector in self._vectors.values())

    @property
    def cardinality(self) -> int:
        """Total set bits across all publishers (cached until mutation)."""
        if self._card is None:
            self._card = sum(vector.cardinality for vector in self._vectors.values())
        return self._card

    def copy(self) -> "SubscriptionProfile":
        clone = SubscriptionProfile(capacity=self._capacity)
        clone._vectors = {adv: vec.copy() for adv, vec in self._vectors.items()}
        clone._card = self._card
        clone._sig = self._sig
        return clone

    def adopt_vectors(self, vectors: Dict[str, BitVector]) -> None:
        """Replace the vector table wholesale (fused-kernel merges).

        The caller owns ``vectors`` and must not mutate it afterwards;
        insertion order becomes the profile's publisher order.
        """
        self._vectors = vectors
        self._card = None
        self._sig = None

    # ------------------------------------------------------------------
    # Load estimation
    # ------------------------------------------------------------------
    def fraction(self, adv_id: str, publisher: PublisherProfile) -> float:
        """Fraction of ``adv_id``'s publications this subscription sinks."""
        vector = self._vectors.get(adv_id)
        if vector is None:
            return 0.0
        window = publisher.observed_window(vector.first_id, vector.capacity)
        return min(1.0, vector.cardinality / window)

    def estimated_rate(self, directory: PublisherDirectory) -> float:
        """Publication rate (msg/s) this subscription induces."""
        total = 0.0
        for adv_id in self._vectors:
            publisher = directory.get(adv_id)
            if publisher is not None:
                total += self.fraction(adv_id, publisher) * publisher.publication_rate
        return total

    def estimated_bandwidth(self, directory: PublisherDirectory) -> float:
        """Output bandwidth (kB/s) required to serve this subscription."""
        total = 0.0
        for adv_id in self._vectors:
            publisher = directory.get(adv_id)
            if publisher is not None:
                total += self.fraction(adv_id, publisher) * publisher.bandwidth
        return total

    # ------------------------------------------------------------------
    # Union over whole profiles
    # ------------------------------------------------------------------
    def union(self, other: "SubscriptionProfile") -> "SubscriptionProfile":
        """OR-merge two profiles (the paper's clustering operation)."""
        merged = SubscriptionProfile(capacity=max(self._capacity, other._capacity))
        merged._vectors = {adv: vec.copy() for adv, vec in self._vectors.items()}
        for adv_id, vector in other._vectors.items():
            existing = merged._vectors.get(adv_id)
            if existing is None:
                merged._vectors[adv_id] = vector.copy()
            else:
                merged._vectors[adv_id] = existing.union(vector)
        return merged

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def signature(self) -> Tuple[Tuple[str, Tuple[int, int]], ...]:
        """Hashable identity of the full bit pattern.

        Two subscriptions with equal signatures received exactly the
        same publications; CRAM groups them into one GIF.
        Empty vectors are excluded so a profile that merely *opened* a
        vector without recording bits hashes like one that never did.
        The tuple is cached until the next mutation; CRAM asks for it
        on every GIF-table lookup.
        """
        if self._sig is None:
            self._sig = tuple(
                sorted(
                    (adv_id, vector.signature())
                    for adv_id, vector in self._vectors.items()
                    if vector
                )
            )
        return self._sig

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubscriptionProfile):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubscriptionProfile(publishers={len(self._vectors)}, "
            f"cardinality={self.cardinality})"
        )


def merge_profiles(profiles: Iterable[SubscriptionProfile]) -> SubscriptionProfile:
    """OR-merge any number of profiles into a fresh profile.

    Used both by CRAM clustering and by Phase 3, which maps each broker
    to the union of the profiles it serves.
    """
    iterator = iter(profiles)
    try:
        first = next(iterator)
    except StopIteration:
        return SubscriptionProfile()
    merged = first.copy()
    for profile in iterator:
        merged = merged.union(profile)
    return merged
