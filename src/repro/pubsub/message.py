"""Message types flowing through the broker overlay.

Publications carry a per-publisher message ID and the publisher's
advertisement ID (paper §III-B: "Each publisher appends a message ID,
which is just an integer counter, as well as its globally unique
advertisement ID into its publication messages"), which is exactly what
lets CBCs maintain bit-vector profiles without understanding the
payload.

Every message here is immutable.  The subscription-side types are
frozen dataclasses; :class:`Publication`, copied on every broker hop,
is a slotted class whose immutability is a contract: once published,
nothing assigns to a publication or to its ``attributes`` dict — no
code in ``src/`` or ``tests/`` does, and in-flight copies rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Mapping, Tuple

from repro.core.protocol import (  # noqa: F401 — historical public path
    CONTROL_MESSAGE_KB,
    BrokerInformationAnswer,
    BrokerInformationRequest,
    BrokerReport,
)
from repro.pubsub.predicate import Predicate

__all__ = [
    "Advertisement",
    "BrokerInformationAnswer",
    "BrokerInformationRequest",
    "BrokerReport",
    "CONTROL_MESSAGE_KB",
    "Publication",
    "Subscription",
    "Unsubscription",
]


@dataclass(frozen=True)
class Advertisement:
    """A publisher's declaration of the publication space it will use."""

    adv_id: str
    publisher_id: str
    predicates: Tuple[Predicate, ...]

    @cached_property
    def constraints(self) -> Mapping[str, Tuple[Predicate, ...]]:
        """The predicates grouped by the attribute they constrain.

        Subscription routing asks every broker whether each of its
        subscriptions overlaps this advertisement, so the grouping is
        derived once per advertisement (the one object floods the whole
        overlay), not once per question.
        """
        grouped: Dict[str, Tuple[Predicate, ...]] = {}
        for predicate in self.predicates:
            grouped[predicate.attribute] = (
                grouped.get(predicate.attribute, ()) + (predicate,)
            )
        return grouped

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Adv({self.adv_id}: {','.join(map(str, self.predicates))})"


@dataclass(frozen=True)
class Subscription:
    """A conjunction of predicates owned by one subscriber."""

    sub_id: str
    subscriber_id: str
    predicates: Tuple[Predicate, ...]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sub({self.sub_id}: {','.join(map(str, self.predicates))})"


@dataclass(frozen=True)
class Unsubscription:
    """Retract a previously issued subscription."""

    sub_id: str
    subscriber_id: str


class Publication:
    """One event, stamped with its publisher's identity and counter.

    ``hops`` counts broker-to-broker transfers.  A broker that forwards
    a publication makes one :meth:`hopped` copy and sends that same
    object over every outgoing link, so in-flight copies share the one
    ``attributes`` dict.

    A slotted class rather than a frozen dataclass: a copy is built on
    every broker hop, and a frozen dataclass pays an
    ``object.__setattr__`` per field for it.  Immutability is a
    contract instead of a runtime guard — nothing assigns to a
    publication or its ``attributes`` after it is published (no code in
    ``src/`` or ``tests/`` does).  ``attribute_names`` is the tuple of
    attribute names, built once at publish time and shared by every
    hop copy; it keys the routing tables' probe caches.  Equality is
    field-wise, as the dataclass's was.
    """

    __slots__ = ("adv_id", "message_id", "attributes", "publish_time",
                 "size_kb", "hops", "attribute_names")

    adv_id: str
    message_id: int
    attributes: Dict[str, Any]
    publish_time: float
    size_kb: float
    hops: int
    attribute_names: Tuple[str, ...]

    def __init__(self, adv_id: str, message_id: int, attributes: Dict[str, Any],
                 publish_time: float, size_kb: float, hops: int = 0):
        self.adv_id = adv_id
        self.message_id = message_id
        self.attributes = attributes
        self.publish_time = publish_time
        self.size_kb = size_kb
        self.hops = hops
        self.attribute_names = tuple(attributes)

    def hopped(self) -> "Publication":
        """A copy with one more broker hop recorded.

        Built field by field, without ``__init__``, so the copy shares
        ``attribute_names`` with the original instead of rebuilding it.
        """
        copy = object.__new__(Publication)
        copy.adv_id = self.adv_id
        copy.message_id = self.message_id
        copy.attributes = self.attributes
        copy.publish_time = self.publish_time
        copy.size_kb = self.size_kb
        copy.hops = self.hops + 1
        copy.attribute_names = self.attribute_names
        return copy

    def _fields(self) -> Tuple[Any, ...]:
        return (self.adv_id, self.message_id, self.attributes,
                self.publish_time, self.size_kb, self.hops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Publication):
            return NotImplemented
        return self._fields() == other._fields()

    # Mutable ``attributes``: unhashable, as the dataclass was in practice.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Publication(adv_id={self.adv_id!r}, "
                f"message_id={self.message_id!r}, "
                f"attributes={self.attributes!r}, "
                f"publish_time={self.publish_time!r}, "
                f"size_kb={self.size_kb!r}, hops={self.hops!r})")


# The control-plane types (BrokerInformationRequest/Answer, BrokerReport,
# CONTROL_MESSAGE_KB) moved to repro.core.protocol so the CROC
# coordinator in core/ does not import upward into pubsub/; they remain
# importable from this module (see the re-export block above).
