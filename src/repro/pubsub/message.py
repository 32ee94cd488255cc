"""Message types flowing through the broker overlay.

Publications carry a per-publisher message ID and the publisher's
advertisement ID (paper §III-B: "Each publisher appends a message ID,
which is just an integer counter, as well as its globally unique
advertisement ID into its publication messages"), which is exactly what
lets CBCs maintain bit-vector profiles without understanding the
payload.
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


@dataclass(frozen=True)
class Publication:
    """One event, stamped with its publisher's identity and counter.

    ``hops`` counts broker-to-broker transfers.  A broker that forwards
    a publication makes one :meth:`hopped` copy and sends that same
    object over every outgoing link: the publication is immutable, so
    in-flight copies share no mutable state.
    """

    adv_id: str
    message_id: int
    attributes: Dict[str, Any]
    publish_time: float
    size_kb: float
    hops: int = 0

    def hopped(self) -> "Publication":
        """A copy with one more broker hop recorded."""
        return Publication(self.adv_id, self.message_id, self.attributes,
                           self.publish_time, self.size_kb, self.hops + 1)


# The control-plane types (BrokerInformationRequest/Answer, BrokerReport,
# CONTROL_MESSAGE_KB) moved to repro.core.protocol so the CROC
# coordinator in core/ does not import upward into pubsub/; they remain
# importable from this module (see the re-export block above).
