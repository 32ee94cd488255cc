"""Brute-force Subscription Routing Table: ``matches()`` over a flat list.

The reference the route-grouped ``MatchingIndex`` is checked against.
It is the per-entry scan the index replaced — every entry evaluated
with :func:`repro.pubsub.matching.matches`, no buckets, no grouping, no
compiled filters, no early exit — and shares nothing with the index
beyond that one function.

The contract it spells out:

* entries are independent per ``(sub_id, destination)``; adding the
  same pair again changes nothing;
* every matching client entry is one delivery; every neighbour broker
  with at least one matching entry is one forward; nothing goes to the
  ``exclude``d destination;
* client deliveries are ordered by where the subscription's *index
  attribute* (its first equality predicate off ``class``, else its last
  one on ``class``) sits in the publication, then by insertion;
  subscriptions without an equality predicate come last.
"""

from typing import List, Optional, Set, Tuple

from repro.pubsub.matching import BROKER, CLIENT, Destination, matches
from repro.pubsub.message import Publication, Subscription
from repro.pubsub.predicate import Operator


def index_attribute(subscription: Subscription) -> Optional[str]:
    equalities = [
        predicate.attribute for predicate in subscription.predicates
        if predicate.operator is Operator.EQ
    ]
    selective = [attribute for attribute in equalities if attribute != "class"]
    if selective:
        return selective[0]
    return equalities[-1] if equalities else None


class FlatRoutingTable:
    def __init__(self) -> None:
        self.entries: List[Tuple[Subscription, Destination]] = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, subscription: Subscription, destination: Destination) -> None:
        for known, known_destination in self.entries:
            if known.sub_id == subscription.sub_id and known_destination == destination:
                return
        self.entries.append((subscription, destination))

    def remove_subscription(self, sub_id: str) -> None:
        self.entries = [entry for entry in self.entries if entry[0].sub_id != sub_id]

    def matching_routes(
        self, publication: Publication, exclude: Optional[Destination] = None
    ) -> Tuple[List[Tuple[Subscription, Destination]], Set[str]]:
        hits = [
            (subscription, destination)
            for subscription, destination in self.entries
            if destination != exclude and matches(subscription, publication)
        ]
        names = list(publication.attributes)

        def delivery_rank(entry: Tuple[Subscription, Destination]) -> int:
            attribute = index_attribute(entry[0])
            return len(names) if attribute is None else names.index(attribute)

        clients = sorted(
            (entry for entry in hits if entry[1][0] == CLIENT), key=delivery_rank
        )
        brokers = {destination[1] for _sub, destination in hits
                   if destination[0] == BROKER}
        return clients, brokers
