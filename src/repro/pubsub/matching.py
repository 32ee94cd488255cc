"""Content-based matching: publications vs subscriptions vs advertisements."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Hashable
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.pubsub.message import Advertisement, Publication, Subscription
from repro.pubsub.predicate import (
    Operator,
    Predicate,
    Test,
    covers as predicate_covers,
    intersects,
)

#: Destination kinds for SRT payloads.  Defined here (the bottom of the
#: pub/sub layer) and re-exported by :mod:`repro.pubsub.broker` so the
#: routing table can partition destinations without importing the
#: broker module back.
CLIENT = "client"
BROKER = "broker"

Destination = Tuple[str, str]  # (CLIENT|BROKER, identifier)


def matches(subscription: Subscription, publication: Publication) -> bool:
    """Whether a publication satisfies every predicate of a subscription.

    An attribute missing from the publication fails the predicate — the
    standard conjunctive content-based semantics.
    """
    attributes = publication.attributes
    for predicate in subscription.predicates:
        if predicate.attribute not in attributes:
            return False
        if not predicate.matches(attributes[predicate.attribute]):
            return False
    return True


def overlaps(subscription: Subscription, advertisement: Advertisement) -> bool:
    """Whether the advertisement's space can produce matching events.

    Every subscription predicate must name an advertised attribute and
    be jointly satisfiable with all advertisement predicates on it.
    Used to decide which last-hops a subscription is routed toward.
    """
    advertised = advertisement.constraints
    for predicate in subscription.predicates:
        constraints = advertised.get(predicate.attribute)
        if constraints is None:
            return False
        for constraint in constraints:
            if not intersects(predicate, constraint):
                return False
    return True


def subscription_covers(general: Subscription, specific: Subscription) -> bool:
    """Language-level covering: every event matching ``specific`` matches
    ``general``.  Conservative.  The allocation framework deliberately
    does *not* use this — it exists for tests and diagnostics.
    """
    specific_by_attr: Dict[str, List[Predicate]] = defaultdict(list)
    for predicate in specific.predicates:
        specific_by_attr[predicate.attribute].append(predicate)
    for predicate in general.predicates:
        candidates = specific_by_attr.get(predicate.attribute)
        if not candidates:
            return False
        if not any(predicate_covers(predicate, candidate) for candidate in candidates):
            return False
    return True


#: A subscription's residual predicates, compiled for the per-publication
#: loop: ``(attribute, test, value)`` triples (:meth:`Predicate.compiled`).
#: Equal filters compile to equal (and hashable) tuples, which is what
#: lets a link keep one copy however many subscriptions carry it.
Filter = Tuple[Tuple[str, Test, Any], ...]

_MISSING = object()


class _Bucket:
    """The routes behind one ``(attribute, value)`` bucket key.

    A publication that hits the bucket has to answer two different
    questions.  *Which clients?* — every client entry is its own
    delivery, profile update and output-lane slot, and their order is
    the delivery order, so they are kept as a list in insertion order
    and evaluated one by one.  *Which links?* — a yes/no per neighbour
    broker, so each link keeps only the *distinct* residual filters
    behind it (reference-counted, so removals know when one is gone)
    and evaluation stops at the first that passes.
    """

    __slots__ = ("clients", "links")

    def __init__(self) -> None:
        self.clients: List[Tuple[Subscription, Destination, Filter]] = []
        #: neighbour -> {distinct filter -> number of entries carrying
        #: it}, each dict in shortest-filter-first order.
        self.links: Dict[str, Dict[Filter, int]] = {}

    def add_link(self, neighbor: str, residual: Filter) -> None:
        filters = self.links.get(neighbor)
        if filters is not None and residual in filters:
            filters[residual] += 1
            return
        # A filter this link has not seen: rebuild the (small) dict so
        # iteration keeps trying the cheapest, least selective first.
        held = list(filters.items()) if filters else []
        held.append((residual, 1))
        held.sort(key=lambda item: len(item[0]))
        self.links[neighbor] = dict(held)

    def remove_link(self, neighbor: str, residual: Filter) -> None:
        filters = self.links[neighbor]
        if filters[residual] > 1:
            filters[residual] -= 1
            return
        del filters[residual]
        if not filters:
            del self.links[neighbor]


class MatchingIndex:
    """A broker's Subscription Routing Table, indexed for matching.

    Matching a publication against all subscriptions at a broker is the
    dominant cost of the simulation, so subscriptions carrying an
    equality predicate (the common case — every stock subscription pins
    ``symbol``) are bucketed by their most selective ``(attribute,
    value)`` pair; the rest live in a linear-scan fallback list.

    Entries are ``(subscription, destination)`` pairs, independent per
    pair: the same subscription may be routed to several destinations,
    and a repeated pair is ignored.  ``len()`` counts entries — it
    feeds the broker's matching-delay model, which charges per routing
    table entry however the table is laid out.

    Inside a bucket the entries are grouped by where they lead (see
    :class:`_Bucket`), and carry only the subscription's *residual*
    predicates — everything except the indexed equality, which the
    bucket hit already proves satisfied — compiled to plain
    ``(attribute, test, value)`` triples.

    Two auxiliary structures keep the other paths cheap:

    * ``_by_sub`` maps each subscription id to its routes, so
      :meth:`remove_subscription` touches only that subscription's
      buckets instead of scanning every entry (churn workloads would
      otherwise go quadratic).
    * a *probe cache* maps a publication's attribute-name tuple to the
      subset of names that have any bucket at all.  Publications from
      one publisher present the same name tuple on every hop, so the
      repeat (publisher, broker) case reuses one precomputed probe
      list per routing-table epoch instead of hashing every
      ``(attribute, value)`` pair per message.
    """

    def __init__(self) -> None:
        self._buckets: Dict[Tuple[str, Hashable], _Bucket] = {}
        self._fallback: List[Tuple[Subscription, Destination]] = []
        #: sub_id -> its entries as (subscription, destination, bucket key).
        self._by_sub: Dict[
            str,
            List[Tuple[Subscription, Destination, Optional[Tuple[str, Hashable]]]],
        ] = {}
        #: attribute -> number of bucketed entries pinning it.
        self._bucket_attrs: Dict[str, int] = {}
        #: publication attribute-name tuple -> names worth probing.
        self._probe_cache: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        #: Probe-cache hit/miss tallies (read by :mod:`repro.obs`).
        self.probe_cache_hits = 0
        self.probe_cache_misses = 0
        #: Number of entries (what ``len()`` returns), as an attribute so
        #: the broker's per-message delay model reads it without a call.
        self.size = 0

    @staticmethod
    def _index_key(subscription: Subscription) -> Optional[Tuple[str, Hashable]]:
        best: Optional[Tuple[str, Hashable]] = None
        for predicate in subscription.predicates:
            if predicate.operator is Operator.EQ and isinstance(
                predicate.value, Hashable
            ):
                key = (predicate.attribute, predicate.value)
                # Prefer non-'class' attributes: 'class' is shared by the
                # whole workload, so 'symbol' etc. is far more selective.
                if best is None or best[0] == "class":
                    best = key
        return best

    def __len__(self) -> int:
        return self.size

    @staticmethod
    def _residual(subscription: Subscription, key: Tuple[str, Hashable]) -> Filter:
        """Everything but the indexed equality, compiled."""
        return tuple(
            predicate.compiled()
            for predicate in subscription.predicates
            if (predicate.attribute, predicate.value) != key
            or predicate.operator is not Operator.EQ
        )

    def add(self, subscription: Subscription, destination: Destination) -> None:
        routes = self._by_sub.setdefault(subscription.sub_id, [])
        for _sub, known, _key in routes:
            if known == destination:
                return
        key = self._index_key(subscription)
        routes.append((subscription, destination, key))
        if key is None:
            self._fallback.append((subscription, destination))
        else:
            residual = self._residual(subscription, key)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _Bucket()
            if destination[0] == CLIENT:
                bucket.clients.append((subscription, destination, residual))
            else:
                bucket.add_link(destination[1], residual)
            attribute = key[0]
            count = self._bucket_attrs.get(attribute, 0)
            self._bucket_attrs[attribute] = count + 1
            if count == 0:
                self._probe_cache.clear()
        self.size += 1

    def remove_subscription(self, sub_id: str) -> None:
        """Drop every entry of the given subscription.

        O(entries-of-sub) via the ``sub_id -> routes`` side index, plus
        the one client list or link group each entry sits in — never a
        scan of other buckets or other links.
        """
        for subscription, destination, key in self._by_sub.pop(sub_id, ()):
            if key is None:
                self._fallback = [
                    entry for entry in self._fallback
                    if entry[0].sub_id != sub_id
                ]
            else:
                bucket = self._buckets[key]
                if destination[0] == CLIENT:
                    bucket.clients = [
                        entry for entry in bucket.clients
                        if entry[0].sub_id != sub_id or entry[1] != destination
                    ]
                else:
                    bucket.remove_link(
                        destination[1], self._residual(subscription, key)
                    )
                if not bucket.clients and not bucket.links:
                    del self._buckets[key]
                attribute = key[0]
                remaining = self._bucket_attrs[attribute] - 1
                if remaining:
                    self._bucket_attrs[attribute] = remaining
                else:
                    del self._bucket_attrs[attribute]
                    self._probe_cache.clear()
            self.size -= 1

    def _bucket_probes(self, publication: Publication) -> Tuple[str, ...]:
        """The publication's attributes that can hit a bucket, in order.

        Attributes without any bucketed subscription (``price``,
        ``volume``, …) can never produce a bucket hit, so probing them
        is pure dict-lookup waste; the surviving names are cached per
        attribute-name tuple, which is constant per publisher feed (the
        publication carries it, built once at publish time).
        """
        names = publication.attribute_names
        probes = self._probe_cache.get(names)
        if probes is None:
            self.probe_cache_misses += 1
            bucket_attrs = self._bucket_attrs
            probes = tuple(name for name in names if name in bucket_attrs)
            self._probe_cache[names] = probes
        else:
            self.probe_cache_hits += 1
        return probes

    def matching_routes(
        self, publication: Publication, exclude: Optional[Destination] = None
    ) -> Tuple[List[Tuple[Subscription, Destination]], Set[str]]:
        """Where a publication goes: ``(clients, brokers)``.

        ``clients`` is one ``(subscription, destination)`` per matching
        client entry (each is a separate delivery and profile update),
        ordered by the publication's attribute order over the buckets
        hit, insertion order within a bucket, fallback entries last;
        ``brokers`` is the set of next-hop broker ids with at least one
        matching entry.  ``exclude`` drops the destination the
        publication arrived from, so a publication never bounces back
        out of the link it came in on — that link's filters are not
        even evaluated, nor are those of a link already selected.
        """
        clients: List[Tuple[Subscription, Destination]] = []
        brokers: Set[str] = set()
        attributes = publication.attributes
        lookup = attributes.get
        missing = _MISSING
        came_from = exclude[1] if exclude is not None and exclude[0] != CLIENT else None
        buckets = self._buckets
        for attribute in self._bucket_probes(publication):
            bucket = buckets.get((attribute, attributes[attribute]))
            if bucket is None:
                continue
            # The filter loop is written out twice (for/else = "every
            # triple passed") rather than shared: a helper call per
            # evaluation is the overhead this layout exists to remove.
            for subscription, destination, residual in bucket.clients:
                for name, test, wanted in residual:
                    value = lookup(name, missing)
                    if value is missing or not test(value, wanted):
                        break
                else:
                    if destination != exclude:
                        clients.append((subscription, destination))
            for neighbor, filters in bucket.links.items():
                if neighbor == came_from or neighbor in brokers:
                    continue
                for residual in filters:
                    for name, test, wanted in residual:
                        value = lookup(name, missing)
                        if value is missing or not test(value, wanted):
                            break
                    else:
                        brokers.add(neighbor)
                        break
        for subscription, destination in self._fallback:
            if destination == exclude:
                continue
            if destination[0] == CLIENT:
                if matches(subscription, publication):
                    clients.append((subscription, destination))
            elif destination[1] not in brokers and matches(subscription, publication):
                brokers.add(destination[1])
        return clients, brokers

    def entries(self) -> Iterable[Tuple[Subscription, Destination]]:
        for routes in self._by_sub.values():
            for subscription, destination, _key in routes:
                yield subscription, destination
