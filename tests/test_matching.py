"""Tests for publication/subscription/advertisement matching."""

import pytest

from repro.pubsub.matching import (
    BROKER,
    CLIENT,
    MatchingIndex,
    matches,
    overlaps,
    subscription_covers,
)
from repro.pubsub.message import Advertisement, Publication, Subscription
from repro.pubsub.predicate import parse_predicates


def sub(sub_id, *triples):
    return Subscription(sub_id=sub_id, subscriber_id=sub_id,
                        predicates=parse_predicates(triples))


def adv(adv_id, *triples):
    return Advertisement(adv_id=adv_id, publisher_id=f"p-{adv_id}",
                         predicates=parse_predicates(triples))


def pub(**attrs):
    return Publication(adv_id="A", message_id=1, attributes=attrs,
                       publish_time=0.0, size_kb=0.5)


YHOO_PUB = dict(
    attrs={"class": "STOCK", "symbol": "YHOO", "low": 18.37, "volume": 6200}
)


class TestMatches:
    def test_full_conjunction(self):
        subscription = sub("s", ("class", "=", "STOCK"), ("symbol", "=", "YHOO"))
        assert matches(subscription, pub(**YHOO_PUB["attrs"]))

    def test_one_failed_predicate_rejects(self):
        subscription = sub("s", ("symbol", "=", "MSFT"))
        assert not matches(subscription, pub(**YHOO_PUB["attrs"]))

    def test_missing_attribute_rejects(self):
        subscription = sub("s", ("nonexistent", "=", 1))
        assert not matches(subscription, pub(**YHOO_PUB["attrs"]))

    def test_inequality_predicate(self):
        low = sub("s", ("symbol", "=", "YHOO"), ("low", "<", 20.0))
        high = sub("s", ("symbol", "=", "YHOO"), ("low", ">", 20.0))
        publication = pub(**YHOO_PUB["attrs"])
        assert matches(low, publication)
        assert not matches(high, publication)

    def test_empty_subscription_matches_everything(self):
        assert matches(sub("s"), pub(**YHOO_PUB["attrs"]))


class TestOverlaps:
    def test_matching_symbol(self):
        subscription = sub("s", ("class", "=", "STOCK"), ("symbol", "=", "YHOO"))
        advertisement = adv("a", ("class", "=", "STOCK"), ("symbol", "=", "YHOO"),
                            ("low", ">=", 0.0))
        assert overlaps(subscription, advertisement)

    def test_wrong_symbol(self):
        subscription = sub("s", ("symbol", "=", "MSFT"))
        advertisement = adv("a", ("symbol", "=", "YHOO"))
        assert not overlaps(subscription, advertisement)

    def test_unadvertised_attribute_rejects(self):
        subscription = sub("s", ("volume", ">", 100.0))
        advertisement = adv("a", ("symbol", "=", "YHOO"))
        assert not overlaps(subscription, advertisement)

    def test_range_constraint_must_be_satisfiable(self):
        subscription = sub("s", ("low", "<", 0.0))
        advertisement = adv("a", ("low", ">=", 0.0))
        assert not overlaps(subscription, advertisement)

    def test_satisfiable_range(self):
        subscription = sub("s", ("low", "<", 50.0))
        advertisement = adv("a", ("low", ">=", 0.0))
        assert overlaps(subscription, advertisement)


class TestSubscriptionCovers:
    def test_fewer_predicates_cover_more(self):
        general = sub("g", ("symbol", "=", "YHOO"))
        specific = sub("s", ("symbol", "=", "YHOO"), ("low", "<", 20.0))
        assert subscription_covers(general, specific)
        assert not subscription_covers(specific, general)

    def test_wider_threshold_covers(self):
        general = sub("g", ("symbol", "=", "YHOO"), ("low", "<", 30.0))
        specific = sub("s", ("symbol", "=", "YHOO"), ("low", "<", 20.0))
        assert subscription_covers(general, specific)

    def test_disjoint_symbols_do_not_cover(self):
        a = sub("a", ("symbol", "=", "YHOO"))
        b = sub("b", ("symbol", "=", "MSFT"))
        assert not subscription_covers(a, b)


def client(name):
    return (CLIENT, name)


def broker(name):
    return (BROKER, name)


class TestMatchingIndex:
    def test_indexes_by_equality_predicate(self):
        index = MatchingIndex()
        yhoo = sub("s1", ("class", "=", "STOCK"), ("symbol", "=", "YHOO"))
        index.add(yhoo, client("c1"))
        index.add(sub("s2", ("class", "=", "STOCK"), ("symbol", "=", "MSFT")),
                  client("c2"))
        clients, brokers = index.matching_routes(pub(**YHOO_PUB["attrs"]))
        assert clients == [(yhoo, client("c1"))]
        assert brokers == set()

    def test_prefers_selective_attribute_over_class(self):
        index = MatchingIndex()
        index.add(sub("s1", ("class", "=", "STOCK"), ("symbol", "=", "YHOO")),
                  client("c"))
        # The bucket key should be the symbol, not the shared class.
        assert ("symbol", "YHOO") in index._buckets

    def test_fallback_for_subscriptions_without_equality(self):
        index = MatchingIndex()
        cheap = sub("s1", ("low", "<", 20.0))
        index.add(cheap, client("c"))
        index.add(sub("s2", ("low", "<", 19.0)), broker("b1"))
        index.add(sub("s3", ("low", ">", 20.0)), broker("b2"))
        clients, brokers = index.matching_routes(pub(**YHOO_PUB["attrs"]))
        assert clients == [(cheap, client("c"))]
        assert brokers == {"b1"}

    def test_deduplicates_payloads(self):
        index = MatchingIndex()
        index.add(sub("s1", ("symbol", "=", "YHOO")), broker("same-broker"))
        index.add(sub("s2", ("symbol", "=", "YHOO")), broker("same-broker"))
        index.add(sub("s3", ("low", "<", 20.0)), broker("same-broker"))
        _clients, brokers = index.matching_routes(pub(**YHOO_PUB["attrs"]))
        assert brokers == {"same-broker"}

    def test_client_entries_keep_every_subscription(self):
        index = MatchingIndex()
        index.add(sub("s1", ("symbol", "=", "YHOO")), client("c"))
        index.add(sub("s2", ("symbol", "=", "YHOO")), client("c"))
        clients, _brokers = index.matching_routes(pub(**YHOO_PUB["attrs"]))
        assert [(s.sub_id, d) for s, d in clients] == [
            ("s1", client("c")), ("s2", client("c")),
        ]

    def test_duplicate_add_ignored(self):
        index = MatchingIndex()
        subscription = sub("s1", ("symbol", "=", "YHOO"))
        index.add(subscription, broker("b"))
        index.add(subscription, broker("b"))
        assert len(index) == 1
        index.remove_subscription("s1")
        assert len(index) == 0
        assert not index._buckets

    def test_same_subscription_two_destinations(self):
        """Entries are independent per (sub_id, destination): one
        subscription routed to several destinations reaches them all."""
        publication = pub(**YHOO_PUB["attrs"])
        for triples in ([("symbol", "=", "YHOO")],   # bucketed
                        [("low", "<", 20.0)]):       # fallback
            index = MatchingIndex()
            subscription = sub("s1", *triples)
            for destination in (client("c1"), broker("b1"), client("c2"), broker("b2")):
                index.add(subscription, destination)
            assert len(index) == 4
            clients, brokers = index.matching_routes(publication)
            assert clients == [(subscription, client("c1")), (subscription, client("c2"))]
            assert brokers == {"b1", "b2"}
            clients, brokers = index.matching_routes(publication, client("c1"))
            assert clients == [(subscription, client("c2"))]
            assert brokers == {"b1", "b2"}

    def test_remove_subscription(self):
        index = MatchingIndex()
        index.add(sub("s1", ("symbol", "=", "YHOO")), client("c1"))
        index.add(sub("s2", ("low", "<", 99.0)), broker("b2"))
        index.remove_subscription("s1")
        index.remove_subscription("s2")
        assert len(index) == 0
        assert index.matching_routes(pub(**YHOO_PUB["attrs"])) == ([], set())

    def test_remove_subscription_routed_to_two_clients(self):
        index = MatchingIndex()
        subscription = sub("s1", ("symbol", "=", "YHOO"))
        index.add(subscription, client("c1"))
        index.add(subscription, client("c2"))
        index.remove_subscription("s1")
        assert len(index) == 0
        assert not index._buckets

    def test_len_counts_entries(self):
        """One per (subscription, destination), however they are grouped:
        the matching-delay model charges per routing-table entry."""
        index = MatchingIndex()
        index.add(sub("s1", ("symbol", "=", "YHOO")), broker("b"))
        index.add(sub("s2", ("symbol", "=", "YHOO")), broker("b"))  # same filter, same link
        index.add(sub("s3", ("low", "<", 20.0)), broker("b"))
        assert len(index) == 3

    def test_entries_iterates_everything(self):
        index = MatchingIndex()
        index.add(sub("s1", ("symbol", "=", "YHOO")), client("c"))
        index.add(sub("s2", ("symbol", "=", "YHOO")), broker("b"))
        index.add(sub("s3", ("low", "<", 20.0)), broker("b"))
        assert {(s.sub_id, d) for s, d in index.entries()} == {
            ("s1", client("c")), ("s2", broker("b")), ("s3", broker("b")),
        }

    def test_first_hit_is_not_first_entry(self):
        """A link is selected by any of its filters, not just the first."""
        index = MatchingIndex()
        index.add(sub("s1", ("symbol", "=", "YHOO"), ("low", ">", 50.0)), broker("b"))
        index.add(sub("s2", ("symbol", "=", "YHOO"), ("low", "<", 20.0)), broker("b"))
        _clients, brokers = index.matching_routes(pub(**YHOO_PUB["attrs"]))
        assert brokers == {"b"}


class _CountedStr(str):
    """A publication value that counts the comparisons made against it."""

    comparisons = 0

    def __eq__(self, other):
        _CountedStr.comparisons += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


class TestEvaluationCounts:
    """What grouping buys, as exact counts (no timing)."""

    def routes(self, index, exclude=None):
        attributes = {"symbol": "YHOO", "class": _CountedStr("STOCK")}
        _CountedStr.comparisons = 0
        routes = index.matching_routes(pub(**attributes), exclude)
        return routes, _CountedStr.comparisons

    def shared_filter_index(self, entries):
        index = MatchingIndex()
        for number in range(entries):
            index.add(sub(f"s{number}", ("class", "=", "STOCK"), ("symbol", "=", "YHOO")),
                      broker("b1"))
        return index

    def test_shared_filter_behind_one_link_costs_one_evaluation(self):
        index = self.shared_filter_index(25)
        assert len(index) == 25
        (clients, brokers), comparisons = self.routes(index)
        assert (clients, brokers) == ([], {"b1"})
        assert comparisons == 1

    def test_entries_behind_the_arrival_link_cost_nothing(self):
        index = self.shared_filter_index(25)
        (clients, brokers), comparisons = self.routes(index, broker("b1"))
        assert (clients, brokers) == ([], set())
        assert comparisons == 0

    def test_selected_link_is_not_evaluated_again(self):
        index = self.shared_filter_index(3)
        index.add(sub("wide", ("symbol", "=", "YHOO")), broker("b1"))
        for bound in (30.0, 40.0):
            index.add(sub(f"low{bound}", ("class", "=", "STOCK"), ("symbol", "=", "YHOO"),
                          ("low", "<", bound)), broker("b1"))
        # The empty residual of "wide" sorts first and selects the link.
        (_clients, brokers), comparisons = self.routes(index)
        assert brokers == {"b1"}
        assert comparisons == 0

    def test_every_client_entry_is_evaluated(self):
        index = MatchingIndex()
        for number in range(4):
            index.add(sub(f"s{number}", ("class", "=", "STOCK"), ("symbol", "=", "YHOO")),
                      client(f"c{number}"))
        (clients, _brokers), comparisons = self.routes(index)
        assert [d for _s, d in clients] == [client(f"c{n}") for n in range(4)]
        assert comparisons == 4
