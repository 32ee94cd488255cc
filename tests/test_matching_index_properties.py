"""The route-grouped ``MatchingIndex`` against the flat-list oracle.

A Hypothesis state machine drives ``add`` / ``remove_subscription`` /
``matching_routes`` on the index and on ``srt_oracle.FlatRoutingTable``
side by side.  After every step the two must agree on the entry count,
and the index must hold no empty bucket, link group or side-index row;
every look-up must give the identical client list *in order* and the
identical broker set.

The generators are deliberately small-alphabet so the interesting
shapes are common: the same filter behind several links, several
filters behind one link, one subscription routed to several
destinations, fallback (no-equality) subscriptions, every operator,
publications that miss attributes or offer strings and bools to numeric
operators.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.pubsub.matching import BROKER, CLIENT, MatchingIndex
from repro.pubsub.message import Publication, Subscription
from repro.pubsub.predicate import Operator, Predicate
from srt_oracle import FlatRoutingTable

NUMERIC_OPS = (Operator.LT, Operator.LE, Operator.GT, Operator.GE)
OTHER_OPS = tuple(op for op in Operator
                  if op is not Operator.EQ and op not in NUMERIC_OPS)
ATTRIBUTES = ("class", "symbol", "low", "flag")
#: What a well-formed publication carries, per attribute.
USUAL = {
    "class": ("STOCK",),
    "symbol": ("YHOO", "MSFT"),
    "low": (10, 20.0, 30),
    "flag": (True, False),
}
NUMBERS = (10, 20.0, 30, True)
#: ... and what any attribute may carry now and then.
MIXED = NUMBERS + (False, "STOCK", "YHOO", "Y", "OO")

equalities = st.sampled_from([
    Predicate(attribute, Operator.EQ, value)
    for attribute, value in (("class", "STOCK"), ("symbol", "YHOO"),
                             ("symbol", "MSFT"), ("low", 20.0), ("flag", True))
])
numeric_predicates = st.builds(
    Predicate, st.sampled_from(("low", "low", "low", "flag", "symbol")),
    st.sampled_from(NUMERIC_OPS), st.sampled_from(NUMBERS),
)
other_predicates = st.builds(
    Predicate, st.sampled_from(ATTRIBUTES), st.sampled_from(OTHER_OPS),
    st.sampled_from(MIXED),
)
residuals = st.one_of(numeric_predicates, numeric_predicates, equalities,
                      other_predicates)
#: Usually one equality to bucket on (first or last), sometimes none.
filters = st.builds(
    lambda pins, rest, pin_first: tuple(pins + rest if pin_first else rest + pins),
    st.lists(equalities, max_size=1) | st.lists(equalities, min_size=1, max_size=1),
    st.lists(residuals, max_size=2),
    st.booleans(),
)
sub_ids = st.sampled_from([f"s{n}" for n in range(6)])
destinations = st.sampled_from(
    [(CLIENT, "c0"), (CLIENT, "c1"), (BROKER, "b0"), (BROKER, "b1")]
)


@st.composite
def publications(draw):
    """Attributes in any order, any of them missing, mostly usual values."""
    attributes = {}
    for name in draw(st.permutations(ATTRIBUTES)):
        kind = draw(st.sampled_from(("usual", "usual", "usual", "mixed", "missing")))
        if kind != "missing":
            pool = USUAL[name] if kind == "usual" else MIXED
            attributes[name] = draw(st.sampled_from(pool))
    return Publication("A", 1, attributes, 0.0, 0.5)


class IndexAgainstOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.index = MatchingIndex()
        self.oracle = FlatRoutingTable()

    @rule(sub_id=sub_ids, filter_=filters, destination=destinations)
    def add(self, sub_id, filter_, destination):
        subscription = Subscription(sub_id, sub_id, filter_)
        self.index.add(subscription, destination)
        self.oracle.add(subscription, destination)

    @rule(sub_id=sub_ids)
    def remove(self, sub_id):
        self.index.remove_subscription(sub_id)
        self.oracle.remove_subscription(sub_id)

    @rule(publication=publications(), exclude=st.none() | destinations)
    def route(self, publication, exclude):
        clients, brokers = self.index.matching_routes(publication, exclude)
        expected_clients, expected_brokers = self.oracle.matching_routes(
            publication, exclude
        )
        assert clients == expected_clients
        assert brokers == expected_brokers

    @invariant()
    def same_entries(self):
        assert len(self.index) == len(self.oracle)
        assert sorted(
            (subscription.sub_id, destination)
            for subscription, destination in self.index.entries()
        ) == sorted(
            (subscription.sub_id, destination)
            for subscription, destination in self.oracle.entries
        )

    @invariant()
    def nothing_empty_is_kept(self):
        index = self.index
        grouped = 0
        for bucket in index._buckets.values():
            assert bucket.clients or bucket.links
            for filters in bucket.links.values():
                assert filters
                assert list(map(len, filters)) == sorted(map(len, filters))
                assert all(count > 0 for count in filters.values())
                grouped += sum(filters.values())
            grouped += len(bucket.clients)
        assert grouped + len(index._fallback) == len(self.oracle)
        assert all(index._by_sub.values())
        assert sum(index._bucket_attrs.values()) == grouped
        if not self.oracle.entries:
            assert not index._buckets and not index._by_sub
            assert not index._bucket_attrs and not index._fallback


IndexAgainstOracle.TestCase.settings = settings(
    max_examples=150, stateful_step_count=50
)
TestIndexAgainstOracle = IndexAgainstOracle.TestCase
