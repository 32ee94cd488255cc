"""Tests for GRAPE publisher relocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import BrokerTree
from repro.core.grape import GrapeRelocator, TreeIndex
from repro.core.profiles import merge_profiles
from repro.core.units import AllocationUnit

import grape_oracle
from conftest import make_directory, make_record


def chain_tree(length=4):
    """ROOT=b0 — b1 — b2 — ... a simple path."""
    tree = BrokerTree("b0")
    for index in range(1, length):
        tree.add_broker(f"b{index}", f"b{index - 1}")
    return tree


def star_tree(leaves=3):
    tree = BrokerTree("root")
    for index in range(leaves):
        tree.add_broker(f"leaf{index}", "root")
    return tree


def place_subscription(tree, broker_id, bits, directory, adv="A", sub_id=None):
    record = make_record({adv: bits}, sub_id=sub_id)
    unit = AllocationUnit.for_subscription(record, directory)
    tree.set_units(broker_id, list(tree.broker_units[broker_id]) + [unit])
    return unit


class TestParameters:
    def test_rejects_bad_objective(self):
        with pytest.raises(ValueError):
            GrapeRelocator(objective="latency")

    def test_rejects_bad_priority(self):
        with pytest.raises(ValueError):
            GrapeRelocator(priority=1.5)


class TestLoadObjective:
    def test_moves_publisher_next_to_single_subscriber(self, directory):
        tree = chain_tree(4)
        place_subscription(tree, "b3", range(64), directory)
        grape = GrapeRelocator(objective="load")
        decision = grape.place_one(tree, "A", directory["A"])
        assert decision.broker_id == "b3"

    def test_publisher_without_subscribers_goes_to_root(self, directory):
        tree = chain_tree(3)
        grape = GrapeRelocator(objective="load")
        decision = grape.place_one(tree, "A", directory["A"])
        assert decision.broker_id == tree.root
        assert decision.load_score == 0.0

    def test_weighted_median_of_two_subscribers(self, directory):
        """Heavier side of the chain attracts the publisher."""
        tree = chain_tree(5)
        place_subscription(tree, "b0", range(8), directory)     # light: 1.25 msg/s
        place_subscription(tree, "b4", range(64), directory)    # heavy: 10 msg/s
        grape = GrapeRelocator(objective="load")
        decision = grape.place_one(tree, "A", directory["A"])
        assert decision.broker_id == "b4"

    def test_star_center_when_interests_are_disjoint(self, directory):
        """Each leaf wants a different quarter of the stream: attaching
        at any leaf forces three quarters across the uplink, so the hub
        is strictly cheaper."""
        tree = star_tree(4)
        for index in range(4):
            place_subscription(
                tree, f"leaf{index}", range(index * 16, (index + 1) * 16), directory
            )
        grape = GrapeRelocator(objective="load")
        decision = grape.place_one(tree, "A", directory["A"])
        assert decision.broker_id == "root"

    def test_load_score_counts_edge_stream_rates(self, directory):
        """From b0, a full-rate subscriber at b2 costs 2 edges × 10 msg/s."""
        tree = chain_tree(3)
        place_subscription(tree, "b2", range(64), directory)
        grape = GrapeRelocator(objective="load")
        scores = grape._load_scores(TreeIndex(tree), directory["A"])
        assert scores["b0"] == pytest.approx(20.0)
        assert scores["b1"] == pytest.approx(10.0)
        assert scores["b2"] == pytest.approx(0.0)


class TestDelayObjective:
    def test_minimizes_delivery_weighted_distance(self, directory):
        tree = chain_tree(5)
        # Two subscribers at b4, one at b0: the weighted median is b4.
        place_subscription(tree, "b4", range(64), directory)
        place_subscription(tree, "b4", range(64), directory)
        place_subscription(tree, "b0", range(64), directory)
        grape = GrapeRelocator(objective="delay")
        decision = grape.place_one(tree, "A", directory["A"])
        assert decision.broker_id == "b4"

    def test_delay_scores_exact_on_chain(self, directory):
        tree = chain_tree(3)
        place_subscription(tree, "b0", range(64), directory)  # weight 10
        place_subscription(tree, "b2", range(64), directory)  # weight 10
        grape = GrapeRelocator(objective="delay")
        index = TreeIndex(tree)
        needs = grape._broker_needs(index, "A", directory["A"])
        scores = grape._delay_scores(index, needs)
        assert scores["b0"] == pytest.approx(20.0)  # 0*10 + 2*10
        assert scores["b1"] == pytest.approx(20.0)  # 1*10 + 1*10
        assert scores["b2"] == pytest.approx(20.0)


class TestMixedPriority:
    def test_priority_interpolates_objectives(self, directory):
        tree = chain_tree(6)
        # Load-optimal and delay-optimal placements differ: many light
        # subscribers far away vs one heavy subscriber near the root.
        place_subscription(tree, "b5", range(64), directory)
        for _ in range(3):
            place_subscription(tree, "b0", range(4), directory)
        load_choice = GrapeRelocator("load", 1.0).place_one(tree, "A", directory["A"])
        delay_choice = GrapeRelocator("delay", 1.0).place_one(tree, "A", directory["A"])
        # With full priority the two extremes pick their own optima;
        # a mixed priority never picks something worse than both.
        mixed = GrapeRelocator("load", 0.5).place_one(tree, "A", directory["A"])
        assert mixed.broker_id in {load_choice.broker_id, delay_choice.broker_id,
                                   "b1", "b2", "b3", "b4"}


class TestPlaceAll:
    def test_places_every_publisher(self, directory):
        tree = star_tree(2)
        place_subscription(tree, "leaf0", range(64), directory, adv="A")
        place_subscription(tree, "leaf1", range(64), directory, adv="B")
        grape = GrapeRelocator(objective="load")
        placement = grape.place_publishers(tree, directory)
        assert placement == {"A": "leaf0", "B": "leaf1"}

    def test_single_broker_tree(self, directory):
        tree = BrokerTree("only")
        place_subscription(tree, "only", range(8), directory)
        placement = GrapeRelocator().place_publishers(tree, directory)
        assert placement["A"] == "only"

    def test_pseudo_units_are_ignored(self, directory):
        """Internal brokers' pseudo-units must not attract publishers."""
        tree = chain_tree(3)
        real = place_subscription(tree, "b2", range(64), directory)
        pseudo = AllocationUnit.for_child_broker("b2", [real], directory)
        tree.set_units("b0", [pseudo])
        decision = GrapeRelocator("load").place_one(tree, "A", directory["A"])
        assert decision.broker_id == "b2"


# ----------------------------------------------------------------------
# The tree index against the per-publisher walk (tests/grape_oracle.py)
# ----------------------------------------------------------------------

bits_strategy = st.sets(st.integers(0, 63), max_size=12)
record_strategy = st.dictionaries(st.sampled_from("ABC"), bits_strategy, max_size=3)


@given(
    parents=st.lists(st.integers(0, 10**6), max_size=6),
    units=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.lists(record_strategy, min_size=1, max_size=3),
        ),
        max_size=10,
    ),
    pseudo=st.lists(st.integers(0, 10**6), max_size=2),
    last_ids=st.tuples(*(st.integers(0, 90) for _ in range(3))),
)
@settings(max_examples=80)
def test_prop_index_equals_the_per_publisher_walk(parents, units, pseudo, last_ids):
    """Needs, load scores and delay scores read off the index equal the
    oracle's walk over every record, bit for bit."""
    directory = make_directory(["A", "B", "C", "D"])
    for adv_id, last_id in zip("ABC", last_ids):
        directory[adv_id].last_message_id = last_id
    tree = BrokerTree("b0")
    for index, parent in enumerate(parents, start=1):
        tree.add_broker(f"b{index}", f"b{parent % index}")
    brokers = tree.brokers
    for where, records in units:
        members = [make_record(bits) for bits in records]
        unit = AllocationUnit(
            members=members,
            profile=merge_profiles([record.profile for record in members]),
            delivery_bandwidth=1.0,
            delivery_rate=1.0,
            subscription_count=len(members),
        )
        broker_id = brokers[where % len(brokers)]
        tree.set_units(broker_id, list(tree.broker_units[broker_id]) + [unit])
    for where in pseudo:
        broker_id = brokers[where % len(brokers)]
        served = tree.broker_units[brokers[-1]] or [
            AllocationUnit.for_subscription(make_record({"A": {1}}), directory)
        ]
        stand_in = AllocationUnit.for_child_broker(brokers[-1], served, directory)
        tree.set_units(broker_id, list(tree.broker_units[broker_id]) + [stand_in])
    assert grape_oracle.differences(tree, directory) == []
    for objective in ("load", "delay"):
        grape = GrapeRelocator(objective, 0.7)
        index = TreeIndex(tree)
        for adv_id, publisher in directory.items():
            assert grape.place_one(tree, adv_id, publisher, index) == grape.place_one(
                tree, adv_id, publisher
            )
