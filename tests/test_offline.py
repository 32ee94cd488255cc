"""Tests for offline profile generation (simulator-free Phase 1)."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import offline_oracle
from offline_oracle import differing_records, iter_oracle_records, record_facts
from repro.core.units import units_from_records
from repro.pubsub.message import Subscription
from repro.pubsub.predicate import Operator, Predicate, parse_predicates
from repro.workloads.offline import (
    _mask,
    _predicate_mask,
    iter_offline_records,
    offline_directory,
    offline_gather,
)
from repro.workloads.scenarios import cluster_homogeneous

#: ``record_facts`` of every record of
#: ``offline_gather(cluster_homogeneous(100, scale=0.6), seed=2011)``
#: (the ``plan_offline`` benchmark pool), hashed in order.  Recorded at
#: ``c2b4c61``, where each record was built pair by pair; the masks must
#: reproduce it unchanged.
PLAN_OFFLINE_DIGEST = "795d979af6a4a16e"


def gather_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record_facts(record)).encode())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def gathered():
    scenario = cluster_homogeneous(subscriptions_per_publisher=20, scale=0.15)
    return offline_gather(scenario, seed=3)


class TestOfflineGather:
    def test_shapes(self, gathered):
        scenario = cluster_homogeneous(subscriptions_per_publisher=20, scale=0.15)
        assert len(gathered.broker_pool) == scenario.broker_count
        assert gathered.subscription_count == scenario.total_subscriptions
        assert len(gathered.directory) == scenario.publishers

    def test_directory_rates_match_scenario(self, gathered):
        scenario = cluster_homogeneous(subscriptions_per_publisher=20, scale=0.15)
        for publisher in gathered.directory.values():
            assert publisher.publication_rate == pytest.approx(
                scenario.publication_rate
            )
            assert publisher.last_message_id == scenario.profile_capacity

    def test_template_subscriptions_have_full_vectors(self, gathered):
        """Templates sink every quote of their symbol: density 1.0."""
        full = []
        for record in gathered.records:
            adv_id = next(iter(record.profile.adv_ids()), None)
            if adv_id is None:
                continue  # inequality threshold matched nothing
            window = gathered.directory[adv_id].last_message_id
            if record.profile.cardinality == window:
                full.append(record)
        # 40% of the workload are templates.
        assert len(full) >= 0.35 * gathered.subscription_count

    def test_profiles_single_publisher_each(self, gathered):
        for record in gathered.records:
            assert len(record.profile) <= 1  # one symbol per subscription

    def test_window_override(self):
        scenario = cluster_homogeneous(subscriptions_per_publisher=5, scale=0.1)
        small = offline_gather(scenario, seed=3, window=16)
        for publisher in small.directory.values():
            assert publisher.last_message_id == 16

    def test_iter_offline_records_matches_gather(self):
        scenario = cluster_homogeneous(
            subscriptions_per_publisher=8, scale=0.1, profile_capacity=64
        )
        eager = offline_gather(scenario, seed=3)
        directory = offline_directory(scenario)
        assert {
            adv_id: repr(profile)
            for adv_id, profile in directory.items()
        } == {
            adv_id: repr(profile)
            for adv_id, profile in eager.directory.items()
        }
        lazy = iter_offline_records(scenario, seed=3, directory=directory)
        for expected, got in zip(eager.records, lazy, strict=True):
            assert got.sub_id == expected.sub_id
            assert got.subscriber_id == expected.subscriber_id
            assert got.profile.signature() == expected.profile.signature()

    def test_deterministic(self):
        scenario = cluster_homogeneous(subscriptions_per_publisher=10, scale=0.1)
        a = offline_gather(scenario, seed=9)
        b = offline_gather(scenario, seed=9)
        for ra, rb in zip(a.records, b.records):
            assert ra.sub_id == rb.sub_id
            assert ra.profile == rb.profile

    def test_units_buildable(self, gathered):
        units = units_from_records(gathered.records, gathered.directory)
        assert len(units) == gathered.subscription_count
        assert all(unit.delivery_bandwidth >= 0 for unit in units)

    def test_matches_simulated_profiles_in_shape(self):
        """Offline and simulated profiling agree on template densities."""
        from repro.core.binpacking import BinPackingAllocator
        from repro.core.croc import Croc
        from repro.experiments.runner import ExperimentRunner

        scenario = cluster_homogeneous(
            subscriptions_per_publisher=10, scale=0.1, profile_capacity=96
        )
        offline = offline_gather(scenario, seed=4)
        runner = ExperimentRunner(scenario, seed=4)
        network = runner._build_network()
        runner._deploy_manual(network)
        network.run(scenario.derived_profiling_time())
        live = Croc(allocator_factory=BinPackingAllocator).gather(network)

        def density_histogram(gathered):
            densities = []
            for record in gathered.records:
                for adv_id, vector in record.profile.items():
                    densities.append(round(vector.cardinality / vector.capacity, 1))
            return sorted(densities)

        offline_template_share = sum(
            1 for d in density_histogram(offline) if d >= 0.9
        )
        live_template_share = sum(1 for d in density_histogram(live) if d >= 0.9)
        # Both see the same 40% template population at full density.
        assert offline_template_share > 0
        assert live_template_share > 0


#: Thresholds shared by the quote values and the predicates, so a value
#: exactly equal to a threshold is common; ``1``, ``1.0`` and ``True``
#: are equal, ``0.0`` and ``-0.0`` too.
SHARED_NUMBERS = (-2, 0, 1, 3, -2.5, 0.0, -0.0, 1.0, 3.0, 2**53 + 1, float(2**53))
COLUMN_OPERATORS = (Operator.LT, Operator.LE, Operator.GT, Operator.GE)

numbers = st.one_of(
    st.sampled_from(SHARED_NUMBERS),
    st.integers(-4, 4),
    st.floats(-4.0, 4.0),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.booleans(),
)
#: ``None`` stands for a quote that lacks the attribute.
quote_values = st.one_of(
    numbers, st.sampled_from(["1", "STOCK", "", "nan"]), st.none(),
)


class TestColumnMasks:
    """Sorted columns against the per-quote evaluation they replace."""

    @settings(max_examples=300)
    @given(
        values=st.lists(quote_values, max_size=40),
        thresholds=st.lists(numbers, min_size=1, max_size=8),
        data=st.data(),
    )
    def test_column_mask_equals_per_quote_mask(self, values, thresholds, data):
        quotes = [{} if value is None else {"x": value} for value in values]
        present = [value for value in values if value is not None]
        if present:  # a threshold exactly equal to a quote's value
            thresholds.append(data.draw(st.sampled_from(present), label="equal"))
        columns: dict = {}  # shared, so later thresholds reuse the column
        for threshold in thresholds:
            if isinstance(threshold, str):
                continue  # the language has no numeric test against a string
            for op in COLUMN_OPERATORS:
                compiled = Predicate("x", op, threshold).compiled()
                assert _mask(quotes, columns, compiled) == _predicate_mask(
                    quotes, compiled), (op, threshold)

    def test_other_operators_evaluate_per_quote(self):
        quotes = [{"x": 1.0}, {"x": "a"}, {}, {"x": math.nan}]
        columns: dict = {}
        for op, wanted in ((Operator.EQ, 1), (Operator.NEQ, 1), (Operator.PREFIX, "a"),
                           (Operator.PRESENT, True), (Operator.LT, math.nan),
                           (Operator.GE, math.nan)):
            compiled = Predicate("x", op, wanted).compiled()
            assert _mask(quotes, columns, compiled) == _predicate_mask(
                quotes, compiled)
        assert columns == {}


class TestAgainstOracle:
    """Predicate masks against the pair-by-pair loop of ``offline_oracle``."""

    @settings(max_examples=30)
    @given(
        data=st.data(),
        per_publisher=st.integers(1, 16),
        scale=st.sampled_from([0.05, 0.1, 0.15]),
        buckets=st.integers(1, 6),
        capacity=st.integers(8, 256),
        seed=st.integers(0, 2**16),
        drop_publisher=st.booleans(),
    )
    def test_records_equal_the_oracle(
        self, data, per_publisher, scale, buckets, capacity, seed, drop_publisher
    ):
        window = data.draw(st.one_of(
            st.sampled_from([0, capacity - 1, capacity, capacity + 1, 3 * capacity]),
            st.integers(0, 3 * capacity),
        ), label="window")
        scenario = cluster_homogeneous(
            per_publisher, scale=scale, threshold_buckets=buckets,
            profile_capacity=capacity,
        )
        directory = offline_directory(scenario, window)
        if drop_publisher:
            dropped = data.draw(st.sampled_from(sorted(directory)), label="dropped")
            del directory[dropped]
        produced = list(iter_offline_records(
            scenario, seed=seed, window=window, directory=directory))
        expected = list(iter_oracle_records(
            scenario, seed=seed, window=window, directory=directory))
        assert differing_records(produced, expected) == []

    def test_operators_beyond_the_generator(self, monkeypatch):
        """No predicates, a missing attribute, string and type-mismatched tests."""
        filters = [
            [],
            [("date", "isPresent", True)],
            [("dividend", "isPresent", True)],
            [("dividend", "<", 1.0)],
            [("symbol", ">", 1.0)],
            [("closeEqualsLow", "<>", "true")],
            [("date", "str-prefix", "1")],
            [("date", "str-suffix", "-96"), ("volume", ">=", 8000)],
            [("date", "str-contains", "Sep")],
            [("class", "=", "STOCK"), ("open", "<", 50.0), ("close", ">", 50.0)],
        ]

        def subscriptions(symbol, count, rng, **_hints):
            for index, triples in enumerate(filters):
                sub_id = f"sub-{symbol}-{index}"
                yield Subscription(sub_id, sub_id, parse_predicates(triples))

        monkeypatch.setattr(
            "repro.workloads.offline.iter_subscriptions_for_symbol", subscriptions)
        monkeypatch.setattr(
            offline_oracle, "iter_subscriptions_for_symbol", subscriptions)
        scenario = cluster_homogeneous(1, scale=0.05, profile_capacity=64)
        for window in (0, 40, 64, 150):
            produced = list(iter_offline_records(scenario, seed=5, window=window))
            expected = list(iter_oracle_records(scenario, seed=5, window=window))
            assert differing_records(produced, expected) == []
            assert len(produced) == len(filters) * scenario.publishers
        # Over a full window: every quote for the predicate-free filter,
        # nothing for the missing attribute and the mistyped comparison.
        full = {record.sub_id.rsplit("-", 1)[1]: record.profile.cardinality
                for record in produced[:len(filters)]}
        assert full["0"] == 64
        assert full["2"] == full["3"] == full["4"] == 0

    def test_plan_offline_pool_is_pinned(self):
        gathered = offline_gather(cluster_homogeneous(100, scale=0.6), seed=2011)
        assert gather_digest(gathered.records) == PLAN_OFFLINE_DIGEST


if __name__ == "__main__":
    print(gather_digest(
        offline_gather(cluster_homogeneous(100, scale=0.6), seed=2011).records))
