"""Tests for the stock-quote and subscription workload generators."""

import datetime

import pytest

from repro.pubsub.matching import matches, overlaps
from repro.pubsub.message import Publication
from repro.pubsub.predicate import Operator
from repro.sim.rng import SeededRng
from repro.workloads.scenarios import (
    PAPER_PUBLICATION_RATE,
    cluster_heterogeneous,
    cluster_homogeneous,
    scinet,
)
from repro.workloads.stocks import (
    _BASE_DATE,
    STOCK_SYMBOLS,
    StockQuoteFeed,
    _format_date,
    stock_advertisement,
)
from repro.workloads.subscriptions import (
    heterogeneous_counts,
    subscription_workload,
    subscriptions_for_symbol,
)


class TestStockFeed:
    def test_schema_matches_paper(self):
        feed = StockQuoteFeed("YHOO", SeededRng(0))
        bar = next(feed)
        assert set(bar) == {
            "class", "symbol", "open", "high", "low", "close", "volume",
            "date", "openClose%Diff", "highLow%Diff",
            "closeEqualsLow", "closeEqualsHigh",
        }
        assert bar["class"] == "STOCK"
        assert bar["symbol"] == "YHOO"

    def test_ohlc_invariants(self):
        feed = StockQuoteFeed("MSFT", SeededRng(1))
        for _ in range(200):
            bar = next(feed)
            assert bar["high"] >= max(bar["open"], bar["close"]) - 1e-9
            assert bar["low"] <= min(bar["open"], bar["close"]) + 1e-9
            assert bar["low"] > 0
            assert bar["volume"] >= 0

    def test_dates_advance_daily(self):
        feed = StockQuoteFeed("IBM", SeededRng(2))
        first = next(feed)["date"]
        second = next(feed)["date"]
        assert first == "2-Jan-96"
        assert second == "3-Jan-96"

    def test_dates_equal_strftime(self):
        """The month table and ``year % 100`` spell what ``strftime``
        spells in the C locale, across the century turn and beyond."""
        for offset in range(40_001):
            day = _BASE_DATE + datetime.timedelta(days=offset)
            expected = f"{day.day}-{day.strftime('%b')}-{day.strftime('%y')}"
            assert _format_date(offset) == expected, offset

    def test_deterministic_per_seed_and_symbol(self):
        a = [next(StockQuoteFeed("YHOO", SeededRng(3))) for _ in range(1)]
        b = [next(StockQuoteFeed("YHOO", SeededRng(3))) for _ in range(1)]
        assert a == b
        c = next(StockQuoteFeed("MSFT", SeededRng(3)))
        assert c != a[0]

    def test_bound_draws_are_the_wrapper_draws_in_order(self):
        """The feed binds its stream's draw methods once; each quote is
        what the same draws through the ``SeededRng`` wrappers give."""
        feed = StockQuoteFeed("YHOO", SeededRng(5))
        rng = SeededRng(5).child("stock", "YHOO")
        price = rng.uniform(5.0, 120.0)
        for _ in range(300):
            bar = next(feed)
            close = max(0.25, round(price * (1.0 + rng.gauss(0.0, 0.02)), 2))
            wiggle_high = abs(rng.gauss(0.0, 0.02 / 2.0))
            wiggle_low = abs(rng.gauss(0.0, 0.02 / 2.0))
            volume = int(rng.lognormal(0.0, 0.6) * 8000.0)
            assert (bar["open"], bar["close"], bar["volume"]) == (price, close, volume)
            assert bar["high"] == round(max(price, close) * (1.0 + wiggle_high), 2)
            assert bar["low"] == round(min(price, close) * (1.0 - wiggle_low), 2)
            price = close

    def test_open_continues_from_previous_close(self):
        feed = StockQuoteFeed("ORCL", SeededRng(4))
        first = next(feed)
        second = next(feed)
        assert second["open"] == first["close"]

    def test_publications_satisfy_advertisement(self):
        feed = StockQuoteFeed("YHOO", SeededRng(5))
        advertisement = stock_advertisement("YHOO")
        for _ in range(50):
            bar = next(feed)
            for predicate in advertisement.predicates:
                assert predicate.matches(bar[predicate.attribute])

    def test_symbol_universe_large_enough_for_scinet(self):
        assert len(STOCK_SYMBOLS) >= 100
        assert len(set(STOCK_SYMBOLS)) == len(STOCK_SYMBOLS)


class TestSubscriptionGenerator:
    def _publication(self, bar):
        return Publication(adv_id="adv-YHOO", message_id=1, attributes=bar,
                           publish_time=0.0, size_kb=0.5)

    def test_forty_percent_templates(self):
        subs = subscriptions_for_symbol("YHOO", 100, SeededRng(0))
        templates = [s for s in subs if len(s.predicates) == 2]
        assert len(templates) == 40

    def test_sixty_percent_carry_inequality(self):
        subs = subscriptions_for_symbol("YHOO", 100, SeededRng(0))
        extended = [s for s in subs if len(s.predicates) == 3]
        assert len(extended) == 60
        for subscription in extended:
            extra = subscription.predicates[2]
            assert extra.operator in (
                Operator.LT, Operator.LE, Operator.GT, Operator.GE,
            )

    def test_all_pin_class_and_symbol(self):
        for subscription in subscriptions_for_symbol("YHOO", 20, SeededRng(0)):
            attrs = [p.attribute for p in subscription.predicates[:2]]
            assert attrs == ["class", "symbol"]

    def test_unique_sub_ids(self):
        subs = subscriptions_for_symbol("YHOO", 50, SeededRng(0))
        assert len({s.sub_id for s in subs}) == 50

    def test_subscriptions_overlap_their_advertisement(self):
        advertisement = stock_advertisement("YHOO")
        for subscription in subscriptions_for_symbol(
            "YHOO", 30, SeededRng(1), price_hint=50.0
        ):
            assert overlaps(subscription, advertisement)

    def test_inequalities_actually_filter(self):
        """Thresholds drawn near the price: some quotes match, some don't."""
        rng = SeededRng(2)
        feed = StockQuoteFeed("YHOO", rng, initial_price=50.0)
        subs = subscriptions_for_symbol("YHOO", 100, rng, price_hint=50.0)
        bars = [next(feed) for _ in range(100)]
        fractions = []
        for subscription in subs:
            if len(subscription.predicates) == 2:
                continue
            hits = sum(
                1 for bar in bars if matches(subscription, self._publication(bar))
            )
            fractions.append(hits / len(bars))
        assert any(f < 1.0 for f in fractions)
        assert any(f > 0.0 for f in fractions)

    def test_threshold_buckets_bound_distinct_profiles(self):
        subs = subscriptions_for_symbol(
            "YHOO", 200, SeededRng(3), threshold_buckets=2
        )
        distinct = {
            (s.predicates[2].attribute, s.predicates[2].operator, s.predicates[2].value)
            for s in subs
            if len(s.predicates) == 3
        }
        # 5 attributes × 4 operators × 2 buckets at most.
        assert len(distinct) <= 40

    def test_workload_aligns_symbols_and_counts(self):
        workload = subscription_workload(["YHOO", "MSFT"], [10, 5], SeededRng(0))
        assert len(workload["YHOO"]) == 10
        assert len(workload["MSFT"]) == 5

    def test_workload_misaligned_raises(self):
        with pytest.raises(ValueError):
            subscription_workload(["YHOO"], [1, 2], SeededRng(0))


class TestHeterogeneousCounts:
    def test_paper_totals(self):
        """Ns=200 over 40 publishers: max 200, min 5, total 4,100."""
        counts = heterogeneous_counts(40, 200)
        assert counts[0] == 200
        assert counts[-1] == 5
        assert sum(counts) == 4100

    def test_monotone_decreasing(self):
        counts = heterogeneous_counts(10, 100)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_single_publisher(self):
        assert heterogeneous_counts(1, 50) == [50]

    def test_zero_publishers(self):
        assert heterogeneous_counts(0, 50) == []


class TestScenarios:
    def test_homogeneous_paper_shape(self):
        scenario = cluster_homogeneous(subscriptions_per_publisher=50)
        assert scenario.broker_count == 80
        assert scenario.publishers == 40
        assert scenario.total_subscriptions == 2000
        assert scenario.publication_rate == pytest.approx(PAPER_PUBLICATION_RATE)
        tiers = {spec.total_output_bandwidth for spec in scenario.broker_specs()}
        assert len(tiers) == 1

    def test_homogeneous_sweep_values(self):
        for per_publisher, total in ((50, 2000), (100, 4000), (150, 6000), (200, 8000)):
            scenario = cluster_homogeneous(subscriptions_per_publisher=per_publisher)
            assert scenario.total_subscriptions == total

    def test_heterogeneous_tiers(self):
        scenario = cluster_heterogeneous(ns=200)
        assert scenario.broker_count == 80
        bandwidths = [spec.total_output_bandwidth for spec in scenario.broker_specs()]
        assert bandwidths.count(max(bandwidths)) == 15
        assert bandwidths.count(max(bandwidths) / 2) == 25
        assert bandwidths.count(max(bandwidths) / 4) == 40
        assert scenario.total_subscriptions == 4100

    def test_scinet_sizes(self):
        small = scinet(brokers=400)
        large = scinet(brokers=1000)
        assert small.broker_count == 400 and small.publishers == 72
        assert large.broker_count == 1000 and large.publishers == 100
        assert small.subscription_counts[0] == 225

    def test_scale_shrinks_proportionally(self):
        scenario = cluster_homogeneous(subscriptions_per_publisher=50, scale=0.25)
        assert scenario.broker_count == 20
        assert scenario.publishers == 10

    def test_broker_ids_unique_and_stable(self):
        scenario = cluster_homogeneous(scale=0.1)
        ids = [spec.broker_id for spec in scenario.broker_specs()]
        assert len(set(ids)) == len(ids)
        assert ids == [spec.broker_id for spec in scenario.broker_specs()]

    def test_profiling_time_covers_bit_vector(self):
        scenario = cluster_homogeneous(scale=0.1)
        assert (
            scenario.derived_profiling_time()
            >= scenario.profile_capacity / scenario.publication_rate
        )

    def test_too_many_publishers_rejected(self):
        with pytest.raises(ValueError):
            scinet(brokers=1000, scale=1.5)
