"""Offline profile generation: Phase-1 output without running the DES.

The allocation algorithms only consume bit-vector profiles, broker
specs, and publisher profiles — everything CROC's Phase 1 gathers.
For algorithm-only studies (computation-time benchmarks, GIF/poset
statistics, CRAM ablations) simulating the whole overlay is wasted
work: this module replays each symbol's quote feed through the
subscription matcher directly and synthesizes the exact profiles the
CBCs would have produced.

The result is byte-for-byte the same *kind* of input CROC sees —
:class:`~repro.core.croc.GatherResult` — so anything accepting gathered
state runs unchanged on it.

Record production is streaming: :func:`iter_offline_records` yields one
:class:`~repro.core.units.SubscriptionRecord` at a time, holding only
one symbol's publication window in memory, so a consumer can walk an
arbitrarily large workload without ever materializing every profile
object.  :func:`offline_gather` is the
eager wrapper.  Laziness cannot perturb the RNG: every stream is a
*keyed* child (``rng.child("stock", symbol)`` inside the quote feed,
``rng.child("subs", symbol)`` inside the subscription generator), so
draw order across symbols is immaterial.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.core.croc import GatherResult
from repro.core.profiles import PublisherProfile, SubscriptionProfile
from repro.core.units import SubscriptionRecord
from repro.pubsub.matching import matches
from repro.pubsub.message import Publication
from repro.sim.rng import SeededRng
from repro.workloads.scenarios import Scenario
from repro.workloads.stocks import StockQuoteFeed
from repro.workloads.subscriptions import iter_subscriptions_for_symbol


def offline_directory(
    scenario: Scenario,
    window: Optional[int] = None,
) -> Dict[str, PublisherProfile]:
    """The publisher directory an offline gather of ``scenario`` sees."""
    window = window if window is not None else scenario.profile_capacity
    return {
        f"adv-{symbol}": PublisherProfile(
            adv_id=f"adv-{symbol}",
            publication_rate=scenario.publication_rate,
            bandwidth=scenario.publication_rate * scenario.message_kb,
            last_message_id=window,
        )
        for symbol in scenario.symbols
    }


def iter_offline_records(
    scenario: Scenario,
    seed: int = 0,
    window: Optional[int] = None,
    directory: Optional[Dict[str, PublisherProfile]] = None,
) -> Iterator[SubscriptionRecord]:
    """Lazily yield the subscription records an offline gather produces.

    Records arrive in the same order :func:`offline_gather` returns
    them (symbols in scenario order, subscriptions in generation
    order), one at a time; only the current symbol's publication
    window is resident.
    """
    window = window if window is not None else scenario.profile_capacity
    if directory is None:
        directory = offline_directory(scenario, window)
    if len(scenario.symbols) != len(scenario.subscription_counts):
        raise ValueError("symbols and subscription counts must align")
    rng = SeededRng(seed, "offline", scenario.name)
    for symbol, count in zip(scenario.symbols, scenario.subscription_counts):
        adv_id = f"adv-{symbol}"
        feed = StockQuoteFeed(symbol, rng)
        price_hint = feed.price  # before the window advances the feed
        publications = [
            Publication(
                adv_id=adv_id,
                message_id=message_id,
                attributes=next(feed),
                publish_time=0.0,
                size_kb=scenario.message_kb,
            )
            for message_id in range(1, window + 1)
        ]
        subscriptions = iter_subscriptions_for_symbol(
            symbol,
            count,
            rng,
            price_hint=price_hint,
            threshold_buckets=scenario.threshold_buckets,
        )
        for subscription in subscriptions:
            profile = SubscriptionProfile(capacity=scenario.profile_capacity)
            for publication in publications:
                if matches(subscription, publication):
                    profile.record(adv_id, publication.message_id)
            profile.synchronize(directory)
            yield SubscriptionRecord(
                sub_id=subscription.sub_id,
                subscriber_id=subscription.subscriber_id,
                profile=profile,
            )


def offline_gather(
    scenario: Scenario,
    seed: int = 0,
    window: Optional[int] = None,
) -> GatherResult:
    """Synthesize the GatherResult a profiling run would produce.

    Parameters
    ----------
    scenario:
        Any scenario; its broker pool, symbols, subscription counts,
        and rates are used.
    window:
        How many publications per publisher to replay (defaults to the
        scenario's profile capacity — a full bit vector).
    """
    window = window if window is not None else scenario.profile_capacity
    directory = offline_directory(scenario, window)
    records = list(
        iter_offline_records(scenario, seed=seed, window=window,
                             directory=directory)
    )
    return GatherResult(
        broker_pool=scenario.broker_specs(),
        records=records,
        directory=directory,
    )
