"""Offline profiles pair by pair: the reference the predicate masks are exact against.

``repro.workloads.offline`` evaluates each distinct predicate of a
symbol once over the whole publication window (a threshold by a read
off a sorted column) and builds every vector in one step from
the AND of its subscription's masks.  This is the loop
it replaced, kept as the oracle: every (subscription, publication) pair
goes through :func:`repro.pubsub.matching.matches` (short-circuit and
all), every hit through ``SubscriptionProfile.record`` in ascending
message-ID order, and then ``synchronize``.  It shares the feed, the
subscription generator and the directory with production, and nothing
of the mask arithmetic.

Run it as a script to compare the two at paper scale (1,280-bit vectors,
the 200-subscriptions-per-publisher homogeneous cell and a heterogeneous
pool)::

    PYTHONPATH=src python tests/offline_oracle.py

It prints one line per case and exits 1 if any record differs.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterator, List, Optional

from repro.core.profiles import PublisherProfile, SubscriptionProfile
from repro.core.units import SubscriptionRecord
from repro.pubsub.matching import matches
from repro.pubsub.message import Publication
from repro.sim.rng import SeededRng
from repro.workloads.offline import offline_directory
from repro.workloads.scenarios import Scenario
from repro.workloads.stocks import StockQuoteFeed
from repro.workloads.subscriptions import iter_subscriptions_for_symbol


def iter_oracle_records(
    scenario: Scenario,
    seed: int = 0,
    window: Optional[int] = None,
    directory: Optional[Dict[str, PublisherProfile]] = None,
) -> Iterator[SubscriptionRecord]:
    """``iter_offline_records`` with ``matches`` + ``record`` per pair."""
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


def record_facts(record: SubscriptionRecord):
    """Everything a consumer can read off one record, as a comparable value."""
    profile = record.profile
    return (
        record.sub_id,
        record.subscriber_id,
        profile.capacity,
        profile.cardinality,
        profile.signature(),
        tuple(
            (adv_id, vector.capacity, vector.first_id, vector.raw_bits(),
             vector.cardinality)
            for adv_id, vector in profile.items()
        ),
    )


def differing_records(
    produced: List[SubscriptionRecord], expected: List[SubscriptionRecord]
) -> List[str]:
    """The sub IDs (or a length note) where ``produced`` is not ``expected``."""
    differing = [
        want.sub_id
        for got, want in zip(produced, expected)
        if record_facts(got) != record_facts(want)
    ]
    if len(produced) != len(expected):
        differing.append(f"{len(produced)} records, expected {len(expected)}")
    return differing


def main() -> int:
    from repro.workloads.offline import offline_gather
    from repro.workloads.scenarios import cluster_heterogeneous, cluster_homogeneous

    seed = 2011
    cases = {
        "cluster_homogeneous(200, scale=1.0)":
            cluster_homogeneous(200, scale=1.0),
        "cluster_homogeneous(100, scale=0.6, profile_capacity=1280)":
            cluster_homogeneous(100, scale=0.6, profile_capacity=1280),
        "cluster_heterogeneous(200, scale=0.5)":
            cluster_heterogeneous(200, scale=0.5),
    }
    failed = False
    for name, scenario in cases.items():
        gathered = offline_gather(scenario, seed=seed)
        expected = list(iter_oracle_records(scenario, seed=seed,
                                            directory=gathered.directory))
        differing = differing_records(gathered.records, expected)
        failed = failed or bool(differing)
        print(f"{name}, seed {seed}: {len(expected)} records, "
              f"{len(differing)} differ {differing[:5]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
