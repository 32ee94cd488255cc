"""Offline profile generation: Phase-1 output without running the DES.

The allocation algorithms only consume bit-vector profiles, broker
specs, and publisher profiles — everything CROC's Phase 1 gathers.
For algorithm-only studies (computation-time benchmarks, GIF/poset
statistics, CRAM ablations) simulating the whole overlay is wasted
work: this module replays each symbol's quote window against that
symbol's subscriptions directly and synthesizes the exact profiles the
CBCs would have produced.

Matching is evaluated per distinct predicate, not per (subscription,
publication) pair.  Each distinct compiled predicate
(:meth:`~repro.pubsub.predicate.Predicate.compiled`) of a symbol's
subscriptions gets one int *mask* over the window: bit ``message_id``
is set when that publication carries the attribute and the operator
test passes.  A subscription's matched set is the AND of its
predicates' masks (the whole window for one with no predicates), and
its bit vector is built in one step from that set.  Subscriptions that
share a predicate — ``[class,=,'STOCK']`` and ``[symbol,=,S]`` are in
all of them, and thresholds are drawn from a few buckets — share its
evaluation.

A mask for ``<``, ``<=``, ``>`` or ``>=`` is read off a *column*,
built once per symbol and attribute by :func:`_column`: the window's
numeric values in sorted order with prefix-OR masks over their message
IDs.  A threshold test is one bisect and one prefix read (``<`` takes
the prefix before ``bisect_left``, ``<=`` before ``bisect_right``,
``>`` and ``>=`` the complement of those within the numeric values).
This is the operators' own semantics, not an approximation of it:

* the sorted list holds exactly the values a numeric operator can
  match — ints and floats, no bool, no string — so everything else
  stays clear, as the operator returns ``False`` for it;
* int and float compare exactly in Python, in the sort, in the bisect
  and in the operator alike, and over those values (NaN excluded) ``<``
  is a total preorder, so the values below a threshold are exactly a
  prefix of the sorted list;
* NaN compares false with everything, so it is kept out of the list
  and matches nothing, as in the operator; a NaN *threshold* would
  defeat the bisect, so it is evaluated per quote.

``=``, ``<>``, the string operators and ``isPresent`` are evaluated per
quote (:func:`_predicate_mask`), as is any threshold that is not a
number.  The generator's ``=`` predicates are ``[class,=,'STOCK']`` and
``[symbol,=,S]``, one per attribute and symbol, so the ``masks`` cache
already evaluates each of them once.

This is exact against :func:`~repro.pubsub.matching.matches`, although
every predicate is evaluated on every publication where ``matches``
stops at the first failing one: the operator tests are pure functions
and never raise on the numbers and strings the quote feed and the
subscription generator produce, so skipping an evaluation can change
neither a result nor any state.

The result is byte-for-byte the same *kind* of input CROC sees —
:class:`~repro.core.croc.GatherResult` — so anything accepting gathered
state runs unchanged on it.

Record production is streaming: :func:`iter_offline_records` yields one
:class:`~repro.core.units.SubscriptionRecord` at a time, holding only
one symbol's publication window and predicate masks in memory, so a
consumer can walk an arbitrarily large workload without ever
materializing every profile object.  :func:`offline_gather` is the
eager wrapper.  Laziness cannot perturb the RNG: every stream is a
*keyed* child (``rng.child("stock", symbol)`` inside the quote feed,
``rng.child("subs", symbol)`` inside the subscription generator), so
draw order across symbols is immaterial.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.bitvector import BitVector
from repro.core.croc import GatherResult
from repro.core.profiles import PublisherProfile, SubscriptionProfile
from repro.core.units import SubscriptionRecord
from repro.pubsub.predicate import Operator, Test, Value
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


def _predicate_mask(
    quotes: List[Dict[str, Any]], compiled: Tuple[str, Test, Value]
) -> int:
    """Bit ``i + 1`` set where ``quotes[i]`` satisfies the predicate.

    ``quotes[i]`` is the publication with message ID ``i + 1``, so the
    mask is indexed by message ID; bit 0 (no such ID) stays clear.
    """
    attribute, test, wanted = compiled
    digits = "".join(
        "1" if attribute in quote and test(quote[attribute], wanted) else "0"
        for quote in reversed(quotes)
    )
    return int(digits + "0", 2)


#: The threshold tests a column answers: the bisect that finds the
#: first value failing ``<`` (or ``<=``), and whether the mask is the
#: prefix before it or the numeric values from it on.
_BISECTS = {
    Operator.LT.test: (bisect_left, False),
    Operator.LE.test: (bisect_right, False),
    Operator.GT.test: (bisect_right, True),
    Operator.GE.test: (bisect_left, True),
}


def _column(
    quotes: List[Dict[str, Any]], attribute: str
) -> Tuple[List[Any], List[int]]:
    """One attribute's numeric values over the window, for threshold tests.

    Returns ``(values, prefixes)``: the int and float values (no bool,
    no NaN) of the quotes carrying ``attribute``, sorted, and
    ``prefixes[k]`` the mask of the message IDs of ``values[:k]`` (so
    ``prefixes[-1]`` is every numeric value's).
    """
    numeric = sorted(
        (
            (value, message_id)
            for message_id, value in enumerate(
                (quote.get(attribute) for quote in quotes), 1)
            if isinstance(value, (int, float)) and not isinstance(value, bool)
            # NaN equals nothing, itself included, and matches nothing.
            and value == value
        ),
        key=operator.itemgetter(0),
    )
    prefixes = [0]
    for _value, message_id in numeric:
        prefixes.append(prefixes[-1] | (1 << message_id))
    return [value for value, _message_id in numeric], prefixes


def _mask(
    quotes: List[Dict[str, Any]],
    columns: Dict[str, Tuple[List[Any], List[int]]],
    compiled: Tuple[str, Test, Value],
) -> int:
    """The predicate's mask: read off its attribute's column where that
    is exact, else evaluated per quote by :func:`_predicate_mask`."""
    attribute, test, wanted = compiled
    if not (
        test in _BISECTS
        and isinstance(wanted, (int, float))
        and wanted == wanted  # a NaN threshold defeats the bisect
    ):
        return _predicate_mask(quotes, compiled)
    column = columns.get(attribute)
    if column is None:
        column = columns[attribute] = _column(quotes, attribute)
    values, prefixes = column
    search, above = _BISECTS[test]
    below = prefixes[search(values, wanted)]
    return prefixes[-1] ^ below if above else below


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
    window and predicate masks are resident.

    A matched set becomes a vector in one step: recording its IDs in
    ascending order would slide the window to start at
    ``max(0, newest - capacity + 1)`` and keep every ID from there on,
    which is what setting the newest ID and loading the shifted mask
    does.  A subscription that matched nothing opens no vector.
    """
    window = window if window is not None else scenario.profile_capacity
    if directory is None:
        directory = offline_directory(scenario, window)
    if len(scenario.symbols) != len(scenario.subscription_counts):
        raise ValueError("symbols and subscription counts must align")
    rng = SeededRng(seed, "offline", scenario.name)
    capacity = scenario.profile_capacity
    whole_window = ((1 << window) - 1) << 1  # message IDs 1..window
    for symbol, count in zip(scenario.symbols, scenario.subscription_counts):
        adv_id = f"adv-{symbol}"
        feed = StockQuoteFeed(symbol, rng)
        price_hint = feed.price  # before the window advances the feed
        quotes = [next(feed) for _ in range(window)]
        masks: Dict[Tuple[str, Test, Value], int] = {}
        columns: Dict[str, Tuple[List[Any], List[int]]] = {}
        subscriptions = iter_subscriptions_for_symbol(
            symbol,
            count,
            rng,
            price_hint=price_hint,
            threshold_buckets=scenario.threshold_buckets,
        )
        for subscription in subscriptions:
            matched = whole_window
            for predicate in subscription.predicates:
                compiled = predicate.compiled()
                mask = masks.get(compiled)
                if mask is None:
                    mask = masks[compiled] = _mask(quotes, columns, compiled)
                matched &= mask
            profile = SubscriptionProfile(capacity=capacity)
            if matched:
                vector = BitVector(capacity)
                vector.set(matched.bit_length() - 1)
                vector.load_bits(matched >> vector.first_id)
                profile.adopt_vectors({adv_id: vector})
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
