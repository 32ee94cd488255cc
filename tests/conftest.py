"""Shared test fixtures and builders."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import pytest
from hypothesis import settings

from repro.core.bitvector import BitVector
from repro.core.capacity import BrokerSpec, MatchingDelayFunction
from repro.core.kernel import ClosenessKernel
from repro.core.profiles import PublisherProfile, SubscriptionProfile
from repro.core.units import AllocationUnit, SubscriptionRecord

# The suite asserts on values and counts, never on a clock: Hypothesis's
# default 200 ms per-example deadline would be the one assertion that
# depends on how loaded the box is.  ``print_blob`` makes a failure seen
# once on such a box reproducible (``@reproduce_failure``).
settings.register_profile("repro", deadline=None, print_blob=True)
settings.load_profile("repro")

# ----------------------------------------------------------------------
# Profile / unit builders used across most core tests
# ----------------------------------------------------------------------


def make_profile(
    bits_by_adv: Dict[str, Iterable[int]], capacity: int = 64
) -> SubscriptionProfile:
    """A profile with the given publication IDs set per publisher."""
    profile = SubscriptionProfile(capacity=capacity)
    for adv_id, ids in bits_by_adv.items():
        for pub_id in sorted(ids):
            profile.record(adv_id, pub_id)
    return profile


def make_directory(
    advs: Sequence[str],
    rate: float = 10.0,
    bandwidth: float = 10.0,
    last_message_id: int = 63,
) -> Dict[str, PublisherProfile]:
    """Uniform publisher directory: each adv at the same rate/bandwidth."""
    return {
        adv_id: PublisherProfile(
            adv_id=adv_id,
            publication_rate=rate,
            bandwidth=bandwidth,
            last_message_id=last_message_id,
        )
        for adv_id in advs
    }


_record_counter = [0]


def make_record(
    bits_by_adv: Dict[str, Iterable[int]],
    capacity: int = 64,
    sub_id: Optional[str] = None,
) -> SubscriptionRecord:
    _record_counter[0] += 1
    name = sub_id or f"s{_record_counter[0]}"
    return SubscriptionRecord(
        sub_id=name,
        subscriber_id=name,
        profile=make_profile(bits_by_adv, capacity=capacity),
    )


def make_unit(
    bits_by_adv: Dict[str, Iterable[int]],
    directory: Dict[str, PublisherProfile],
    capacity: int = 64,
    sub_id: Optional[str] = None,
) -> AllocationUnit:
    record = make_record(bits_by_adv, capacity=capacity, sub_id=sub_id)
    return AllocationUnit.for_subscription(record, directory)


def make_kernel(
    directory: Dict[str, PublisherProfile], units: Iterable[AllocationUnit]
) -> ClosenessKernel:
    """The kernel over ``units``' profiles, which a ``BrokerBin`` reads."""
    return ClosenessKernel.for_pool(directory, [unit.profile for unit in units])


def make_spec(
    broker_id: str,
    bandwidth: float = 100.0,
    base_delay: float = 1e-4,
    per_sub_delay: float = 1e-6,
) -> BrokerSpec:
    return BrokerSpec(
        broker_id=broker_id,
        total_output_bandwidth=bandwidth,
        delay_function=MatchingDelayFunction(base=base_delay, per_subscription=per_sub_delay),
    )


def make_pool(count: int, bandwidth: float = 100.0) -> List[BrokerSpec]:
    return [make_spec(f"B{i:02d}", bandwidth=bandwidth) for i in range(count)]


@pytest.fixture
def directory():
    """Two publishers, 10 msg/s and 10 kB/s each, window of 64."""
    return make_directory(["A", "B"])


# ----------------------------------------------------------------------
# Delivery conservation (ROADMAP items 1(3) / 2(b), first instalment)
# ----------------------------------------------------------------------


class ConservationWatch:
    """Asserts delivery conservation at every run boundary of a network.

    Over a measurement window that opened with nothing in flight, every
    copy a broker sent toward a subscriber (``BrokerCounters.deliveries``,
    counted at send, before the loss draw) has by any later run boundary
    been delivered, been dropped on that last hop, or is still in flight.
    A window that opened with a backlog also completes deliveries sent
    before it opened, so it is skipped (and counted in ``skipped``).
    """

    def __init__(self, network):
        self.network = network
        self.checked = 0
        self.skipped = 0
        self._opened_empty = network.deliveries_in_flight == 0
        run, reset_window = network.run, network.metrics.reset_window

        def watched_run(duration):
            run(duration)
            self.check()

        def watched_reset():
            reset_window()
            self._opened_empty = network.deliveries_in_flight == 0

        network.run = watched_run
        network.metrics.reset_window = watched_reset

    def check(self) -> None:
        if not self._opened_empty:
            self.skipped += 1
            return
        network, metrics = self.network, self.network.metrics
        # Not metrics.counters(): that creates entries the summary reads.
        sent = sum(counters.deliveries for counters in metrics._counters.values())
        assert sent == (metrics.delivery_count + metrics.deliveries_lost
                        + network.deliveries_in_flight), (
            f"t={network.sim.now}: {sent} sent to clients, "
            f"{metrics.delivery_count} delivered, {metrics.deliveries_lost} "
            f"dropped, {network.deliveries_in_flight} in flight")
        self.checked += 1
