"""Broker capacity model and the allocation feasibility test.

Paper Section IV-A defines when a broker can accept a subscription:

    "A broker is deemed to have enough capacity to handle a subscription
    only if by accepting this subscription, its remaining available
    output bandwidth is greater than 0 and its incoming publication
    rate is less than or equal to its maximum matching rate.  The
    maximum matching rate is calculated by taking the inverse of the
    matching delay computed using the matching delay function supplied
    in the BIA message."

A :class:`BrokerBin` tracks both constraints incrementally: the used
output bandwidth is the sum of the delivery bandwidths of the allocated
units, and the incoming publication rate is the rate of the per-
publisher **union** of the allocated profiles — a broker receives each
needed publication once, no matter how many of its subscriptions want
it.  The union is what rewards co-locating similar subscriptions.  It is
held packed, one integer over a :class:`~repro.core.kernel.
ClosenessKernel`'s planes; ``tests/first_fit_oracle.py`` keeps the
per-publisher ``BitVector`` walk the packed test is exact against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.kernel import ClosenessKernel, PackedProfile
from repro.core.units import AllocationUnit, approx_le


@dataclass(frozen=True)
class MatchingDelayFunction:
    """Linear model of per-message matching delay (seconds).

    ``delay(n) = base + per_subscription * n`` where ``n`` is the number
    of subscriptions in the broker's routing table.  Brokers measure and
    report this in their BIA message.
    """

    base: float = 0.0001
    per_subscription: float = 1.0e-7

    def delay(self, subscription_count: int) -> float:
        return self.base + self.per_subscription * subscription_count

    def max_matching_rate(self, subscription_count: int) -> float:
        """Messages per second the broker can match, given ``n`` subs."""
        delay = self.delay(subscription_count)
        if delay <= 0:
            return math.inf
        return 1.0 / delay


@dataclass(frozen=True)
class BrokerSpec:
    """Static description of one broker, as reported in its BIA.

    ``total_output_bandwidth`` is in kB/s.  Brokers sort by it because,
    per the paper's experience with PADRES, the bottleneck of a broker
    is the forwarding of messages (network I/O), not the processing.
    """

    broker_id: str
    total_output_bandwidth: float
    delay_function: MatchingDelayFunction = field(default_factory=MatchingDelayFunction)
    url: str = ""

    @property
    def capacity_key(self) -> Tuple[float, str]:
        """Deterministic 'most resourceful first' sort key."""
        return (-self.total_output_bandwidth, self.broker_id)


def packed_unit(unit: AllocationUnit, kernel: ClosenessKernel) -> PackedProfile:
    """The unit's profile packed by ``kernel``.

    Cached on the unit itself, keyed by kernel identity, so the many
    feasibility probes of one CRAM run skip the kernel's pack cache.
    """
    hint = unit.pack_hint
    if hint is not None and hint[0] is kernel:
        return hint[1]
    packed = kernel.pack(unit.profile)
    unit.pack_hint = (kernel, packed)
    return packed


class BrokerBin:
    """A broker being filled during an allocation run.

    The per-publisher union is one packed integer over ``kernel``'s
    planes; every unit the bin is offered must fit them.
    """

    __slots__ = (
        "spec",
        "units",
        "used_bandwidth",
        "subscription_count",
        "input_rate",
        "_kernel",
        "_packed_bits",
    )

    def __init__(self, spec: BrokerSpec, kernel: ClosenessKernel):
        self.spec = spec
        self.units: List[AllocationUnit] = []
        self.used_bandwidth = 0.0
        self.subscription_count = 0
        self.input_rate = 0.0
        self._kernel = kernel
        self._packed_bits = 0

    @classmethod
    def from_packed_state(
        cls,
        spec: BrokerSpec,
        kernel: ClosenessKernel,
        units: List[AllocationUnit],
        used_bandwidth: float,
        subscription_count: int,
        input_rate: float,
        packed_bits: int,
    ) -> "BrokerBin":
        """Materialize a bin from the flat packed first-fit loop's state.

        The bin keeps accepting units of the same pool exactly as one
        filled by :meth:`add` alone would.
        """
        bin_ = cls(spec, kernel)
        bin_.units = units
        bin_.used_bandwidth = used_bandwidth
        bin_.subscription_count = subscription_count
        bin_.input_rate = input_rate
        bin_._packed_bits = packed_bits
        return bin_

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def remaining_bandwidth(self) -> float:
        return self.spec.total_output_bandwidth - self.used_bandwidth

    @property
    def utilization(self) -> float:
        """Output-bandwidth utilization in [0, 1]."""
        if self.spec.total_output_bandwidth <= 0:
            return 1.0 if self.used_bandwidth > 0 else 0.0
        return min(1.0, self.used_bandwidth / self.spec.total_output_bandwidth)

    def is_empty(self) -> bool:
        return not self.units

    # ------------------------------------------------------------------
    # Feasibility and mutation
    # ------------------------------------------------------------------
    def can_accept(self, unit: AllocationUnit) -> bool:
        """The paper's two-part feasibility test."""
        if not approx_le(
            self.used_bandwidth + unit.delivery_bandwidth,
            self.spec.total_output_bandwidth,
        ):
            return False
        subscription_count = self.subscription_count + unit.subscription_count
        # Inlined ``delay_function.max_matching_rate`` (same arithmetic,
        # same floats): the two-call chain showed up in CRAM profiles.
        function = self.spec.delay_function
        delay = function.base + function.per_subscription * subscription_count
        max_rate = math.inf if delay <= 0 else 1.0 / delay
        # Only the publications *not already flowing* to the broker add
        # input load: the per-publisher union captures that.
        increase = packed_unit(unit, self._kernel).rate_increase(self._packed_bits)
        return approx_le(self.input_rate + increase, max_rate)

    def add(self, unit: AllocationUnit) -> None:
        """Place ``unit`` on this broker (caller checked feasibility)."""
        packed = packed_unit(unit, self._kernel)
        self.input_rate += packed.rate_increase(self._packed_bits)
        self._packed_bits |= packed.bits
        self.units.append(unit)
        self.used_bandwidth += unit.delivery_bandwidth
        self.subscription_count += unit.subscription_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BrokerBin({self.spec.broker_id!r}, units={len(self.units)}, "
            f"bw={self.used_bandwidth:.2f}/{self.spec.total_output_bandwidth:.2f}, "
            f"in={self.input_rate:.2f} msg/s)"
        )


class AllocationResult:
    """Outcome of one allocation run (Phase 2 or one Phase-3 layer)."""

    def __init__(
        self,
        bins: Sequence[BrokerBin],
        success: bool,
        failed_unit: Optional[AllocationUnit] = None,
    ):
        self._bins: Optional[List[BrokerBin]] = [
            bin_ for bin_ in bins if not bin_.is_empty()
        ]
        self._build: Optional[Callable[[], List[BrokerBin]]] = None
        #: Number of brokers actually allocated (non-empty bins).
        self.broker_count = len(self._bins)
        self.success = success
        self.failed_unit = failed_unit

    @classmethod
    def deferred(
        cls,
        build: Callable[[], List[BrokerBin]],
        broker_count: int,
        success: bool,
        failed_unit: Optional[AllocationUnit] = None,
    ) -> "AllocationResult":
        """A result whose bins ``build()`` makes when :attr:`bins` is first
        read: the ``broker_count`` non-empty bins, in pool order."""
        result = cls((), success, failed_unit)
        result._bins = None
        result._build = build
        result.broker_count = broker_count
        return result

    @property
    def bins(self) -> List[BrokerBin]:
        """The non-empty bins, most resourceful broker first."""
        if self._bins is None:
            assert self._build is not None
            self._bins = self._build()
            self._build = None
        return self._bins

    @property
    def broker_ids(self) -> List[str]:
        return [bin_.spec.broker_id for bin_ in self.bins]

    def assignment(self) -> Dict[str, List[AllocationUnit]]:
        """broker_id → allocated units."""
        return {bin_.spec.broker_id: list(bin_.units) for bin_ in self.bins}

    def subscription_placement(self) -> Dict[str, str]:
        """sub_id → broker_id for every member subscription."""
        placement: Dict[str, str] = {}
        for bin_ in self.bins:
            for unit in bin_.units:
                for record in unit.members:
                    placement[record.sub_id] = bin_.spec.broker_id
        return placement

    def total_subscriptions(self) -> int:
        return sum(bin_.subscription_count for bin_ in self.bins)

    def mean_utilization(self) -> float:
        if not self.bins:
            return 0.0
        return sum(bin_.utilization for bin_ in self.bins) / len(self.bins)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.success else "FAILED"
        return f"AllocationResult({status}, brokers={self.broker_count})"


class CutResult(AllocationResult):
    """A first-fit pass that stopped once it had proved the pool fits on
    more than its ``stop_above`` brokers (:func:`repro.core.fbf.first_fit_runs`).

    ``success`` is true.  ``broker_count`` is the number of brokers open
    when the pass stopped: a floor of the full pass's count, already
    above ``stop_above``, good for that comparison and nothing else.
    There are no bins, so reading them is an error.
    """

    def __init__(self, opened: int):
        super().__init__((), success=True)
        self.broker_count = opened

    @property
    def bins(self) -> List[BrokerBin]:
        raise RuntimeError("a cut first-fit pass has no bins")


class SettledResult(AllocationResult):
    """A first-fit pass that stopped once bounds had proved its exact
    broker count, at most its ``stop_above`` (:func:`repro.core.fbf.first_fit_runs`).

    ``success`` is true and ``broker_count`` is the full pass's.  The
    bins are the full pass's too: the first read runs the same
    deterministic pass out with no bound.
    """


def sorted_broker_pool(pool: Iterable[BrokerSpec]) -> List[BrokerSpec]:
    """Brokers in descending order of resource capacity (paper §IV-A)."""
    return sorted(pool, key=lambda spec: spec.capacity_key)
