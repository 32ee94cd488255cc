"""Allocation units: what Phase 2 actually places onto brokers.

An :class:`AllocationUnit` is a set of subscriptions that must live on
the same broker.  Initially every subscription is its own unit; CRAM
merges units into clusters; Phase 3 wraps each allocated broker into a
*pseudo*-unit (``kind == 'broker'``) whose bandwidth requirement is the
single inter-broker stream feeding that child broker.

Unit semantics (DESIGN.md §5):

* profile — OR of the member profiles (Figure 1 of the paper);
* delivery bandwidth — **sum** of member delivery bandwidths for
  subscription units (every subscriber still receives its own copy),
  but the **union-stream** bandwidth for broker pseudo-units (one copy
  per tree edge);
* input requirement — the union rate, derived from the profile by the
  broker bin, which is what makes clustering profitable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only (kernel imports nothing here)
    from repro.core.kernel import ClosenessKernel, PackedProfile

# Canonical import point for the float tolerance helpers mandated by
# reprolint's float-equality rule (implementation lives one layer down
# in repro.core.floats to stay import-cycle-free).
from repro.core.floats import (
    EPSILON,
    approx_eq,
    approx_ge,
    approx_le,
    approx_zero,
)
from repro.core.profiles import (
    PublisherDirectory,
    SubscriptionProfile,
    merge_profiles,
)

__all__ = [
    "EPSILON",
    "approx_eq",
    "approx_ge",
    "approx_le",
    "approx_zero",
    "SubscriptionRecord",
    "AllocationUnit",
    "units_from_records",
]

_unit_ids = itertools.count()


@dataclass(frozen=True)
class SubscriptionRecord:
    """One concrete subscription as reported in a BIA message.

    Attributes
    ----------
    sub_id:
        Globally unique subscription identifier.
    subscriber_id:
        The client owning the subscription (used when migrating).
    profile:
        The bit-vector profile collected by the subscriber's CBC.
    home_broker:
        Broker the subscriber was attached to when profiled.
    """

    sub_id: str
    subscriber_id: str
    profile: SubscriptionProfile
    home_broker: Optional[str] = None


class AllocationUnit:
    """An atomically-placed set of subscriptions (or a child broker)."""

    __slots__ = (
        "unit_id",
        "members",
        "profile",
        "delivery_bandwidth",
        "delivery_rate",
        "subscription_count",
        "kind",
        "child_broker_ids",
        "pack_hint",
        "binpack_key",
        "lightest_key",
    )

    def __init__(
        self,
        members: Sequence[SubscriptionRecord],
        profile: SubscriptionProfile,
        delivery_bandwidth: float,
        delivery_rate: float,
        subscription_count: int,
        kind: str = "subscription",
        child_broker_ids: Tuple[str, ...] = (),
    ):
        self.unit_id = next(_unit_ids)
        self.members: Tuple[SubscriptionRecord, ...] = tuple(members)
        self.profile = profile
        self.delivery_bandwidth = delivery_bandwidth
        self.delivery_rate = delivery_rate
        self.subscription_count = subscription_count
        self.kind = kind
        self.child_broker_ids = tuple(child_broker_ids)
        #: ``(kernel, PackedProfile)`` cached by the broker bins so the
        #: many feasibility probes of one CRAM run skip the kernel's
        #: pack-cache lookup; invalid the moment a different kernel
        #: (i.e. a different allocation run) shows up.
        self.pack_hint: Optional[Tuple["ClosenessKernel", "PackedProfile"]] = None
        #: Precomputed first-fit-decreasing sort key (``delivery_bandwidth``
        #: is fixed at construction): BIN PACKING sorts on it and CRAM's
        #: standing order bisects on it.
        self.binpack_key: Tuple[float, int] = (-delivery_bandwidth, self.unit_id)
        #: The same idea for the opposite order: a GIF sorts its units
        #: lightest first on every clustering attempt.
        self.lightest_key: Tuple[float, int] = (delivery_bandwidth, self.unit_id)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def for_subscription(
        cls, record: SubscriptionRecord, directory: PublisherDirectory
    ) -> "AllocationUnit":
        """A singleton unit for one subscription."""
        return cls(
            members=(record,),
            profile=record.profile,
            delivery_bandwidth=record.profile.estimated_bandwidth(directory),
            delivery_rate=record.profile.estimated_rate(directory),
            subscription_count=1,
        )

    @classmethod
    def for_child_broker(
        cls,
        broker_id: str,
        served_units: Iterable["AllocationUnit"],
        directory: PublisherDirectory,
    ) -> "AllocationUnit":
        """Phase-3 pseudo-unit standing in for an allocated broker.

        The profile is the OR of everything the child broker serves;
        the bandwidth requirement is the *union stream* (one copy of
        each needed publication flows down the tree edge), not the sum
        of the child's subscriber deliveries.
        """
        profile = merge_profiles(unit.profile for unit in served_units)
        return cls(
            members=(),
            profile=profile,
            delivery_bandwidth=profile.estimated_bandwidth(directory),
            delivery_rate=profile.estimated_rate(directory),
            subscription_count=1,
            kind="broker",
            child_broker_ids=(broker_id,),
        )

    @classmethod
    def merged(
        cls,
        units: Sequence["AllocationUnit"],
        directory: PublisherDirectory,
        kernel: "ClosenessKernel",
    ) -> "AllocationUnit":
        """Cluster several units into one (CRAM's OR-merge).

        Works for subscription units (Phase 2 clustering) and for
        broker pseudo-units (Phase 3 re-invokes the allocator on the
        previous layer's brokers, so CRAM may co-locate several child
        streams on one parent).  Mixing kinds is a bug.

        Either way the merged bandwidth is the *sum* of the members':
        each subscriber still receives its own copy, and each child
        broker still gets its own downlink stream.

        The profile OR-merge happens on ``kernel``'s packed bits (one
        big-int pass); the result is bit-identical to the naive merge.
        """
        if not units:
            raise ValueError("cannot merge zero units")
        kinds = {unit.kind for unit in units}
        if len(kinds) != 1:
            raise ValueError(f"cannot merge units of mixed kinds {sorted(kinds)}")
        if len(units) == 1:
            return units[0]
        profile = kernel.merge_profiles([unit.profile for unit in units])
        members = tuple(itertools.chain.from_iterable(unit.members for unit in units))
        children = tuple(
            itertools.chain.from_iterable(unit.child_broker_ids for unit in units)
        )
        return cls(
            members=members,
            profile=profile,
            delivery_bandwidth=sum(unit.delivery_bandwidth for unit in units),
            delivery_rate=sum(unit.delivery_rate for unit in units),
            subscription_count=sum(unit.subscription_count for unit in units),
            kind=units[0].kind,
            child_broker_ids=children,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def member_ids(self) -> Tuple[str, ...]:
        return tuple(record.sub_id for record in self.members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "broker":
            return f"AllocationUnit(children={self.child_broker_ids!r}, bw={self.delivery_bandwidth:.3f})"
        return (
            f"AllocationUnit(id={self.unit_id}, subs={self.subscription_count}, "
            f"bw={self.delivery_bandwidth:.3f})"
        )


def units_from_records(
    records: Iterable[SubscriptionRecord], directory: PublisherDirectory
) -> List[AllocationUnit]:
    """One singleton unit per subscription record."""
    return [AllocationUnit.for_subscription(record, directory) for record in records]
