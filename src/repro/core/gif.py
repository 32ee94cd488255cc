"""Groups of Identical Filters — CRAM optimization 1 (paper §IV-C.1).

Subscriptions whose bit-vector profiles are identical are
interchangeable for allocation purposes, so CRAM collapses them into a
single *GIF* and clusters GIF pairs instead of subscription pairs.  In
the paper's 8,000-subscription experiments this cut the working set S
by up to 61%; the ``tab-gif`` benchmark measures the same ratio on our
workload.

A GIF owns a list of allocation *units*.  Initially each unit is one
subscription; within-GIF clustering (the "GIF paired with itself" case)
replaces several units with one merged unit, and cross-GIF clustering
moves units out into a new GIF keyed by the merged profile.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.profiles import SubscriptionProfile
from repro.core.units import AllocationUnit

_gif_ids = itertools.count()

#: ``(delivery_bandwidth, unit_id)``, precomputed on the unit.
_LIGHTEST_KEY = operator.attrgetter("lightest_key")


class Gif:
    """A group of subscriptions sharing one bit-vector profile."""

    __slots__ = ("gif_id", "profile", "units", "_lightest")

    def __init__(self, profile: SubscriptionProfile, units: Iterable[AllocationUnit]):
        self.gif_id = next(_gif_ids)
        self.profile = profile
        self.units: List[AllocationUnit] = list(units)
        self._lightest: Optional[AllocationUnit] = None

    # ------------------------------------------------------------------
    # Unit bookkeeping
    # ------------------------------------------------------------------
    @property
    def unit_count(self) -> int:
        return len(self.units)

    @property
    def subscription_count(self) -> int:
        return sum(unit.subscription_count for unit in self.units)

    @property
    def total_bandwidth(self) -> float:
        return sum(unit.delivery_bandwidth for unit in self.units)

    def is_empty(self) -> bool:
        return not self.units

    def units_ascending_bandwidth(self) -> List[AllocationUnit]:
        """Units ordered lightest first (deterministic tie-break)."""
        return sorted(self.units, key=_LIGHTEST_KEY)

    def lightest_unit(self) -> AllocationUnit:
        """The least-loaded unit — the one the paper clusters first.

        Cached until the unit list changes; CRAM asks for it on every
        clustering attempt touching the GIF.
        """
        if not self.units:
            raise ValueError(f"GIF {self.gif_id} has no units")
        if self._lightest is None:
            self._lightest = min(self.units, key=_LIGHTEST_KEY)
        return self._lightest

    def remove_units(self, units: Sequence[AllocationUnit]) -> None:
        doomed = {unit.unit_id for unit in units}
        self.units = [unit for unit in self.units if unit.unit_id not in doomed]
        self._lightest = None

    def add_unit(self, unit: AllocationUnit) -> None:
        self.units.append(unit)
        self._lightest = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Gif(id={self.gif_id}, units={self.unit_count}, "
            f"subs={self.subscription_count}, card={self.profile.cardinality})"
        )


def build_gifs(units: Iterable[AllocationUnit]) -> List[Gif]:
    """Group units by identical bit-vector profiles.

    Returns one GIF per distinct profile pattern, preserving the first-
    seen order so runs are deterministic.
    """
    groups: Dict[Tuple, List[AllocationUnit]] = {}
    profiles: Dict[Tuple, SubscriptionProfile] = {}
    for unit in units:
        key = unit.profile.signature()
        if key not in groups:
            groups[key] = []
            profiles[key] = unit.profile
        groups[key].append(unit)
    return [Gif(profiles[key], members) for key, members in groups.items()]


def gif_reduction_ratio(subscription_count: int, gif_count: int) -> float:
    """Fraction of the pool removed by GIF grouping (paper: up to 0.61)."""
    if subscription_count == 0:
        return 0.0
    return 1.0 - gif_count / subscription_count
