"""Closeness metrics between subscription profiles (paper Section IV-C).

Four metrics measure how profitable it is to cluster two subscriptions
``S1`` and ``S2`` (bit-vector profiles):

``INTERSECT``
    ``|S1 ∩ S2|`` — rewards shared traffic but ignores the non-shared
    traffic a merge would drag along.
``XOR``
    ``1 / |S1 ⊕ S2|`` with a capped maximum to handle division by zero.
    Derived from Gryphon's metric; penalizes non-shared traffic but
    cannot distinguish empty from non-empty relationships, so it cannot
    be search-pruned and may cluster disjoint subscriptions.
``IOS``
    ``|S1 ∩ S2|² / (|S1| + |S2|)`` — intersect-over-sum.
``IOU``
    ``|S1 ∩ S2|² / |S1 ∪ S2|`` — intersect-over-union.

IOS and IOU are the paper's own metrics: they are zero exactly for
empty relationships (enabling poset pruning), account for both shared
and dragged-along traffic, and square the intersection so that
high-traffic subscriptions — whose placement matters most — cluster
first.

The arithmetic runs in one place, on packed bits:
:meth:`repro.core.kernel.ClosenessKernel.closeness`.  This module names
the metrics and counts their evaluations; ``tests/profile_oracle.py``
keeps the per-publisher formulas as the reference the kernel is
checked against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.core.profiles import SubscriptionProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from repro.core.kernel import ClosenessKernel

#: Cap applied to the XOR metric when |S1 xor S2| == 0 (paper: "a capped
#: maximum value to handle division by zero").  Any value larger than 1
#: works since 1/|xor| <= 1 otherwise; we keep a wide margin so equal
#: profiles always sort first.
XOR_MAX = 1.0e9


class ClosenessMetric:
    """A named closeness metric plus its search properties.

    ``prunable`` means the metric is exactly zero for profiles with an
    empty relationship, which lets the poset search skip entire
    subtrees (paper optimization 2).  The XOR metric is not prunable —
    the paper measures it at ≥75% longer computation time because of
    this — and our benchmark harness reproduces that comparison.

    The values come from the kernel the caller passes in
    (:meth:`~repro.core.kernel.ClosenessKernel.closeness`); the metric
    itself only names the formula and counts evaluations.
    """

    def __init__(self, name: str, prunable: bool):
        self.name = name
        self.prunable = prunable
        self.evaluations = 0

    def __call__(
        self, kernel: "ClosenessKernel", first: SubscriptionProfile, second: SubscriptionProfile
    ) -> float:
        self.evaluations += 1
        return kernel.closeness(self.name, first, second)

    def closeness_row(
        self,
        kernel: "ClosenessKernel",
        first: SubscriptionProfile,
        others: Sequence[SubscriptionProfile],
    ) -> List[float]:
        """Batched one-vs-all closeness (CRAM partner search, pairwise).

        Counts one evaluation per pair, exactly like ``len(others)``
        individual calls.
        """
        self.evaluations += len(others)
        return kernel.closeness_row(self.name, first, others)

    def reset_counter(self) -> None:
        """Zero the evaluation counter (used by the pruning benchmark)."""
        self.evaluations = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClosenessMetric({self.name!r}, prunable={self.prunable})"


def make_metric(name: str) -> ClosenessMetric:
    """Build a fresh metric instance by name.

    Valid names: ``intersect``, ``xor``, ``ios``, ``iou``
    (case-insensitive).
    """
    try:
        prunable = _PRUNABLE[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown closeness metric {name!r}; expected one of {sorted(_PRUNABLE)}"
        ) from None
    return ClosenessMetric(name.lower(), prunable)


#: Metric name -> whether it is zero exactly on empty relationships.
_PRUNABLE: Dict[str, bool] = {
    "intersect": True,
    "xor": False,
    "ios": True,
    "iou": True,
}

METRIC_NAMES = tuple(sorted(_PRUNABLE))
