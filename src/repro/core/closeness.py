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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.profiles import SubscriptionProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from repro.core.kernel import ClosenessKernel

#: Cap applied to the XOR metric when |S1 xor S2| == 0 (paper: "a capped
#: maximum value to handle division by zero").  Any value larger than 1
#: works since 1/|xor| <= 1 otherwise; we keep a wide margin so equal
#: profiles always sort first.
XOR_MAX = 1.0e9

MetricFunction = Callable[[SubscriptionProfile, SubscriptionProfile], float]


def intersect_metric(first: SubscriptionProfile, second: SubscriptionProfile) -> float:
    """Cardinality of the intersection."""
    return float(first.intersection_cardinality(second))


def xor_metric(first: SubscriptionProfile, second: SubscriptionProfile) -> float:
    """Inverse of the XOR cardinality, capped at :data:`XOR_MAX`."""
    xor = first.xor_cardinality(second)
    if xor == 0:
        return XOR_MAX
    return 1.0 / xor


def ios_metric(first: SubscriptionProfile, second: SubscriptionProfile) -> float:
    """Intersection squared over the sum of cardinalities."""
    intersect = first.intersection_cardinality(second)
    if intersect == 0:
        return 0.0
    denominator = first.cardinality + second.cardinality
    return intersect * intersect / denominator


def iou_metric(first: SubscriptionProfile, second: SubscriptionProfile) -> float:
    """Intersection squared over the cardinality of the union."""
    intersect = first.intersection_cardinality(second)
    if intersect == 0:
        return 0.0
    union = first.union_cardinality(second)
    return intersect * intersect / union


class ClosenessMetric:
    """A named closeness metric plus its search properties.

    ``prunable`` means the metric is exactly zero for profiles with an
    empty relationship, which lets the poset search skip entire
    subtrees (paper optimization 2).  The XOR metric is not prunable —
    the paper measures it at ≥75% longer computation time because of
    this — and our benchmark harness reproduces that comparison.
    """

    def __init__(self, name: str, function: MetricFunction, prunable: bool):
        self.name = name
        self._function = function
        self.prunable = prunable
        self.evaluations = 0
        self._kernel: Optional["ClosenessKernel"] = None

    def __call__(self, first: SubscriptionProfile, second: SubscriptionProfile) -> float:
        self.evaluations += 1
        kernel = self._kernel
        if kernel is not None:
            return kernel.closeness(self.name, first, second)
        return self._function(first, second)

    # ------------------------------------------------------------------
    # Fused-kernel acceleration (drop-in: values and counters unchanged)
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> Optional["ClosenessKernel"]:
        return self._kernel

    def attach_kernel(self, kernel: Optional["ClosenessKernel"]) -> None:
        """Route evaluations through a fused bit-plane kernel.

        The kernel produces bit-for-bit identical values, so attaching
        one only changes speed; it must have been built over the pool
        the evaluated profiles come from.  Pass ``None`` to detach.
        """
        self._kernel = kernel

    def closeness_row(
        self, first: SubscriptionProfile, others: Sequence[SubscriptionProfile]
    ) -> List[float]:
        """Batched one-vs-all closeness (CRAM partner search, pairwise).

        Counts one evaluation per pair, exactly like ``len(others)``
        individual calls.
        """
        self.evaluations += len(others)
        kernel = self._kernel
        if kernel is not None:
            return kernel.closeness_row(self.name, first, others)
        function = self._function
        return [function(first, other) for other in others]

    def reset_counter(self) -> None:
        """Zero the evaluation counter (used by the pruning benchmark)."""
        self.evaluations = 0

    def fresh(self) -> "ClosenessMetric":
        """A new instance with its own evaluation counter."""
        return ClosenessMetric(self.name, self._function, self.prunable)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClosenessMetric({self.name!r}, prunable={self.prunable})"


def make_metric(name: str) -> ClosenessMetric:
    """Build a fresh metric instance by name.

    Valid names: ``intersect``, ``xor``, ``ios``, ``iou``
    (case-insensitive).
    """
    try:
        function, prunable = _METRICS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown closeness metric {name!r}; expected one of {sorted(_METRICS)}"
        ) from None
    return ClosenessMetric(name.lower(), function, prunable)


_METRICS: Dict[str, Tuple[MetricFunction, bool]] = {
    "intersect": (intersect_metric, True),
    "xor": (xor_metric, False),
    "ios": (ios_metric, True),
    "iou": (iou_metric, True),
}

METRIC_NAMES = tuple(sorted(_METRICS))
