"""BIN PACKING subscription allocation (paper §IV-B).

Identical to FBF except that subscriptions are sorted in descending
order of bandwidth requirement before placement — classic first-fit
decreasing.  Complexity O(S log S).  The paper observes that BIN
PACKING consistently allocates one fewer broker than FBF, in line with
the theory of first-fit-decreasing bin packing; our benchmark harness
checks the same ordering.
"""

from __future__ import annotations

import operator
from typing import Iterable, List, Sequence

from repro.core.capacity import AllocationResult, BrokerSpec
from repro.core.fbf import PackedPool, UnitRun, first_fit, first_fit_runs
from repro.core.kernel import ClosenessKernel
from repro.core.profiles import PublisherDirectory
from repro.core.units import AllocationUnit
from repro.obs import recorder as obs


def decreasing_bandwidth(units: Sequence[AllocationUnit]) -> List[AllocationUnit]:
    """Units sorted by descending bandwidth requirement.

    Ties break on unit ID so runs are deterministic.  The key is
    precomputed on the unit (``binpack_key``): an attrgetter over a
    ready tuple beats a per-element lambda, and CRAM's standing order
    bisects on the same key instead of re-sorting per probe.
    """
    return sorted(units, key=operator.attrgetter("binpack_key"))


def first_fit_decreasing_runs(
    runs: Sequence[UnitRun],
    size: int,
    pool: PackedPool,
    directory: PublisherDirectory,
    kernel: ClosenessKernel,
) -> AllocationResult:
    """BIN PACKING of a ready order: ``size`` units in decreasing
    bandwidth, held as ``runs`` of twins (CRAM's standing order).

    Opens the span :meth:`BinPackingAllocator.allocate` opens, so a
    trace cannot tell which of the two ran a pass.
    """
    with obs.span("binpacking.first_fit", units=size):
        return first_fit_runs(runs, pool, directory, kernel)


class BinPackingAllocator:
    """First-fit decreasing over descending-capacity brokers."""

    name = "binpacking"

    def allocate(
        self,
        units: Sequence[AllocationUnit],
        pool: Iterable[BrokerSpec],
        directory: PublisherDirectory,
    ) -> AllocationResult:
        with obs.span("binpacking.first_fit", units=len(units)):
            return first_fit(decreasing_bandwidth(units), pool, directory)
