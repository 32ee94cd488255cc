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
from bisect import bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.capacity import (
    AllocationResult,
    BrokerSpec,
    packed_unit,
    sorted_broker_pool,
)
from repro.core.fbf import (
    PackedPool,
    UnitRun,
    first_fit,
    first_fit_runs,
    is_twin,
    pool_columns,
    rate_never_refuses,
    unit_runs,
)
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


class StandingOrder:
    """A packed pool in first-fit-decreasing order, held as runs of twins.

    CRAM keeps one between its BIN PACKING passes instead of
    re-flattening and re-sorting the pool per probe.  ``keys[i]`` is the
    ``binpack_key`` the first member of ``runs[i]`` had when the run was
    created.  Members only ever leave a run or join it at its end, so
    ``keys[i] <= unit.binpack_key < keys[i + 1]`` holds for every member
    of run ``i`` for the run's whole life and a bisect over ``keys``
    finds any unit's run.  Orders are never mutated: a probe derives a
    throw-away successor, a commit adopts it.

    A merge keeps the pool's summed bandwidth (up to float rounding) and
    its subscription count, so the order carries the first from build
    to build and the verdict of :func:`rate_never_refuses` on the
    second: together they let :meth:`first_fit` stop a pass early.
    """

    __slots__ = ("runs", "keys", "size", "pool", "kernel", "bandwidth", "cuttable")

    def __init__(
        self,
        runs: List[UnitRun],
        keys: List[Tuple[float, int]],
        size: int,
        pool: PackedPool,
        kernel: ClosenessKernel,
        bandwidth: float,
        cuttable: bool,
    ):
        self.runs = runs
        self.keys = keys
        self.size = size  # units in the order (the obs span reports it)
        self.pool = pool  # the brokers it is first-fitted onto, sorted
        self.kernel = kernel  # packed every run
        self.bandwidth = bandwidth  # summed delivery bandwidth of the units
        self.cuttable = cuttable  # whether a pass may stop early

    @classmethod
    def build(
        cls,
        units: Sequence[AllocationUnit],
        pool: Sequence[BrokerSpec],
        kernel: ClosenessKernel,
    ) -> "StandingOrder":
        """The order of ``units``."""
        runs = unit_runs(decreasing_bandwidth(units), kernel)
        keys = [run[3][0].binpack_key for run in runs]
        packed_pool = pool_columns(sorted_broker_pool(pool))
        subscriptions = sum(unit.subscription_count for unit in units)
        return cls(
            runs, keys, len(units), packed_pool, kernel,
            bandwidth=sum(unit.delivery_bandwidth for unit in units),
            cuttable=rate_never_refuses(packed_pool, kernel, subscriptions),
        )

    def first_fit(self, stop_above: Optional[int] = None) -> AllocationResult:
        """BIN PACKING of the order's units onto its pool.

        With ``stop_above``, a pass that has proved it succeeds with more
        brokers than that may return a :class:`CutResult` instead, and
        one that has proved its exact count, at most that, a
        :class:`SettledResult` (see :func:`first_fit_runs`); on a pool
        where the matching-rate ceiling could refuse a unit it always
        runs out.

        Opens the span :meth:`BinPackingAllocator.allocate` opens, so a
        trace cannot tell which of the two ran a pass.
        """
        with obs.span("binpacking.first_fit", units=self.size):
            return first_fit_runs(
                self.runs, self.pool, self.kernel,
                stop_above if self.cuttable else None, self.bandwidth,
            )

    def after_merge(
        self, merge_units: Sequence[AllocationUnit], merged: AllocationUnit
    ) -> "StandingOrder":
        """The order once ``merge_units`` (two or more) fuse into ``merged``.

        ``merged`` is newer than every pool unit, so its ``unit_id``
        puts it behind all units of equal bandwidth: it lands between
        two runs, never inside one.
        """
        packed = packed_unit(merged, self.kernel)
        runs = list(self.runs)
        keys = list(self.keys)
        gone = {unit.unit_id for unit in merge_units}
        touched = {bisect_right(keys, unit.binpack_key) - 1 for unit in merge_units}
        for index in sorted(touched, reverse=True):  # deletions keep lower indexes valid
            survivors = [unit for unit in runs[index][3] if unit.unit_id not in gone]
            if survivors:
                runs[index] = runs[index][:3] + (survivors,)
            else:
                del runs[index], keys[index]
        position = bisect_right(keys, merged.binpack_key)
        if position and is_twin(runs[position - 1], merged, packed):
            previous = runs[position - 1]
            runs[position - 1] = previous[:3] + (previous[3] + [merged],)
        else:
            runs.insert(
                position,
                (merged.delivery_bandwidth, merged.subscription_count, packed, [merged]),
            )
            keys.insert(position, merged.binpack_key)
        size = self.size - len(merge_units) + 1
        return StandingOrder(
            runs, keys, size, self.pool, self.kernel, self.bandwidth, self.cuttable
        )


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
