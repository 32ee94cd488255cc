"""Fastest Broker First (FBF) subscription allocation (paper §IV-A).

Brokers are sorted in descending order of total available output
bandwidth (the broker bottleneck observed with PADRES is network I/O,
not processing).  Subscriptions are then drawn *in random order* from
the subscription pool and each is assigned to the most resourceful
broker that still has the capacity to handle it.  The algorithm fails
as soon as one subscription fits nowhere.

Complexity: O(S) in the number of subscriptions (the paper assumes
S >> number of brokers).

FBF, BIN PACKING and CRAM's probes share one feasibility pass,
:func:`first_fit_runs`, over profiles packed by a
:class:`~repro.core.kernel.ClosenessKernel`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.capacity import (
    AllocationResult,
    BrokerBin,
    BrokerSpec,
    CutResult,
    SettledResult,
    packed_unit,
    sorted_broker_pool,
)
from repro.core.kernel import ClosenessKernel, PackedProfile
from repro.core.profiles import PublisherDirectory
from repro.core.units import EPSILON, AllocationUnit
from repro.obs import recorder as obs
from repro.core.rng import SeededRng


#: Consecutive interchangeable units of a first-fit order: ``(delivery
#: bandwidth, subscription count, packed profile, members)``.  Members
#: agree on all three (see :func:`is_twin`), so whatever a bin answers
#: to the first it answers to every other.  Never empty.
UnitRun = Tuple[float, int, PackedProfile, List[AllocationUnit]]

#: One placement of :func:`first_fit_runs`: ``(bin index, run members,
#: first, stop)`` — ``members[first:stop]`` joined that bin.
Placement = Tuple[int, List[AllocationUnit], int, int]

#: Relative float margin of the early-stop bounds in :func:`first_fit_runs`
#: and of :func:`rate_never_refuses`.  The float sums those tests read
#: are off by far less (about ``units · 2**-53`` of the pool total).
CUT_MARGIN = 1e-9


class PackedPool(NamedTuple):
    """The descending-capacity pool as the columns the packed loop reads."""

    specs: Sequence[BrokerSpec]
    #: ``total_output_bandwidth + EPSILON`` — the tolerance test's right side.
    bandwidth_limits: List[float]
    delay_bases: List[float]
    delay_slopes: List[float]


def pool_columns(specs: Sequence[BrokerSpec]) -> PackedPool:
    """Columns of an already sorted pool (``sorted_broker_pool``)."""
    return PackedPool(
        specs,
        [spec.total_output_bandwidth + EPSILON for spec in specs],
        [spec.delay_function.base for spec in specs],
        [spec.delay_function.per_subscription for spec in specs],
    )


def is_twin(run: UnitRun, unit: AllocationUnit, packed: PackedProfile) -> bool:
    """Whether ``unit`` (packed as ``packed``) is interchangeable with ``run``.

    Equal packed bits over the same planes make every rate delta the
    same float; the bandwidth must be the same float too.  That test is
    exact on purpose: a unit 1e-10 lighter changes the float sums of
    every bin it joins and the outcome of every load test it takes, so
    a tolerance would break bit-identity.
    """
    bandwidth, subscription_count, run_packed, _ = run
    return (
        unit.delivery_bandwidth == bandwidth  # reprolint: disable=float-equality
        and unit.subscription_count == subscription_count
        and packed.bits == run_packed.bits
        and packed.planes == run_packed.planes
    )


def unit_runs(
    ordered_units: Iterable[AllocationUnit], kernel: ClosenessKernel
) -> List[UnitRun]:
    """Group an ordered unit sequence into runs of consecutive twins."""
    runs: List[UnitRun] = []
    for unit in ordered_units:
        packed = packed_unit(unit, kernel)
        if runs and is_twin(runs[-1], unit, packed):
            runs[-1][3].append(unit)
        else:
            runs.append(
                (unit.delivery_bandwidth, unit.subscription_count, packed, [unit])
            )
    return runs


def first_fit(
    ordered_units: Sequence[AllocationUnit],
    pool: Iterable[BrokerSpec],
    directory: PublisherDirectory,
) -> AllocationResult:
    """Place units, in the given order, onto the descending-capacity pool.

    Shared engine of FBF and BIN PACKING: the two differ only in how
    they order the unit sequence.  Each unit goes to the first broker
    (most resourceful first) that passes the feasibility test.  The
    units are packed over a kernel of their own profiles and placed by
    :func:`first_fit_runs`, CRAM's pass.
    """
    kernel = ClosenessKernel.for_pool(directory, [unit.profile for unit in ordered_units])
    return first_fit_runs(
        unit_runs(ordered_units, kernel), pool_columns(sorted_broker_pool(pool)), kernel
    )


def rate_never_refuses(
    pool: PackedPool, kernel: ClosenessKernel, subscriptions: int
) -> bool:
    """Whether no bin of ``pool`` can ever refuse a unit on its matching rate.

    A bin's input rate is a sum of per-plane terms ``min(1, new bits /
    window) · rate``; the new bits of one plane add up to at most its
    capacity, so no bin carries more than ``Σ rate · capacity / window``.
    No bin holds more than the pool's ``subscriptions`` either, so its
    delay never exceeds ``max(base, base + slope · subscriptions)``.
    When that rate stays below ``1 / delay`` on every broker (with
    :data:`CUT_MARGIN` to spare), the ceiling test cannot fail — the
    condition :func:`first_fit_runs` needs to stop a pass early.
    """
    rate = sum(
        plane.rate * plane.capacity / plane.window for plane in kernel.planes.values()
    ) * (1.0 + CUT_MARGIN)
    for base, slope in zip(pool.delay_bases, pool.delay_slopes):
        delay = max(base, base + slope * subscriptions)
        if delay > 0 and rate >= 1.0 / delay:
            return False
    return True


def first_fit_runs(
    runs: Sequence[UnitRun],
    pool: PackedPool,
    kernel: ClosenessKernel,
    stop_above: Optional[int] = None,
    bandwidth_total: float = 0.0,
) -> AllocationResult:
    """First fit over runs of twins and flat packed bin state.

    The first member of a run scans the bins exactly as a unit-by-unit
    loop of :meth:`BrokerBin.can_accept` would: same tolerance checks,
    same inlined delay arithmetic, same memoized packed rate deltas.
    Its twins then join the bin it landed in for as long as that bin
    takes them — the bin already holds their bits, so their rate delta
    is exactly ``0.0`` and only the bandwidth sum and the matching-rate
    ceiling (which falls as subscriptions arrive) are re-checked.  When a twin
    is turned away the scan resumes at the *next* bin, never at bin 0:
    first fit touched no earlier bin since each of them turned the
    run's first member away, so they would turn this one away too.

    The same holds from one run to the next while the bandwidth stays
    the same float: a run starts at the first bin that did *not* turn
    the previous run away on load.  The bins before it failed ``used +
    bandwidth > limit`` for a run of this streak and no run has visited
    them since, so they would fail the same comparison again (and had
    they grown, float addition is monotone: the test only gets truer).
    A bin that refused on the matching-rate ceiling is never skipped —
    the next profile may add less input rate — and a change of
    bandwidth, up or down (FBF's shuffled order shares this loop),
    sends the scan back to bin 0.

    Every accepted unit sees the float operations of the one-by-one
    loop in the same order, so the result is bit-identical to it and to
    the per-publisher ``BitVector`` walk ``tests/first_fit_oracle.py``
    keeps as this pass's oracle.

    The pass builds no :class:`BrokerBin`: it logs each placement as
    ``(bin, run members, first, stop)`` beside its flat columns, which
    answer ``success``, ``failed_unit`` and ``broker_count`` at once.
    The result makes its bins from them when ``bins`` is first read —
    CRAM's probes never read it, only the result CRAM returns does.

    **Stopping early.**  A caller that holds the pass against a broker
    count may pass it as ``stop_above``, given three preconditions: the
    runs come in non-increasing bandwidth order (first fit
    *decreasing*), ``bandwidth_total`` is their summed bandwidth, and
    :func:`rate_never_refuses` holds for the pool, so that no bin ever
    refuses on rate.  At each run boundary let ``s`` be the run's
    bandwidth (the largest left) and ``R`` the bandwidth still to
    place.  Both tests below keep :data:`CUT_MARGIN` to spare.

    *Cut.*  With ``opened > stop_above`` bins in use, ``E`` bins still
    empty and ``C`` the smallest bandwidth limit less ``EPSILON``, the
    pass returns a :class:`CutResult` once ``(E - 1) · (C - s) > R``.
    That verdict is exact: an empty bin takes any unit left and empty
    bins open in pool order; each bin opened after this point had, when
    the next one opened, refused a unit of at most ``s`` on load, so it
    holds more than ``C - s`` of ``R``.  Fewer than ``R / (C - s) + 1 <
    E`` bins open, one stays empty, and the full pass would succeed —
    with more than ``stop_above`` brokers.  Counting open bins by their
    subscriptions assumes every unit counts at least one, as every
    :class:`AllocationUnit` constructor does.

    *Settle.*  Let ``m = max(opened, ⌈total / C_max⌉)``, ``C_max`` the
    largest limit, and ``r_i`` the room left in each of the first ``m``
    bins (an empty bin's whole limit).  With ``1 <= m <= stop_above``
    and no bin at index ``m`` or later open, the pass returns a
    :class:`SettledResult` of ``m`` brokers once ``Σ_{r_i > s} (r_i - s)
    + s > R``.  That count is exact.  A later unit of size ``b <= s``
    that all ``m`` bins refuse needs ``Σ max(0, r_i - b) <= R - b`` (each
    refusing bin took more than ``r_i - b`` of ``R``, none of it that
    unit).  Left side minus right side is convex in ``b`` and least, on
    ``(0, s]``, at ``b = min(s, r_(2))``, ``r_(2)`` the second largest
    room.  There it is the test's left side less ``R``: at ``b = s``
    plainly, and at ``r_(2) < s`` both equal ``max r_i - R``.  Where no
    room exceeds ``s`` the test cannot pass, as ``R >= s``.  So every
    unit left lands in the first ``m`` bins, and the pass succeeds on at
    most ``m``.  It opens at least ``m``: at least the bins already
    open, and each bin holds at most ``C_max``.

    A failed settle test is held while ``m`` stands.  The room each
    placement takes above the test's ``s`` is taken off its left side,
    and a fall of ``s`` raises that side by at most ``K - 1`` times the
    fall, ``K`` the rooms the test saw above the new ``s``.  The rooms
    are re-read only when that bound passes, so a pass pays ``O(m)``
    about once per bin opened past ``⌈total / C_max⌉`` and where the
    test is close, and ``O(1)`` at every other run.
    """
    specs, bandwidth_limits, delay_bases, delay_slopes = pool
    count = len(specs)
    used = [0.0] * count
    subscription_counts = [0] * count
    input_rates = [0.0] * count
    union_bits = [0] * count
    placements: List[Placement] = []
    failed: Optional[AllocationUnit] = None
    streak: Optional[float] = None  # the previous run's bandwidth
    start = 0
    opened = 0  # bins holding a subscription
    beyond = 0  # one past the last bin holding a subscription
    # With no bound, ``opened > stop`` never holds, no ``m`` is at most
    # ``settle``, and the pass runs out.
    stop = count if stop_above is None else stop_above
    settle = 0 if stop_above is None else stop_above
    floor = min(bandwidth_limits, default=0.0) - EPSILON  # C
    top = max(bandwidth_limits, default=0.0)  # C_max
    needed = math.ceil(bandwidth_total * (1.0 - CUT_MARGIN) / top) if top > 0 else 0
    remaining = bandwidth_total  # R
    margin = CUT_MARGIN * bandwidth_total
    # A failed settle test is held while ``m`` stands: ``held`` is its
    # ``m`` (0 when none is held), ``rooms`` its rooms in ascending order,
    # ``pivot`` its ``s`` and ``excess`` today's ``Σ max(0, r_i - pivot)``.
    held = 0
    rooms: List[float] = []
    pivot = 0.0
    excess = 0.0
    for bandwidth, unit_subscriptions, packed, members in runs:
        if opened > stop:
            spare = count - opened - 1
            gap = floor - bandwidth
            if (
                spare > 0
                and gap > 0
                and spare * gap * (1.0 - CUT_MARGIN) > remaining + margin
            ):
                return CutResult(opened)
        else:
            m = opened if opened > needed else needed
            if 0 < m <= settle and beyond <= m:
                if held:
                    # A bound on the test's left side now: the held
                    # value, raised for the fall of ``s`` below its pivot.
                    bound = excess + pivot
                    if bandwidth < pivot:
                        above = held - bisect_right(rooms, bandwidth)
                        bound += (above - 1) * (pivot - bandwidth)
                else:
                    bound = math.inf
                if bound * (1.0 - CUT_MARGIN) > remaining + margin:
                    rooms = sorted([bandwidth_limits[i] - used[i] for i in range(m)])
                    pivot = bandwidth
                    excess = sum([room - pivot for room in rooms if room > pivot])
                    if (excess + pivot) * (1.0 - CUT_MARGIN) > remaining + margin:
                        return SettledResult.deferred(
                            partial(_run_out_bins, runs, pool, kernel),
                            broker_count=m,
                            success=True,
                        )
                    held = m
        # Exact on purpose, as in ``is_twin``.
        if bandwidth != streak:  # reprolint: disable=float-equality
            streak = bandwidth
            start = 0
        bits = packed.bits
        shift = packed.shift
        rate_memo = packed.rate_memo
        size = len(members)
        placed = 0
        index = start
        start = count  # until a bin passes the load test
        while index < count:
            load = used[index] + bandwidth
            if load > bandwidth_limits[index]:
                index += 1
                continue
            if start == count:
                start = index
            total_subs = subscription_counts[index] + unit_subscriptions
            base = delay_bases[index]
            slope = delay_slopes[index]
            delay = base + slope * total_subs
            bin_bits = union_bits[index]
            # Inlined ``PackedProfile.memo_key(bin_bits)``.
            increase = rate_memo.get((bin_bits & bits) >> shift)
            if increase is None:
                increase = packed.rate_increase(bin_bits)
            rate = input_rates[index] + increase
            if delay > 0 and rate > 1.0 / delay + EPSILON:
                index += 1
                continue
            first = placed
            placed += 1
            limit = bandwidth_limits[index]
            while placed < size:
                more_load = load + bandwidth
                if more_load > limit:
                    break
                more_subs = total_subs + unit_subscriptions
                delay = base + slope * more_subs
                if delay > 0 and rate > 1.0 / delay + EPSILON:
                    break
                load = more_load
                total_subs = more_subs
                placed += 1
            if not subscription_counts[index]:
                opened += 1
                if index >= beyond:
                    beyond = index + 1
                if opened > needed:  # ``m`` grows: the held test is stale
                    held = 0
            if index < held:
                excess -= max(0.0, limit - used[index] - pivot) - max(0.0, limit - load - pivot)
            used[index] = load
            subscription_counts[index] = total_subs
            input_rates[index] = rate
            union_bits[index] = bin_bits | bits
            placements.append((index, members, first, placed))
            if placed == size:
                break
            index += 1
        else:
            failed = members[placed]
            break
        remaining -= bandwidth * size
    return AllocationResult.deferred(
        partial(_packed_bins, pool, kernel, placements,
                used, subscription_counts, input_rates, union_bits),
        broker_count=opened,
        success=failed is None,
        failed_unit=failed,
    )


def _run_out_bins(
    runs: Sequence[UnitRun], pool: PackedPool, kernel: ClosenessKernel
) -> List[BrokerBin]:
    """The bins of a settled pass: the same pass, run out with no bound."""
    return first_fit_runs(runs, pool, kernel).bins


def _packed_bins(
    pool: PackedPool,
    kernel: ClosenessKernel,
    placements: List[Placement],
    used: List[float],
    subscription_counts: List[int],
    input_rates: List[float],
    union_bits: List[int],
) -> List[BrokerBin]:
    """The non-empty bins of one :func:`first_fit_runs` pass, in pool order."""
    contents: Dict[int, List[AllocationUnit]] = {}
    for index, members, first, stop in placements:
        contents.setdefault(index, []).extend(members[first:stop])
    return [
        BrokerBin.from_packed_state(
            pool.specs[index],
            kernel,
            contents[index],
            used[index],
            subscription_counts[index],
            input_rates[index],
            union_bits[index],
        )
        for index in sorted(contents)
    ]


class FbfAllocator:
    """Fastest Broker First.

    Parameters
    ----------
    rng:
        Source of the random subscription draw order.  Defaults to a
        fixed seed so library users get reproducible runs unless they
        opt into their own stream.
    """

    name = "fbf"

    def __init__(self, rng: Optional[SeededRng] = None):
        self._rng = rng if rng is not None else SeededRng(0, "fbf")

    def allocate(
        self,
        units: Sequence[AllocationUnit],
        pool: Iterable[BrokerSpec],
        directory: PublisherDirectory,
    ) -> AllocationResult:
        """Allocate ``units`` onto ``pool`` in random draw order."""
        with obs.span("fbf.first_fit", units=len(units)):
            order = self._rng.shuffled(units)
            return first_fit(order, pool, directory)
