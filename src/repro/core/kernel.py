"""Fused bit-plane kernel: the one profile algebra allocation runs on.

Paper §IV-C defines closeness, relationship and coverage as set
operations on bit-vector profiles.  In ``src/`` they are computed here
and nowhere else: every feasibility test — FBF, BIN PACKING, CRAM's
probes, Phase 3's takeover and best-fit passes, PAIRWISE's forced
assignment — and CRAM's closeness, relationships, one-to-many cover,
merges and coverage tests read profiles packed by this kernel.  The
per-publisher walk over :class:`~repro.core.bitvector.BitVector` dicts
lives on in ``tests/`` as the reference (``tests/profile_oracle.py``
for the algebra, ``tests/first_fit_oracle.py`` for the bins,
``tests/naive_cram.py`` for CRAM).  After Phase 1 all profiles are
synchronized against the publisher directory (croc/offline both call
``SubscriptionProfile.synchronize``), so the per-publisher windows of
every profile in a pool coincide — which means the whole dict-of-
vectors representation can be flattened once:

* each publisher gets a fixed bit range (a :class:`Plane`) inside one
  contiguous integer;
* packing a profile ORs its per-publisher bits into that integer, so
  any pairwise ``{intersect, union, xor}`` cardinality is a single
  aligned pass of C-speed big-int ops plus ``int.bit_count()`` instead
  of a dict walk.

Packs are cached per profile object; pair counts are not.  One AND and
one popcount of two packed ints cost less than a pair memo's tuple,
dict probe and reverse-index bookkeeping, and the memo held most of
PAIRWISE's memory.

Every gathered pool packs.  ``Croc._assemble`` builds one alignment per
gather: each publisher's last message ID is raised to the newest ID any
gathered vector observed, and a publisher no report carries has its
vectors slid to theirs.  After ``synchronize`` every vector of a
publisher therefore sits on one window, whatever loss, jitter or a
silent broker did to the reports.  Equal windows in give equal windows
out of every OR-merge, so a packed pool stays packed.  A profile that
does not fit is an error, not a slower mode: :meth:`ClosenessKernel.
for_pool` and :meth:`ClosenessKernel.pack` raise ``ValueError`` naming
the publisher.  ``tests/test_kernel_equivalence.py`` and
``tests/test_first_fit_runs.py`` pin every value and counter against
the oracles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.bitvector import BitVector
from repro.core.closeness import XOR_MAX
from repro.core.profiles import PublisherDirectory, SubscriptionProfile
from repro.core.relations import Relation


class Plane:
    """One publisher's fixed bit range inside the packed integer."""

    __slots__ = ("adv_id", "offset", "mask", "first_id", "capacity", "span", "window", "rate")

    def __init__(
        self,
        adv_id: str,
        offset: int,
        first_id: int,
        capacity: int,
        window: int,
        rate: float,
    ):
        self.adv_id = adv_id
        self.offset = offset
        self.mask = (1 << capacity) - 1
        self.first_id = first_id
        self.capacity = capacity
        #: ``(first_id, capacity)`` — the exact window a vector must
        #: occupy to be packable onto this plane.
        self.span = (first_id, capacity)
        #: Observed-slot count used by the rate estimate
        #: (``PublisherProfile.observed_window``), precomputed.
        self.window = window
        #: Publisher publication rate; 0.0 when the publisher is absent
        #: from the directory (the naive path skips those terms, and
        #: adding ``0.0`` reproduces that skip bit-for-bit).
        self.rate = rate


Window = Tuple[int, int]  # a vector's (first_id, capacity)


class PackedProfile:
    """One profile flattened onto a kernel's planes."""

    __slots__ = ("profile", "bits", "planes", "pcard", "shift", "rate_memo")

    def __init__(self, profile: SubscriptionProfile, bits: int, planes: Tuple[Plane, ...]):
        #: Held so the kernel's ``id(profile)`` keys cannot be recycled.
        self.profile = profile
        self.bits = bits
        #: Planes holding at least one bit, in the profile's vector-dict
        #: order — the rate-path float sums must add terms in exactly
        #: the naive order.
        self.planes = planes
        #: Popcount of the packed planes (``|A∪B| = |A|+|B|-|A∩B|``
        #: turns the pairwise union into integer arithmetic).
        self.pcard = bits.bit_count()
        #: Offset of the lowest plane this pack owns (see :meth:`memo_key`).
        self.shift = min((plane.offset for plane in planes), default=0)
        #: :meth:`memo_key` of a bin -> rate delta.  CRAM's probe runs
        #: rebuild the same bin fill sequences over and over; the delta
        #: is a pure function of (this pack, the bin's bits under this
        #: pack's own), so caching on the pack itself is exact and dies
        #: with the pack (no id-reuse hazard).
        self.rate_memo: Dict[int, float] = {}

    def memo_key(self, bin_bits: int) -> int:
        """What of a bin's packed union :meth:`rate_increase` depends on.

        The delta is computed from ``bits & ~bin_bits``, which equals
        ``bits & ~(bin_bits & bits)``: only the bin's bits *under this
        pack's own* matter (the paper's per-publisher estimate — a unit
        adds what is not already flowing, publisher by publisher).
        Bins that differ on planes the unit does not sink from share a
        key, and shifting the lowest owned plane down to bit 0 keeps the
        key as narrow as the pack's own plane span instead of as wide
        as the layout.
        """
        return (bin_bits & self.bits) >> self.shift

    def rate_increase(self, bin_bits: int) -> float:
        """Input-rate delta vs a bin's packed union (memoized; exact).

        Terms are added in the profile's vector-dict order with the same
        skip conditions as the naive per-publisher walk, so the float
        result is bit-identical.
        """
        memo = self.rate_memo
        key = self.memo_key(bin_bits)
        value = memo.get(key)
        if value is None:
            added = self.bits & ~bin_bits
            value = 0.0
            if added:
                for plane in self.planes:
                    delta = (added >> plane.offset) & plane.mask
                    if not delta:
                        continue
                    fraction = delta.bit_count() / plane.window
                    value += min(1.0, fraction) * plane.rate
            memo[key] = value
        return value


class ClosenessKernel:
    """Packs a pool once, then serves fused pairwise set cardinalities.

    Serves :class:`~repro.core.closeness.ClosenessMetric` (whose callers
    pass the run's kernel in), CRAM's relationship test and one-to-many
    cover, every broker bin and first-fit pass (packed union/rate
    bookkeeping), ``AllocationUnit.merged`` (packed OR-merge), and the
    poset builder (packed ``covers``).  Built by :meth:`for_pool` only.
    """

    def __init__(self, directory: PublisherDirectory, windows: Mapping[str, Window]):
        #: One plane per publisher, laid out in ``adv_id`` order.
        self.planes: Dict[str, Plane] = {}
        offset = 0
        for adv_id in sorted(windows):
            first_id, capacity = windows[adv_id]
            publisher = directory.get(adv_id)
            if publisher is None:
                window = capacity
                rate = 0.0
            else:
                window = publisher.observed_window(first_id, capacity)
                rate = publisher.publication_rate
            self.planes[adv_id] = Plane(adv_id, offset, first_id, capacity, window, rate)
            offset += capacity
        #: ``id(profile)`` -> pack; the pack pins the profile, so the key
        #: cannot be recycled while the entry lives (see :meth:`forget`).
        self._packs: Dict[int, PackedProfile] = {}

    @classmethod
    def for_pool(
        cls, directory: PublisherDirectory, profiles: Iterable[SubscriptionProfile]
    ) -> "ClosenessKernel":
        """The kernel over a pool, every profile packed.

        Each publisher's plane takes the window its first vector has;
        :meth:`pack` raises ``ValueError`` naming a publisher seen under
        a second one (a pool no gather's alignment produced).
        """
        pool = list(profiles)
        windows: Dict[str, Window] = {}
        for profile in pool:
            for adv_id, vector in profile.items():
                windows.setdefault(adv_id, (vector.first_id, vector.capacity))
        kernel = cls(directory, windows)
        for profile in pool:
            kernel.pack(profile)
        return kernel

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def pack(self, profile: SubscriptionProfile) -> PackedProfile:
        """Flatten ``profile`` onto the planes (cached per object).

        Raises ``ValueError`` for a profile from outside the pool's
        windows: every OR-merge of pool profiles fits, so a misfit is a
        caller's bug.  Call :meth:`forget` when CRAM retires a profile.
        """
        packed = self._packs.get(id(profile))
        if packed is not None:
            return packed
        bits = 0
        planes: List[Plane] = []
        for adv_id, vector in profile.items():
            plane = self.planes.get(adv_id)
            window = (vector.first_id, vector.capacity)
            if plane is None or window != plane.span:
                expected = "no plane" if plane is None else f"window {plane.span}"
                raise ValueError(
                    f"profile does not fit the packed pool: publisher {adv_id!r} "
                    f"has window {window}, the pool has {expected} for it"
                )
            raw = vector.raw_bits()
            if raw:
                # An empty vector adds no rate term (the naive walk skips
                # it too); leaving its plane out makes equal bits over
                # equal planes the test for interchangeable profiles.
                bits |= raw << plane.offset
                planes.append(plane)
        packed = PackedProfile(profile, bits, tuple(planes))
        self._packs[id(profile)] = packed
        return packed

    def forget(self, profile: SubscriptionProfile) -> None:
        """Drop a retired profile's pack."""
        self._packs.pop(id(profile), None)

    # ------------------------------------------------------------------
    # Fused pairwise counts
    # ------------------------------------------------------------------
    def fused_counts(
        self, first: SubscriptionProfile, second: SubscriptionProfile
    ) -> Tuple[int, int]:
        """``(|∩|, |∪|)`` for a profile pair, from the cached packs."""
        packs = self._packs
        pa = packs.get(id(first)) or self.pack(first)
        pb = packs.get(id(second)) or self.pack(second)
        intersect = (pa.bits & pb.bits).bit_count()
        return intersect, pa.pcard + pb.pcard - intersect

    # ------------------------------------------------------------------
    # Closeness metrics (paper §IV-C; the formulas are documented in
    # repro.core.closeness)
    # ------------------------------------------------------------------
    def closeness(
        self, name: str, first: SubscriptionProfile, second: SubscriptionProfile
    ) -> float:
        """Metric value from the pair's fused counts."""
        intersect, union = self.fused_counts(first, second)
        if name == "intersect":
            return float(intersect)
        if name == "xor":
            xor = union - intersect
            if xor == 0:
                return XOR_MAX
            return 1.0 / xor
        if name == "ios":
            if intersect == 0:
                return 0.0
            return intersect * intersect / (first.cardinality + second.cardinality)
        if name == "iou":
            if intersect == 0:
                return 0.0
            return intersect * intersect / union
        raise ValueError(f"unknown closeness metric {name!r}")

    def closeness_row(
        self,
        name: str,
        first: SubscriptionProfile,
        others: Sequence[SubscriptionProfile],
    ) -> List[float]:
        """Batched one-vs-all closeness (CRAM partner search, pairwise).

        Equivalent to ``[closeness(name, first, o) for o in others]``
        but with the popcounts and the metric arithmetic inlined into
        one loop — this is the hot row of CRAM's partner searches.
        """
        if name == "intersect":
            mode = 0
        elif name == "xor":
            mode = 1
        elif name == "ios":
            mode = 2
        elif name == "iou":
            mode = 3
        else:
            raise ValueError(f"unknown closeness metric {name!r}")
        packs = self._packs
        pa = packs.get(id(first)) or self.pack(first)
        pa_bits = pa.bits
        pa_pcard = pa.pcard
        first_card = first.cardinality if mode == 2 else 0
        row: List[float] = []
        append = row.append
        for other in others:
            pb = packs.get(id(other)) or self.pack(other)
            intersect = (pa_bits & pb.bits).bit_count()
            if mode == 0:
                append(float(intersect))
            elif mode == 1:
                xor = pa_pcard + pb.pcard - 2 * intersect
                append(XOR_MAX if xor == 0 else 1.0 / xor)
            elif intersect == 0:
                append(0.0)
            elif mode == 2:
                append(intersect * intersect / (first_card + other.cardinality))
            else:
                append(intersect * intersect / (pa_pcard + pb.pcard - intersect))
        return row

    # ------------------------------------------------------------------
    # Coverage and relationship (poset builder, CRAM's clustering rules)
    # ------------------------------------------------------------------
    def covers(self, first: SubscriptionProfile, second: SubscriptionProfile) -> bool:
        """Packed superset test."""
        return not (self.pack(second).bits & ~self.pack(first).bits)

    def relationship(
        self, first: SubscriptionProfile, second: SubscriptionProfile
    ) -> Relation:
        """Classify a pair from its packs."""
        mine = self.pack(first).bits
        theirs = self.pack(second).bits
        if not mine & theirs:
            return Relation.EMPTY
        if mine == theirs:
            return Relation.EQUAL
        if not theirs & ~mine:
            return Relation.SUPERSET
        if not mine & ~theirs:
            return Relation.SUBSET
        return Relation.INTERSECT

    # ------------------------------------------------------------------
    # Packed OR-merge (CRAM clustering)
    # ------------------------------------------------------------------
    def merge_profiles(self, profiles: Sequence[SubscriptionProfile]) -> SubscriptionProfile:
        """OR-merge via one pass of big-int ORs.

        Reproduces ``repro.core.profiles.merge_profiles`` exactly —
        same vector windows, same bits, same first-seen publisher order.
        """
        bits = 0
        for profile in profiles:
            bits |= self.pack(profile).bits
        merged = SubscriptionProfile(
            capacity=max(profile.capacity for profile in profiles)
        )
        vectors: Dict[str, BitVector] = {}
        for profile in profiles:
            for adv_id in profile.adv_ids():
                if adv_id in vectors:
                    continue
                plane = self.planes[adv_id]
                vector = BitVector(capacity=plane.capacity, first_id=plane.first_id)
                vector.load_bits((bits >> plane.offset) & plane.mask)
                vectors[adv_id] = vector
        merged.adopt_vectors(vectors)
        return merged
