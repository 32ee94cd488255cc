"""Fused bit-plane closeness kernel (CRAM clustering).

Closeness evaluation is not where most of CRAM's Phase-2 time goes —
the bin-packing probes are — but without this kernel it would be: the
benchmark's allocation-only workload (``plan_offline``) takes 3.5x as
long on the naive path.  Every naive evaluation walks a per-publisher dict of
:class:`~repro.core.bitvector.BitVector`, re-aligns each pair of
windows with big-int shifts, and repeats the walk for every metric
component.  After Phase 1 all profiles are synchronized against the
publisher directory (croc/offline both call
``SubscriptionProfile.synchronize``), so the per-publisher windows of
every profile in a pool coincide — which means the whole dict-of-
vectors representation can be flattened once:

* a :class:`BitPlaneLayout` assigns each publisher a fixed bit range
  (a *plane*) inside one contiguous integer;
* packing a profile ORs its per-publisher bits into that integer, so
  any pairwise ``{intersect, union, xor}`` cardinality is a single
  aligned pass of C-speed big-int ops plus ``int.bit_count()`` instead
  of a dict walk;
* fused ``(intersect, union)`` counts are memoized per unordered pair,
  keyed by the packed bits (the profile's content signature under the
  layout), so CRAM's re-validation loop stops recomputing unchanged
  pairs.

The kernel is *exact*: a profile whose vectors do not fit the layout
(mismatched window, unknown publisher) is marked non-packable and every
pair involving it falls back to the naive profile walk, so attaching
the kernel never changes a metric value, an allocation, or an
evaluation counter — only wall-clock time
(``tests/test_kernel_equivalence.py`` pins that against the kernel-less
allocator in ``tests/naive_cram.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.bitvector import BitVector
from repro.core.closeness import XOR_MAX
from repro.core.popcount import popcount
from repro.core.profiles import PublisherDirectory, SubscriptionProfile


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
        #: Observed-slot count used by the rate estimate, precomputed
        #: with the same clamp as ``BrokerBin._publisher_window``.
        self.window = window
        #: Publisher publication rate; 0.0 when the publisher is absent
        #: from the directory (the naive path skips those terms, and
        #: adding ``0.0`` reproduces that skip bit-for-bit).
        self.rate = rate


class BitPlaneLayout:
    """Global plane assignment derived from a synchronized pool.

    A publisher is *packable* when every vector observed for it shares
    one ``(first_id, capacity)`` window — the invariant ``synchronize``
    establishes.  Publishers with conflicting windows stay unpacked for
    every profile (so pairwise math never mixes packed and naive bits
    for the same publisher).
    """

    __slots__ = ("planes", "conflicted")

    def __init__(
        self,
        directory: PublisherDirectory,
        profiles: Iterable[SubscriptionProfile],
    ):
        windows: Dict[str, Tuple[int, int]] = {}
        conflicted: Set[str] = set()
        for profile in profiles:
            for adv_id, vector in profile.items():
                key = (vector.first_id, vector.capacity)
                seen = windows.get(adv_id)
                if seen is None:
                    windows[adv_id] = key
                elif seen != key:
                    conflicted.add(adv_id)
        self.planes: Dict[str, Plane] = {}
        offset = 0
        for adv_id in sorted(windows):
            if adv_id in conflicted:
                continue
            first_id, capacity = windows[adv_id]
            publisher = directory.get(adv_id)
            if publisher is None:
                window = capacity
                rate = 0.0
            else:
                window = max(1, min(capacity, publisher.last_message_id - first_id + 1))
                rate = publisher.publication_rate
            self.planes[adv_id] = Plane(adv_id, offset, first_id, capacity, window, rate)
            offset += capacity
        self.conflicted = conflicted


class PackedProfile:
    """One profile flattened onto a :class:`BitPlaneLayout`.

    ``exact`` is False when any vector missed its plane window; such
    profiles keep working — every computation touching them routes
    through the naive profile walk.  ``residual`` holds vectors for
    publishers that are unpacked *for everyone* (layout conflicts);
    those combine naively per pair without breaking exactness.
    """

    __slots__ = (
        "profile",
        "bits",
        "residual",
        "planes",
        "exact",
        "pure",
        "key",
        "pcard",
        "shift",
        "rate_memo",
    )

    def __init__(
        self,
        profile: SubscriptionProfile,
        bits: int,
        residual: Mapping[str, BitVector],
        planes: Tuple[Plane, ...],
        exact: bool,
    ):
        self.profile = profile
        self.bits = bits
        self.residual = dict(residual)
        #: Planes holding at least one bit, in the profile's vector-dict
        #: order — the rate-path float sums must add terms in exactly
        #: the naive order.
        self.planes = planes
        self.exact = exact
        #: Exact with no residual vectors: eligible for packed bin math.
        self.pure = exact and not residual
        #: Popcount of the packed planes (``|A∪B| = |A|+|B|-|A∩B|``
        #: turns the pairwise union into integer arithmetic).
        self.pcard = popcount(bits)
        #: Offset of the lowest plane this pack owns (see :meth:`memo_key`).
        self.shift = min((plane.offset for plane in planes), default=0)
        #: :meth:`memo_key` of a bin -> rate delta.  CRAM's probe runs
        #: rebuild the same bin fill sequences over and over; the delta
        #: is a pure function of (this pack, the bin's bits under this
        #: pack's own), so caching on the pack itself is exact and dies
        #: with the pack (no id-reuse hazard).
        self.rate_memo: Dict[int, float] = {}
        if exact:
            # The memo key must pin down every input of a pairwise
            # count.  For residual vectors that includes the window
            # (first_id, capacity), not just the normalized signature:
            # alignment discards bits below the later window start, so
            # even an *empty* vector's window changes the result.
            residual_sig = tuple(
                sorted(
                    (adv, vec.first_id, vec.capacity, vec.raw_bits())
                    for adv, vec in residual.items()
                )
            )
            self.key: Optional[Tuple[int, Tuple]] = (bits, residual_sig)
        else:
            self.key = None

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
        result is bit-identical.  Only meaningful for ``pure`` packs.
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

    Drop-in acceleration behind :class:`~repro.core.closeness.
    ClosenessMetric` (via ``attach_kernel``), ``BrokerBin`` (packed
    union/rate bookkeeping), ``AllocationUnit.merged`` (packed
    OR-merge), and the poset builder (packed ``covers``).
    """

    def __init__(
        self,
        directory: PublisherDirectory,
        profiles: Iterable[SubscriptionProfile],
    ):
        pool = list(profiles)
        self.directory = directory
        self.layout = BitPlaneLayout(directory, pool)
        self._packs: Dict[int, Tuple[SubscriptionProfile, PackedProfile]] = {}
        self._memo: Dict[Tuple[Tuple[int, Tuple], Tuple[int, Tuple]], Tuple[int, int]] = {}
        self._pair_index: Dict[Tuple[int, Tuple], List[Tuple]] = {}
        self._key_refs: Dict[Tuple[int, Tuple], int] = {}
        # Object-identity pair memo in front of the content memo: the
        # pack cache pins every profile's id with a strong reference and
        # profiles are immutable during a run, so an id pair uniquely
        # identifies a (possibly non-packable) profile pair.  Entries
        # die with :meth:`forget`, before the id can be recycled.
        self._id_memo: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._id_pairs: Dict[int, List[Tuple[int, int]]] = {}
        # Diagnostics consumed by CramStats / the benchmark harness.
        self.fused_evaluations = 0
        self.memo_hits = 0
        self.fallback_evaluations = 0
        for profile in pool:
            self.pack(profile)

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def pack(self, profile: SubscriptionProfile) -> PackedProfile:
        """Flatten ``profile`` onto the layout (cached per object).

        The cache holds a strong reference to the profile, so the
        ``id()`` key cannot be recycled while the entry lives; call
        :meth:`forget` when CRAM retires a profile.
        """
        cached = self._packs.get(id(profile))
        if cached is not None:
            return cached[1]
        layout_planes = self.layout.planes
        bits = 0
        residual: Dict[str, BitVector] = {}
        planes: List[Plane] = []
        exact = True
        for adv_id, vector in profile.items():
            plane = layout_planes.get(adv_id)
            if plane is None:
                if adv_id in self.layout.conflicted:
                    residual[adv_id] = vector
                else:
                    exact = False  # publisher unknown to the layout
                continue
            window = (vector.first_id, len(vector))
            if window != plane.span:
                exact = False
                continue
            raw = vector.raw_bits()
            if raw:
                # An empty vector adds no rate term (the naive walk skips
                # it too); leaving its plane out makes equal bits over
                # equal planes the test for interchangeable profiles.
                bits |= raw << plane.offset
                planes.append(plane)
        packed = PackedProfile(profile, bits, residual, tuple(planes), exact)
        self._packs[id(profile)] = (profile, packed)
        if packed.key is not None:
            self._key_refs[packed.key] = self._key_refs.get(packed.key, 0) + 1
        return packed

    def forget(self, profile: SubscriptionProfile) -> None:
        """Invalidate a retired profile (CRAM calls this on merge).

        Drops the pack-cache entry and, once no live profile shares the
        same content key, every memoized pair that mentions it.
        """
        profile_id = id(profile)
        entry = self._packs.pop(profile_id, None)
        if entry is None:
            return
        for pair in self._id_pairs.pop(profile_id, ()):
            self._id_memo.pop(pair, None)
        key = entry[1].key
        if key is None:
            return
        remaining = self._key_refs.get(key, 0) - 1
        if remaining > 0:
            self._key_refs[key] = remaining
            return
        self._key_refs.pop(key, None)
        for pair in self._pair_index.pop(key, ()):
            self._memo.pop(pair, None)

    # ------------------------------------------------------------------
    # Fused pairwise counts
    # ------------------------------------------------------------------
    def fused_counts(
        self, first: SubscriptionProfile, second: SubscriptionProfile
    ) -> Tuple[int, int]:
        """``(|∩|, |∪|)`` for a profile pair, memoized when packable."""
        ia = id(first)
        ib = id(second)
        id_pair = (ia, ib) if ia <= ib else (ib, ia)
        hit = self._id_memo.get(id_pair)
        if hit is not None:
            self.memo_hits += 1
            return hit
        packs = self._packs
        entry = packs.get(ia)
        pa = entry[1] if entry is not None else self.pack(first)
        entry = packs.get(ib)
        pb = entry[1] if entry is not None else self.pack(second)
        if not (pa.exact and pb.exact):
            self.fallback_evaluations += 1
            counts = (
                first.intersection_cardinality(second),
                first.union_cardinality(second),
            )
            self._remember_id_pair(id_pair, counts)
            return counts
        ka = pa.key
        kb = pb.key
        assert ka is not None and kb is not None
        pair = (ka, kb) if ka <= kb else (kb, ka)
        hit = self._memo.get(pair)
        if hit is not None:
            self.memo_hits += 1
            self._remember_id_pair(id_pair, hit)
            return hit
        intersect = (pa.bits & pb.bits).bit_count()
        union = pa.pcard + pb.pcard - intersect
        if pa.residual or pb.residual:
            intersect, union = self._residual_counts(pa, pb, intersect, union)
        self.fused_evaluations += 1
        counts = (intersect, union)
        self._memo[pair] = counts
        self._pair_index.setdefault(ka, []).append(pair)
        if kb != ka:
            self._pair_index.setdefault(kb, []).append(pair)
        self._remember_id_pair(id_pair, counts)
        return counts

    def _remember_id_pair(self, id_pair: Tuple[int, int], counts: Tuple[int, int]) -> None:
        """Front the content memo with an identity-keyed entry."""
        self._id_memo[id_pair] = counts
        self._id_pairs.setdefault(id_pair[0], []).append(id_pair)
        if id_pair[1] != id_pair[0]:
            self._id_pairs.setdefault(id_pair[1], []).append(id_pair)

    @staticmethod
    def _residual_counts(
        pa: PackedProfile, pb: PackedProfile, intersect: int, union: int
    ) -> Tuple[int, int]:
        """Add the unpacked publishers' naive pairwise contributions."""
        for adv_id, mine in pa.residual.items():
            theirs = pb.residual.get(adv_id)
            if theirs is None:
                union += mine.cardinality
            else:
                both, either, _xor = mine.fused_cardinalities(theirs)
                intersect += both
                union += either
        for adv_id, theirs in pb.residual.items():
            if adv_id not in pa.residual:
                union += theirs.cardinality
        return intersect, union

    # ------------------------------------------------------------------
    # Closeness metrics (identical arithmetic to repro.core.closeness)
    # ------------------------------------------------------------------
    def closeness(
        self, name: str, first: SubscriptionProfile, second: SubscriptionProfile
    ) -> float:
        """Metric value from fused counts; bit-identical to the naive one."""
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
        but with the pair-memo lookup, the pure-pair popcounts, and the
        metric arithmetic inlined into one loop — this is the hot row
        of CRAM's partner searches.  Pairs computed here skip the
        content memo (rows almost never see content-equal re-packs);
        the identity memo still catches every repeat scan.
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
        ia = id(first)
        id_memo = self._id_memo
        id_pairs = self._id_pairs
        packs = self._packs
        entry = packs.get(ia)
        pa = entry[1] if entry is not None else self.pack(first)
        pa_pure = pa.pure
        pa_bits = pa.bits
        pa_pcard = pa.pcard
        fused_counts = self.fused_counts
        first_card = first.cardinality if mode == 2 else 0
        hits = 0
        fused = 0
        row: List[float] = []
        append = row.append
        for other in others:
            ib = id(other)
            id_pair = (ia, ib) if ia <= ib else (ib, ia)
            counts = id_memo.get(id_pair)
            if counts is not None:
                hits += 1
                intersect, union = counts
            else:
                entry = packs.get(ib)
                pb = entry[1] if entry is not None else self.pack(other)
                if pa_pure and pb.pure:
                    intersect = (pa_bits & pb.bits).bit_count()
                    union = pa_pcard + pb.pcard - intersect
                    fused += 1
                    # ``_remember_id_pair`` inlined (hot row): ia != ib
                    # here, so both reverse-index entries are recorded.
                    id_memo[id_pair] = (intersect, union)
                    id_pairs.setdefault(id_pair[0], []).append(id_pair)
                    id_pairs.setdefault(id_pair[1], []).append(id_pair)
                else:
                    intersect, union = fused_counts(first, other)
            if mode == 0:
                append(float(intersect))
            elif mode == 1:
                xor = union - intersect
                append(XOR_MAX if xor == 0 else 1.0 / xor)
            elif intersect == 0:
                append(0.0)
            elif mode == 2:
                append(intersect * intersect / (first_card + other.cardinality))
            else:
                append(intersect * intersect / union)
        self.memo_hits += hits
        self.fused_evaluations += fused
        return row

    # ------------------------------------------------------------------
    # Coverage (poset builder)
    # ------------------------------------------------------------------
    def covers(
        self, first: SubscriptionProfile, second: SubscriptionProfile
    ) -> Optional[bool]:
        """Packed superset test, or ``None`` when a side is unpackable."""
        pa = self.pack(first)
        pb = self.pack(second)
        if not (pa.exact and pb.exact):
            return None
        if pb.bits & ~pa.bits:
            return False
        for adv_id, theirs in pb.residual.items():
            if not theirs:
                continue
            mine = pa.residual.get(adv_id)
            if mine is None or not mine.covers(theirs):
                return False
        return True

    # ------------------------------------------------------------------
    # Packed OR-merge (CRAM clustering)
    # ------------------------------------------------------------------
    def merge_profiles(
        self, profiles: Sequence[SubscriptionProfile]
    ) -> Optional[SubscriptionProfile]:
        """OR-merge via one pass of big-int ORs, or ``None`` to fall back.

        Reproduces ``repro.core.profiles.merge_profiles`` exactly —
        same vector windows, same bits, same first-seen publisher order
        — whenever every member is pure-packed.
        """
        packs = []
        for profile in profiles:
            packed = self.pack(profile)
            if not packed.pure:
                return None
            packs.append(packed)
        bits = 0
        for packed in packs:
            bits |= packed.bits
        layout_planes = self.layout.planes
        merged = SubscriptionProfile(
            capacity=max(profile.capacity for profile in profiles)
        )
        vectors: Dict[str, BitVector] = {}
        for profile in profiles:
            for adv_id in profile.adv_ids():
                if adv_id in vectors:
                    continue
                plane = layout_planes[adv_id]
                vector = BitVector(capacity=plane.capacity, first_id=plane.first_id)
                vector.load_bits((bits >> plane.offset) & plane.mask)
                vectors[adv_id] = vector
        merged.adopt_vectors(vectors)
        return merged
