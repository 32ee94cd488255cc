"""Bounded, sliding-window bit vectors (paper Section III-B).

A bit vector records which publications from one publisher a
subscription has received.  Each publisher stamps its messages with a
monotonically increasing integer message ID; bit *i* of the vector
corresponds to message ``first_id + i``.  The vector has a bounded
capacity (the paper's default is 1,280 bits): when a publication ID
falls past the end of the window, the window slides forward just enough
to record it in the last bit, discarding the oldest observations.

The paper's worked example is preserved here as a doctest:

>>> bv = BitVector(capacity=10, first_id=100)
>>> bv.set(119)
True
>>> bv.first_id
110
>>> bv.test(119)
True

Bit vectors are the only workload representation the allocation
framework sees, which is what makes the approach independent of the
publish/subscribe language and the workload distribution.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

DEFAULT_CAPACITY = 1280


class BitVector:
    """A fixed-capacity window of publication-receipt bits.

    Parameters
    ----------
    capacity:
        Number of bits retained.  Larger vectors estimate subscription
        load more accurately but take longer to fill (paper §III-B).
    first_id:
        Message ID corresponding to bit index 0.
    """

    __slots__ = ("_capacity", "_first_id", "_bits", "_card")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, first_id: int = 0):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if first_id < 0:
            raise ValueError(f"first_id must be non-negative, got {first_id}")
        self._capacity = capacity
        self._first_id = first_id
        self._bits = 0
        self._card: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_ids(
        cls, ids: Iterable[int], capacity: int = DEFAULT_CAPACITY, first_id: int = 0
    ) -> "BitVector":
        """Build a vector with the given publication IDs set.

        IDs older than the final window are silently dropped, exactly as
        they would be if they had been observed in order.
        """
        vector = cls(capacity=capacity, first_id=first_id)
        for pub_id in sorted(ids):
            vector.set(pub_id)
        return vector

    def copy(self) -> "BitVector":
        clone = BitVector(self._capacity, self._first_id)
        clone._bits = self._bits
        clone._card = self._card
        return clone

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def first_id(self) -> int:
        """Message ID of bit index 0 (the paper's per-vector counter)."""
        return self._first_id

    @property
    def end_id(self) -> int:
        """One past the last message ID representable in the window."""
        return self._first_id + self._capacity

    @property
    def newest_id(self) -> int:
        """The newest message ID the window has reached (-1: none yet).

        A slide lands its ID on the last bit (or on a publisher's last
        message when synchronizing), so a window that has slid ends
        there; one that has not ends at its newest set bit.
        """
        if self._first_id:
            return self.end_id - 1
        return self._bits.bit_length() - 1

    @property
    def cardinality(self) -> int:
        """Number of set bits, i.e. publications received in-window."""
        if self._card is None:
            self._card = self._bits.bit_count()
        return self._card

    def __len__(self) -> int:
        return self._capacity

    def __bool__(self) -> bool:
        return self._bits != 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set(self, pub_id: int) -> bool:
        """Record receipt of publication ``pub_id``.

        Returns ``True`` if the bit was recorded, ``False`` if the ID
        predates the window (stale duplicate or very old retransmit).
        Sliding follows the paper: shift just enough that the new ID
        lands on the final bit, and advance ``first_id`` by the shift.
        """
        if pub_id < self._first_id:
            return False
        offset = pub_id - self._first_id
        if offset >= self._capacity:
            shift = offset - self._capacity + 1
            self._advance(shift)
            offset = self._capacity - 1
        self._bits |= 1 << offset
        self._card = None
        return True

    def synchronize(self, last_message_id: int) -> None:
        """Slide the window so it ends at ``last_message_id``.

        The paper synchronizes the counters of all bit vectors that
        correspond to the same publisher using the publisher profile's
        last-sent message ID, so vectors from different subscriptions
        are directly comparable bit-for-bit.
        """
        target_first = last_message_id - self._capacity + 1
        if target_first > self._first_id:
            self._advance(target_first - self._first_id)

    def _advance(self, shift: int) -> None:
        """Slide the window forward by ``shift`` message IDs."""
        if shift >= self._capacity:
            self._bits = 0
        else:
            self._bits >>= shift
        self._card = None
        self._first_id += shift

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def test(self, pub_id: int) -> bool:
        """Whether publication ``pub_id`` is recorded as received."""
        offset = pub_id - self._first_id
        if offset < 0 or offset >= self._capacity:
            return False
        return bool(self._bits >> offset & 1)

    def set_ids(self) -> Iterator[int]:
        """Iterate over the message IDs whose bits are set, ascending."""
        bits = self._bits
        base = self._first_id
        index = 0
        while bits:
            if bits & 1:
                yield base + index
            bits >>= 1
            index += 1

    def to_list(self) -> List[int]:
        return list(self.set_ids())

    def density(self) -> float:
        """Fraction of the capacity window that is set."""
        return self.cardinality / self._capacity

    def raw_bits(self) -> int:
        """The window's bit pattern as an int (bit i ↔ ``first_id + i``).

        Exposed for the fused bit-plane kernel, which ORs aligned
        vectors into one contiguous integer.
        """
        return self._bits

    def load_bits(self, bits: int) -> None:
        """Overwrite the bit pattern in place (kernel reconstruction).

        ``bits`` must fit the capacity window; callers are expected to
        have masked it already.
        """
        self._bits = bits
        self._card = None

    # ------------------------------------------------------------------
    # Union
    # ------------------------------------------------------------------
    def union(self, other: "BitVector") -> "BitVector":
        """OR of the two vectors over their common window.

        This is the paper's clustering operation (Figure 1): the profile
        of a merged subscription is the OR of the member profiles.  Bits
        below the later window start are discarded (they are not
        comparable: one side has no observation for them).
        """
        first = max(self._first_id, other._first_id)
        end = max(self.end_id, other.end_id)
        result = BitVector(capacity=max(end - first, 1), first_id=first)
        result._bits = (self._bits >> (first - self._first_id)) | (
            other._bits >> (first - other._first_id)
        )
        return result

    # ------------------------------------------------------------------
    # Equality / hashing
    # ------------------------------------------------------------------
    def signature(self) -> Tuple[int, int]:
        """Hashable identity of the observed bit pattern.

        Normalized so vectors that record the same publication set hash
        equally even if their windows started at different IDs.  Used to
        group equal subscriptions into GIFs (CRAM optimization 1).
        """
        bits = self._bits
        if bits:
            trailing = (bits & -bits).bit_length() - 1
            return (self._first_id + trailing, bits >> trailing)
        return (0, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitVector(capacity={self._capacity}, first_id={self._first_id}, "
            f"cardinality={self.cardinality})"
        )
