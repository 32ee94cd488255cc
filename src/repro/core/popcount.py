"""Shared popcount primitives for every bit-counting path.

Both bit-counting paths — :class:`~repro.core.bitvector.BitVector`'s
cardinality methods and the fused kernel's packed profiles — route
through this module, so the counting semantics live in exactly one
place.

Everything here operates on plain non-negative ints (packed bit
patterns); window alignment stays the callers' job.
"""

from __future__ import annotations

from typing import Tuple


def popcount(bits: int) -> int:
    """Number of set bits (thin, inlinable alias of ``int.bit_count``)."""
    return bits.bit_count()


def fused_counts(mine: int, theirs: int) -> Tuple[int, int, int]:
    """``(|∩|, |∪|, |⊕|)`` of two aligned bit patterns.

    The XOR count is derived (``|∪| - |∩|``) rather than popcounted a
    third time — one fewer big-int traversal, same value.
    """
    intersect = (mine & theirs).bit_count()
    union = (mine | theirs).bit_count()
    return intersect, union, union - intersect

