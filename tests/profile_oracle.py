"""The per-publisher profile algebra: the reference the kernel is exact against.

Paper §IV-C defines closeness, relationship and coverage as set
operations on bit-vector profiles.  Production computes them on the
kernel's packed planes (``repro.core.kernel``); this module computes
them on the per-publisher ``BitVector`` dicts, one publisher at a time,
each pair of vectors compared over their common window.  It imports
neither the kernel nor any of its helpers, so a suite that holds the
two against each other compares two independent implementations.

``naive_cram.Unpacked`` answers CRAM's and PAIRWISE's kernel calls
through these functions; :func:`validate_poset` is the poset's
structural check.
"""

from collections import deque

from repro.core.closeness import XOR_MAX
from repro.core.relations import Relation


# ----------------------------------------------------------------------
# Vectors
# ----------------------------------------------------------------------
def aligned(first, second):
    """Both vectors' bits over their common window: bits below the later
    window start are dropped (one side has no observation for them)."""
    start = max(first.first_id, second.first_id)
    return (
        first.raw_bits() >> (start - first.first_id),
        second.raw_bits() >> (start - second.first_id),
    )


def vector_counts(first, second):
    """``(|∩|, |∪|, |⊕|)`` of two vectors over their common window."""
    mine, theirs = aligned(first, second)
    return (mine & theirs).bit_count(), (mine | theirs).bit_count(), (mine ^ theirs).bit_count()


def vector_covers(first, second):
    """Whether every bit of ``second`` in the common window is in ``first``."""
    mine, theirs = aligned(first, second)
    return theirs & ~mine == 0


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def counts(first, second):
    """``(|∩|, |∪|, |⊕|)`` of two profiles, publisher by publisher; a
    publisher only one side has adds its whole vector to the union."""
    intersect = union = 0
    for adv_id, vector in first.items():
        theirs = second.vector(adv_id)
        if theirs is None:
            union += vector.cardinality
        else:
            i, u, _x = vector_counts(vector, theirs)
            intersect += i
            union += u
    for adv_id, theirs in second.items():
        if first.vector(adv_id) is None:
            union += theirs.cardinality
    return intersect, union, union - intersect


def covers(first, second):
    """Whether ``first``'s bits are a superset of ``second``'s."""
    for adv_id, theirs in second.items():
        if not theirs:
            continue
        mine = first.vector(adv_id)
        if mine is None or not vector_covers(mine, theirs):
            return False
    return True


def relationship(first, second):
    """The pair's :class:`Relation`, from cardinalities alone."""
    intersect = counts(first, second)[0]
    if intersect == 0:
        return Relation.EMPTY
    if intersect == first.cardinality and intersect == second.cardinality:
        return Relation.EQUAL
    if intersect == second.cardinality:
        return Relation.SUPERSET
    if intersect == first.cardinality:
        return Relation.SUBSET
    return Relation.INTERSECT


def closeness(name, first, second):
    """Paper §IV-C: ``intersect`` is ``|S1 ∩ S2|``, ``xor`` is
    ``1 / |S1 ⊕ S2|`` (capped at ``XOR_MAX``), ``ios`` is
    ``|S1 ∩ S2|² / (|S1| + |S2|)`` and ``iou`` is ``|S1 ∩ S2|² / |S1 ∪ S2|``."""
    intersect, union, xor = counts(first, second)
    if name == "intersect":
        return float(intersect)
    if name == "xor":
        return XOR_MAX if xor == 0 else 1.0 / xor
    if intersect == 0:
        return 0.0
    if name == "ios":
        return intersect * intersect / (first.cardinality + second.cardinality)
    assert name == "iou", name
    return intersect * intersect / union


def id_bits(profile, index):
    """The profile as one int, one bit per ``(publisher, message ID)`` it
    received; ``index`` numbers the pairs in first-seen order and must be
    shared by every profile whose ints are combined."""
    bits = 0
    for adv_id, vector in profile.items():
        for pub_id in vector.set_ids():
            bits |= 1 << index.setdefault((adv_id, pub_id), len(index))
    return bits


# ----------------------------------------------------------------------
# Poset
# ----------------------------------------------------------------------
def validate_poset(poset):
    """Raise AssertionError unless every parent covers every child, edges
    are symmetric, and every node is reachable from the root."""
    reachable = set()
    queue = deque([poset.root])
    while queue:
        node = queue.popleft()
        for child in node.children:
            assert node in child.parents, "child missing back-edge"
            assert node.is_root or covers(node.gif.profile, child.gif.profile), (
                f"parent {node!r} does not cover child {child!r}"
            )
            if id(child) not in reachable:
                reachable.add(id(child))
                queue.append(child)
    for node in poset.nodes():
        assert id(node) in reachable, f"{node!r} unreachable from root"
        for parent in node.parents:
            assert node in parent.children, "parent missing forward-edge"
