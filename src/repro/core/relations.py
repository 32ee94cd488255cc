"""The relationship between two subscription profiles.

The paper identifies the relationship among subscriptions *from their
bit vectors* rather than from the subscription language (the algorithm
itself lives in the paper's online appendix; the set-theoretic
definition is the unique reconstruction).

Five relationships are possible between two profiles ``A`` and ``B``:

==========  =====================================================
EQUAL       A and B received exactly the same publications
SUPERSET    A received everything B did, plus more
SUBSET      B received everything A did, plus more
INTERSECT   they share some publications but neither covers the other
EMPTY       they share no publications
==========  =====================================================

These drive both the poset construction (CRAM optimization 2) and the
per-relationship clustering rules of CRAM optimization 1.  The kernel
classifies a pair from its packed bits
(:meth:`repro.core.kernel.ClosenessKernel.relationship`).
"""

from __future__ import annotations

import enum


class Relation(enum.Enum):
    """Set relationship between two subscription profiles."""

    EQUAL = "equal"
    SUPERSET = "superset"
    SUBSET = "subset"
    INTERSECT = "intersect"
    EMPTY = "empty"
