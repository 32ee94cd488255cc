"""The closed table of CROC Phase-2 allocators, by approach name.

The paper's evaluation compares a fixed set of approaches, so the
allocators behind them are a fixed table: :data:`NAMES` lists them in
presentation order and :func:`get` resolves one to a zero-argument
allocator factory, the shape :class:`~repro.core.croc.Croc` consumes.
A spawned pool worker imports this module like any other process, so a
cell that ships an approach *name* resolves it to the same allocator.

Example
-------
>>> get("cram-ios")().name
'cram-ios'
>>> "fij-trade" in INCREMENTAL
True
>>> get("fij-trade")().name
'cram-ios'
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.core.binpacking import BinPackingAllocator
from repro.core.cram import CramAllocator
from repro.core.fbf import FbfAllocator

#: Every allocator, in the paper's presentation order (§IV–V: FBF,
#: BIN PACKING, the four CRAM closeness metrics), then the approach
#: that adds online migrations to CRAM-IOS.
NAMES: Tuple[str, ...] = (
    "fbf",
    "binpacking",
    "cram-intersect",
    "cram-xor",
    "cram-ios",
    "cram-iou",
    "fij-trade",
)

#: The approach whose ``fij_trade`` migrations the continuous loop's
#: mixed schedule runs between full cycles.  Its Phase-2 allocator is
#: CRAM-IOS.
INCREMENTAL: Tuple[str, ...] = ("fij-trade",)


def get(
    name: str,
    *,
    rng: Any = None,
    failure_budget: Optional[int] = None,
) -> Callable[[], Any]:
    """Resolve ``name`` to a zero-argument allocator factory.

    Each allocator takes the knobs it understands: FBF the ``rng``, the
    CRAM family the ``failure_budget``.  The :data:`INCREMENTAL`
    approach allocates with CRAM-IOS.
    """
    if name == "fbf":
        return lambda: FbfAllocator(rng=rng)
    if name == "binpacking":
        return BinPackingAllocator
    if name in NAMES:  # the four cram-<metric> entries and INCREMENTAL
        metric = "ios" if name in INCREMENTAL else name[len("cram-"):]
        return lambda: CramAllocator(metric=metric, failure_budget=failure_budget)
    raise ValueError(f"unknown allocator {name!r}; known: {', '.join(NAMES)}")
