"""Fixture: every api-contract violation family in one module."""

from __future__ import annotations

from repro.core import allocators


class WrongAllocator:
    def allocate(self, units, brokers):
        return None


def make_wrong(**_):
    return WrongAllocator


allocators.register_spec(
    allocators.AllocatorSpec("lambda-builder", lambda **_: WrongAllocator)
)
allocators.register_spec(allocators.AllocatorSpec("wrong-signature", make_wrong))
allocators.register_spec(allocators.AllocatorSpec("ghost-builder", ghost_maker))
allocators.register_spec(
    allocators.AllocatorSpec(
        "typo-capability",
        make_wrong,
        capabilities=("incremental", "telepathic"),
    )
)

__all__ = ["WrongAllocator", "ghost_export"]
