"""Seed management for reproducible experiments.

Every stochastic decision in the reproduction (workload generation,
random client placement, FBF's random subscription order, AUTOMATIC's
random overlay) draws from a :class:`SeededRng` derived from a single
experiment master seed, so two runs with the same configuration produce
identical topologies, workloads, and therefore identical measurements.

This module is the *only* place allowed to touch the stdlib RNG
(enforced by reprolint's ``unmanaged-random`` rule).  It lives in
``core`` — the bottom layer of the package DAG — so the allocator
baselines can draw randomness without importing upward into ``sim``;
:mod:`repro.sim.rng` re-exports the same names as the historical
public path.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, *names: str) -> int:
    """Derive a stable child seed from a master seed and a name path.

    Uses SHA-256 so unrelated name paths produce statistically
    independent streams, and the mapping is stable across Python
    versions and processes (unlike ``hash()``).
    """
    digest = hashlib.sha256()
    digest.update(str(master_seed).encode("utf-8"))
    for name in names:
        digest.update(b"/")
        digest.update(name.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class SeededRng:
    """A named, seeded random stream.

    Thin wrapper over :class:`random.Random` that adds a few helpers
    used throughout the experiment harness and records its provenance
    for debugging.
    """

    def __init__(self, master_seed: int, *names: str):
        self.master_seed = master_seed
        self.names = names
        self._random = random.Random(derive_seed(master_seed, *names))

    @property
    def stream(self) -> random.Random:
        """The underlying generator, for hot loops that bind its draw
        methods once instead of paying a wrapper call per draw.  Draws
        through it advance this same stream."""
        return self._random

    def child(self, *names: str) -> "SeededRng":
        """Derive an independent sub-stream."""
        return SeededRng(self.master_seed, *self.names, *names)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Inclusive on both ends, like :meth:`random.Random.randint`."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._random.lognormvariate(mu, sigma)

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def choice(self, seq: Sequence[T]) -> T:
        return self._random.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        return self._random.sample(population, k)

    def shuffled(self, items: Iterable[T]) -> List[T]:
        """Return a new shuffled list, leaving the input untouched."""
        result = list(items)
        self._random.shuffle(result)
        return result

    def shuffle(self, items: list) -> None:
        self._random.shuffle(items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "/".join(self.names) or "<root>"
        return f"SeededRng(seed={self.master_seed}, path={path})"
