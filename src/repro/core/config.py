"""One frozen run configuration.

A :class:`RunConfig` is the picklable record that the runner, the
sweeps, and the spawn-pool cells all thread explicitly: the shard
worker count, the :class:`~repro.core.online.OnlineSpec` steering
online incremental reallocation, and the
:class:`~repro.core.energy.EnergySpec` for energy accounting.

No field selects between implementations of the same computation, and
no configuration value flows into reported metrics except through the
features the fields switch on, so determinism contracts are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.energy import EnergySpec
from repro.core.online import OnlineSpec


@dataclass(frozen=True)
class RunConfig:
    """Explicit run-wide configuration.

    Parameters
    ----------
    shard_jobs:
        Worker count for sharded Phase-2 allocation; ``0`` = one per
        CPU, ``1`` = serial, ``None`` = the process default (serial
        unless ``--shard-jobs`` set it).
    online:
        An :class:`~repro.core.online.OnlineSpec` enabling online
        incremental reallocation between full CROC cycles; ``None``
        leaves the classic full-cycle-only schedule.
    energy:
        An :class:`~repro.core.energy.EnergySpec` attaching post-hoc
        energy accounting to each measurement; ``None`` = off.  Pure
        arithmetic over already-measured counters — never a behavioral
        knob (pinned by the energy equivalence suite).
    """

    shard_jobs: Optional[int] = None
    online: Optional[OnlineSpec] = None
    energy: Optional[EnergySpec] = None

    def __post_init__(self) -> None:
        if self.shard_jobs is not None and self.shard_jobs < 0:
            raise ValueError(
                f"shard_jobs must be >= 0, got {self.shard_jobs}"
            )

    def allocator_knobs(self) -> Dict[str, Any]:
        """The knob subset allocator builders understand.

        Fed to :func:`repro.core.allocators.get` alongside the
        runner-owned knobs (``rng``, ``failure_budget``); builders pick
        what they support and ignore the rest.
        """
        return {"online": self.online, "energy": self.energy}
