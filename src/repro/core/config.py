"""One frozen run configuration.

A :class:`RunConfig` is the picklable record that the runner, the
sweeps, and the spawn-pool cells all thread explicitly: the
:class:`~repro.core.online.OnlineSpec` steering online incremental
reallocation, and the :class:`~repro.core.energy.EnergySpec` for
energy accounting.

No field selects between implementations of the same computation, and
no configuration value flows into reported metrics except through the
features the fields switch on, so determinism contracts are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.energy import EnergySpec
from repro.core.online import OnlineSpec


@dataclass(frozen=True)
class RunConfig:
    """Explicit run-wide configuration.

    Parameters
    ----------
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

    online: Optional[OnlineSpec] = None
    energy: Optional[EnergySpec] = None
