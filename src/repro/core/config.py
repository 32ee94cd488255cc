"""One frozen run configuration.

A :class:`RunConfig` is the picklable record that the runner, the
sweeps, and the spawn-pool cells all thread explicitly: the
:class:`~repro.core.online.OnlineSpec` steering online incremental
reallocation.  Energy is not configured here: it is a reading of a
finished result (``ExperimentResult.energy()``).

No field selects between implementations of the same computation, and
no configuration value flows into reported metrics except through the
features the fields switch on, so determinism contracts are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    """

    online: Optional[OnlineSpec] = None
