"""One frozen run configuration for the scattered ``REPRO_*`` toggles.

Six environment variables steer performance plumbing in five
different modules:

============================  =========================================
``REPRO_CLOSENESS_KERNEL``    fused bit-plane kernel on/off
                              (:mod:`repro.core.kernel`)
``REPRO_COLUMNAR``            columnar row store on/off
                              (:mod:`repro.core.columnar`)
``REPRO_COLUMNAR_BACKEND``    ``auto`` / ``numpy`` / ``python``
``REPRO_SHARD_JOBS``          shard-task worker count
                              (:mod:`repro.experiments.parallel`)
``REPRO_ENGINE``              ``heap`` / ``calendar`` event queue
                              (:mod:`repro.sim.engine`)
``REPRO_DELIVERY_BATCH``      batched fault-free client delivery on/off
                              (:mod:`repro.pubsub.network`)
============================  =========================================

A :class:`RunConfig` consolidates the first five into one frozen,
picklable record that the runner, the sweeps, and the spawn-pool cells
all thread explicitly, plus the :class:`~repro.core.online.OnlineSpec`
steering online incremental reallocation and the
:class:`~repro.core.energy.EnergySpec` for energy accounting.
``REPRO_DELIVERY_BATCH`` has no field: the network reads it directly
(:func:`delivery_batch_from_env`).

Precedence (single order, everywhere)
-------------------------------------
1. an explicit non-``None`` ``RunConfig`` field set in code or via CLI;
2. the corresponding ``REPRO_*`` environment variable;
3. the built-in default (kernel on, columnar on, backend ``auto``,
   shard jobs serial, engine ``heap``, delivery batching on, online
   reallocation off).

Fields left ``None`` mean "defer to 2–3" — the modules owning each
toggle already implement that fallback, so a default-constructed
``RunConfig()`` changes nothing (pinned by the equivalence suites).
:meth:`RunConfig.resolved` pins the environment lookups eagerly for
callers that need a self-contained record (e.g. before shipping work
to processes that must not re-read a mutated environment).

Every field here only ever *selects code paths and knobs* that are
value-exact by construction; no configuration value flows into
reported metrics, so determinism contracts are unaffected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.core.columnar import columnar_enabled, resolve_backend
from repro.core.energy import EnergySpec
from repro.core.kernel import kernel_enabled
from repro.core.online import OnlineSpec

#: Worker count for intra-run shard allocation; ``<= 1`` keeps shards
#: serial in-process, ``0`` means one per CPU.  Defined here (the
#: lowest layer that documents it) and re-exported by
#: :mod:`repro.experiments.parallel`, which owns the pool.
SHARD_JOBS_ENV_VAR = "REPRO_SHARD_JOBS"

#: Event-queue implementation for the simulation engine.  Defined here
#: (the lowest layer that documents it) and consumed by
#: :func:`repro.sim.engine.make_simulator`, which owns the engines.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Valid engine names: ``heap`` is the reference binary heap,
#: ``calendar`` the bucketed calendar queue (bit-identical order).
ENGINE_CHOICES = ("heap", "calendar")


def engine_from_env(default: str = "heap") -> str:
    """Parse :data:`ENGINE_ENV_VAR` (malformed/unknown → default)."""
    raw = os.environ.get(ENGINE_ENV_VAR, default).strip().lower()
    if raw not in ENGINE_CHOICES:
        return default
    return raw


def resolve_engine(choice: Optional[str]) -> str:
    """Engine name under the standard explicit > env > default order.

    An explicit unknown name is a hard error (a typo in code or on the
    CLI must fail loudly); only the environment variable degrades
    silently to the default.
    """
    if choice is None:
        return engine_from_env()
    name = choice.strip().lower()
    if name not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown engine {choice!r}; expected one of {ENGINE_CHOICES}"
        )
    return name


#: Environment toggle for batched fault-free client delivery: one
#: engine event drains a whole publication fan-out instead of one event
#: per subscriber.  On by default; any of ``0/false/off/no`` disables.
DELIVERY_BATCH_ENV_VAR = "REPRO_DELIVERY_BATCH"

_FALSY = frozenset(("0", "false", "off", "no"))


def delivery_batch_from_env(default: bool = True) -> bool:
    """Parse :data:`DELIVERY_BATCH_ENV_VAR` (unset → default)."""
    raw = os.environ.get(DELIVERY_BATCH_ENV_VAR)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSY


def shard_jobs_from_env(default: int = 1) -> int:
    """Parse :data:`SHARD_JOBS_ENV_VAR` (malformed/negative → default)."""
    raw = os.environ.get(SHARD_JOBS_ENV_VAR, str(default)).strip()
    try:
        value = int(raw)
    except ValueError:
        return default
    if value < 0:
        return default
    return value


@dataclass(frozen=True)
class RunConfig:
    """Explicit run-wide configuration (``None`` = defer to env/default).

    Parameters
    ----------
    use_kernel / use_columnar:
        Tri-state switches for the closeness kernel and its columnar
        store — both value-exact accelerations.
    columnar_backend:
        ``auto`` / ``numpy`` / ``python``; forcing ``numpy`` without a
        usable numpy is a hard error (no silent degradation).
    shard_jobs:
        Worker count for sharded Phase-2 allocation; ``0`` = one per
        CPU, ``1`` = serial.
    online:
        An :class:`~repro.core.online.OnlineSpec` enabling online
        incremental reallocation between full CROC cycles; ``None``
        leaves the classic full-cycle-only schedule.
    engine:
        Event-queue structure for the simulation engine (``heap`` /
        ``calendar``, see :mod:`repro.sim.engine`); both execute the
        identical event order, so this is a pure speed knob.
    """

    use_kernel: Optional[bool] = None
    use_columnar: Optional[bool] = None
    columnar_backend: Optional[str] = None
    shard_jobs: Optional[int] = None
    online: Optional[OnlineSpec] = None
    #: Simulation-engine queue structure: ``heap`` (reference) or
    #: ``calendar`` (bucketed calendar queue, bit-identical order).
    engine: Optional[str] = None
    #: An :class:`~repro.core.energy.EnergySpec` attaching post-hoc
    #: energy accounting to each measurement; ``None`` = off.  Pure
    #: arithmetic over already-measured counters — never a behavioral
    #: knob (pinned by the energy equivalence suite).
    energy: Optional[EnergySpec] = None

    def __post_init__(self) -> None:
        if self.engine is not None:
            object.__setattr__(self, "engine", resolve_engine(self.engine))
        if self.columnar_backend is not None:
            name = self.columnar_backend.strip().lower()
            if name not in ("auto", "numpy", "python"):
                raise ValueError(
                    f"unknown columnar backend {self.columnar_backend!r}; "
                    "expected auto, numpy, or python"
                )
            object.__setattr__(self, "columnar_backend", name)
        if self.shard_jobs is not None and self.shard_jobs < 0:
            raise ValueError(
                f"shard_jobs must be >= 0, got {self.shard_jobs}"
            )

    def resolved(self) -> "RunConfig":
        """Pin every deferred field against the current environment.

        The result has no ``None`` performance fields (``online`` stays
        as-is — there is no environment default for it), so it answers
        identically no matter what the environment does afterwards.
        """
        return replace(
            self,
            use_kernel=kernel_enabled(self.use_kernel),
            use_columnar=columnar_enabled(self.use_columnar),
            columnar_backend=resolve_backend(self.columnar_backend),
            shard_jobs=(
                self.shard_jobs
                if self.shard_jobs is not None
                else shard_jobs_from_env()
            ),
            engine=resolve_engine(self.engine),
        )

    def allocator_knobs(self) -> Dict[str, Any]:
        """The knob subset allocator builders understand.

        Fed to :func:`repro.core.allocators.get` alongside the
        runner-owned knobs (``rng``, ``failure_budget``); builders pick
        what they support and ignore the rest.
        """
        return {
            "use_kernel": self.use_kernel,
            "use_columnar": self.use_columnar,
            "columnar_backend": self.columnar_backend,
            "online": self.online,
            "energy": self.energy,
        }
